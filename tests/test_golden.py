"""Golden artifacts: the bytes every CLI entry point writes, pinned by SHA-256.

The default suite's CSVs are the toolkit's behavioural contract.  This test
reruns the default suite and one argv per subcommand, and compares the
SHA-256 of every artifact, of stdout, and the exit code with values pinned
from a known-good build.  A refactor that changes nothing passes unchanged;
re-pin only for a deliberate behaviour change, and log it in CHANGES.md.

Everything runs with the working directory set to a temp dir and relative
output paths; ``cgl.plt`` names its CSVs by basename, so no byte depends on
the output directory.
"""
import hashlib

import pytest

from gwcommute.cli import main

SUITE_ARTIFACTS = {
    "identity.csv":
        "55e0ae2106ba6c5ddace248156024c2d0af50b7860a7ca2b1f0ccd61c1984841",
    "estimate.csv":
        "10356356edf5a4b9a6b5a3fdfbf1eb791c0bb16e48e2397c007743c74081d86e",
    "constants.csv":
        "b14306a50c6a3c3df3587cf22934382c08b582a40acb55175b7fd1d16ce86bfa",
    "kernel_norms.csv":
        "8b2b84c16aaa9687432a196e93c1826517f3087b54f30cfc81ea639863668220",
    "cgl_decay.csv":
        "3c23c2ae3bc8b02225ebe964b05e3cc35ad761c522c2fe7ec987c55772f8a8b1",
    "cgl_weighted.csv":
        "c12adf0faa09c8327fbf902155fdf49722d23f2e0bef0ca6f7b050ffb8c6bf20",
    "cgl.plt":
        "5b62630ebb0e843b7d1d319c7d0f60ffac836f0699dbebae607f1f385a887d9b",
}
SUITE_STDOUT = "d41f4ba4f760719a280ad8728ab27916d2ee3ed2609f3f8d48cf734babaec241"

EMPTY = hashlib.sha256(b"").hexdigest()

# name -> (argv, exit code, stdout sha256, {artifact: sha256})
SUBCOMMANDS = {
    "hermite": (
        ["hermite", "--alpha", "3.2"],
        0, "f7085f01982e7f4f95f5833f3b7519d92df45b2976226386239df7ff1168295c", {},
    ),
    "verify-identity-1d": (
        ["verify-identity", "--alpha", "2", "--omega", "1,0.5",
         "--testfn", "mixture"],
        0, "6d2ae4052fae3174e76933d36259c780b868d9b62ec2f845e48894afd07c20d3", {},
    ),
    "verify-identity-2d-shift": (
        ["verify-identity", "--alpha", "1.1", "--omega", "1,0.3",
         "--testfn", "bandlimited", "--grid", "64,16", "--with-shift",
         "--out", "identity2d.csv"],
        0, EMPTY,
        {"identity2d.csv":
         "5b933c1d07ae4648a60e169f48b4982be9a9e06ccc24de8587b5c33137c475fa"},
    ),
    "verify-identity-fail": (
        ["verify-identity", "--alpha", "3", "--omega", "1,0.9",
         "--testfn", "bandlimited", "--tolerance", "1e-18"],
        1, "cc68ebae7dcb55d6f03451db2beeec6b7351d6b127ba2930258a3aed1e0c9afe", {},
    ),
    "verify-estimate-radial": (
        ["verify-estimate", "--m", "2", "--p", "2", "--q", "1",
         "--omega", "1,0.5", "--testfn", "gauss-wide", "--radial",
         "--out", "estimate.csv"],
        0, EMPTY,
        {"estimate.csv":
         "b8bafa0ca3b3c3fa28aea9545de23d23f11e15ad0629ea2e5c933b8670316ad3"},
    ),
    "verify-estimate-config-error": (
        ["verify-estimate", "--m", "1", "--p", "1", "--q", "2",
         "--omega", "1,0", "--testfn", "gauss-wide"],
        2, EMPTY, {},
    ),
    "constants-table": (
        ["constants", "--n", "2", "--m-list", "1,2", "--r-list", "1,2.5,inf",
         "--theta-list", "0,0.6,1.2"],
        0, "d98d85449b93dac8bd31b00b527a817690d2e3ca610c9e15fbc75d34f8eb871d", {},
    ),
    "constants-out": (
        ["constants", "--out", "constants.csv"],
        0, EMPTY,
        {"constants.csv":
         "6308f5bbcec1965f0314155521e55115f0a9112d7df0cd681d18108b4a5cb156"},
    ),
    "kernel-norms": (
        ["kernel-norms", "--beta-list", "1,3", "--r-list", "1,inf",
         "--theta-list", "0,0.9", "--grid", "256,16"],
        0, "90c196074f6db3f85066b3a75d17ab5ccb45a9be5f901cedb45beee9c02fe733", {},
    ),
    "cgl": (
        ["cgl", "--T", "2", "--dt", "0.01", "--grid", "512,32", "--out", "run"],
        0, "b337dd2911c96fed85538db1e0f558594eecaf7a58b175c37140c5c7efae2574",
        {"run_decay.csv":
         "2eadaeaeb328078a89314954175ef5cc2568355b18eabb641f6f09b8cc962537",
         "run_weighted.csv":
         "bd366cb859a91323b436cf5e249de54bd3089391ecb118714690ebe3685d90dc",
         "run.plt":
         "3b1b353c9fb63f867d9d93158fde5c20ca18dab9586bbde388259c6985e11460"},
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_suite_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["suite", "--out-dir", "out"]) == 0
    out = capsys.readouterr().out
    got = {name: sha256((tmp_path / "out" / name).read_bytes())
           for name in SUITE_ARTIFACTS}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(SUITE_ARTIFACTS)
    assert got == SUITE_ARTIFACTS
    assert sha256(out.encode()) == SUITE_STDOUT


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_output(name, tmp_path, monkeypatch, capsys):
    argv, code, stdout_sha, artifacts = SUBCOMMANDS[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert sha256(out.encode()) == stdout_sha
    got = {a: sha256((tmp_path / a).read_bytes()) for a in artifacts}
    assert got == artifacts
