"""Golden artifacts: the bytes every CLI entry point writes, pinned by SHA-256.

The default suite's CSVs are the toolkit's behavioural contract.  This test
reruns the default suite and one argv per subcommand, and compares the
SHA-256 of every artifact, of stdout, and the exit code with values pinned
from a known-good build.  A refactor that changes nothing passes unchanged;
re-pin only for a deliberate behaviour change, and log it in CHANGES.md.

Everything runs with the working directory set to a temp dir and relative
output paths; ``cgl.plt`` names its CSVs by basename, so no byte depends on
the output directory.  The config files in CONFIGS are written there first.

A hash cannot tell a rounding-level change from a wrong one, so every
artifact is also checked against a frozen copy under ``tests/data/``
(``suite/`` for the default suite, one directory per subcommand name),
written by the build the hashes were first pinned from.  Numeric cells may
drift within REL_TOL relative (DISCREPANCY_TOL absolute for the
``rel_l2_err`` column); every other byte must match.  A rounding-level
change re-pins hashes and leaves the references alone, so the drift is
bounded against one baseline, not per change.  Regenerate a reference
only for a deliberate behaviour change (run the same argv in its
directory), and log it in CHANGES.md.
"""
import hashlib
import math
from pathlib import Path

import pytest

from gwcommute.cli import main

SUITE_ARTIFACTS = {
    "identity.csv":
        "cac6238ff7cf37c6735021b453564da37ddac2e6c5ab0b896243b4d1d3f64b2e",
    "estimate.csv":
        "10356356edf5a4b9a6b5a3fdfbf1eb791c0bb16e48e2397c007743c74081d86e",
    "constants.csv":
        "b14306a50c6a3c3df3587cf22934382c08b582a40acb55175b7fd1d16ce86bfa",
    "kernel_norms.csv":
        "8b2b84c16aaa9687432a196e93c1826517f3087b54f30cfc81ea639863668220",
    "cgl_decay.csv":
        "0f2cfc629669df7e4f2e59e00dab4a23bc168c608a43f6d7669d940a712cfdc5",
    "cgl_weighted.csv":
        "e733811fcb5fc2948aee97f12689cbf667c74e6af41fb464276dd2f5903d707b",
    "cgl.plt":
        "5b62630ebb0e843b7d1d319c7d0f60ffac836f0699dbebae607f1f385a887d9b",
}
SUITE_STDOUT = "df02208963eb9c96750e459a262dbb2b443cc1d20c5fafc597f8625bcfc53e01"

EMPTY = hashlib.sha256(b"").hexdigest()

REFERENCES = Path(__file__).parent / "data"
# Aim 1 lets an evaluator move by 1e-12 relative.  A discrepancy column
# holds a ratio near 1e-14 built from two evaluators, so it moves by about
# twice their own change, absolutely; a relative bound means nothing there.
REL_TOL = 1e-12
DISCREPANCY_TOL = 2e-12
DISCREPANCY_COLUMNS = {"rel_l2_err"}

# file name -> text, written to the working directory before each argv runs.
# The default suite is 1-d, where every level |alpha| = m holds one alpha;
# this 2-d estimate section sums several commutator fields per level:
# 2 testfns x 2 m x 2 (p, q) x 2 omega, theorem and radial rows, plus
# 4 Lipschitz multipliers x 2 omega, 40 data rows in all.
CONFIGS = {
    "estimate2d.cfg": """\
[suite]
harnesses = estimate

[estimate]
dim = 2
grid = 64,16
m_values = 1, 2
pq_pairs = 2:1, inf:inf
omegas = 1,0; 1,0.5
testfns = gauss-wide, bandlimited
radial = true
lipschitz = true
""",
}

# name -> (argv, exit code, stdout sha256, {artifact: sha256})
SUBCOMMANDS = {
    "hermite": (
        ["hermite", "--alpha", "3.2"],
        0, "f7085f01982e7f4f95f5833f3b7519d92df45b2976226386239df7ff1168295c", {},
    ),
    "verify-identity-1d": (
        ["verify-identity", "--alpha", "2", "--omega", "1,0.5",
         "--testfn", "mixture"],
        0, "25e8e7544adf225dfec8944db4ea7c510fc57b26aee89abdca0b686a93ef8be0", {},
    ),
    "verify-identity-2d-shift": (
        ["verify-identity", "--alpha", "1.1", "--omega", "1,0.3",
         "--testfn", "bandlimited", "--grid", "64,16", "--with-shift",
         "--out", "identity2d.csv"],
        0, EMPTY,
        {"identity2d.csv":
         "965b634c04f415de85829b09f161e057346bbd022c221504d680fd90644571b5"},
    ),
    "verify-identity-fail": (
        ["verify-identity", "--alpha", "3", "--omega", "1,0.9",
         "--testfn", "bandlimited", "--tolerance", "1e-18"],
        1, "5edbccf69663b4a79cdd7d9510113a33476d078d411efb12657bad7bfe780fdc", {},
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
         "74f8c7681cba15d367d2bb09de1db55f57173825f31536474ce1c3646c8e5194",
         "run_weighted.csv":
         "635e1ffdf038606eeda498a871b150902efba313fb9da3dc93e1089e1abd8f5b",
         "run.plt":
         "3b1b353c9fb63f867d9d93158fde5c20ca18dab9586bbde388259c6985e11460"},
    ),
    "suite-estimate-2d": (
        ["suite", "--config", "estimate2d.cfg", "--out-dir", "."],
        0, "46a23bd84f31ec9117d2148d326770f0ef945f855ee55403c1d1f781c67a38a8",
        {"estimate.csv":
         "a2dc9e0301d4011347c997d8e85471440c5fa5ade1cee81d4bd5052b77c7dc42"},
    ),
    # Real w in 3-d: the oracle's real-matrix (dgemm) passes on every axis.
    "verify-identity-3d-real": (
        ["verify-identity", "--alpha", "1.2.1", "--omega", "0.25,0",
         "--testfn", "mixture", "--grid", "64,16", "--out", "identity3d.csv"],
        0, EMPTY,
        {"identity3d.csv":
         "c36149e111bfa5f12946013b0f5eb50f990d5845f9414061e48334baf66bdfd9"},
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def enter(tmp_path, monkeypatch) -> None:
    """Work in tmp_path, with the CONFIGS files written there."""
    monkeypatch.chdir(tmp_path)
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)


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
    enter(tmp_path, monkeypatch)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert sha256(out.encode()) == stdout_sha
    got = {a: sha256((tmp_path / a).read_bytes()) for a in artifacts}
    assert got == artifacts


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def reference_mismatches(fresh: str, reference: str) -> list[str]:
    """Where fresh artifact text departs from its reference beyond the bounds.

    The first line (a CSV header) and '#' lines (the footer) must match
    exactly; so must every cell that is not a finite number.  Numeric cells
    compare within REL_TOL relative, or DISCREPANCY_TOL absolute in a
    DISCREPANCY_COLUMNS column.
    """
    got, want = fresh.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return [f"{len(got)} lines, reference has {len(want)}"]
    header = want[0].split(",")
    bad = []
    for lineno, (line, ref_line) in enumerate(zip(got, want), 1):
        if lineno == 1 or ref_line.startswith("#"):
            if line != ref_line:
                bad.append(f"line {lineno}: {line!r} != {ref_line!r}")
            continue
        cells, ref_cells = line.split(","), ref_line.split(",")
        if len(cells) != len(ref_cells):
            bad.append(f"line {lineno}: {len(cells)} cells, reference has {len(ref_cells)}")
            continue
        for col, (cell, ref_cell) in enumerate(zip(cells, ref_cells)):
            ref_value, value = _number(ref_cell), _number(cell)
            if ref_value is None or value is None:
                ok = cell == ref_cell
            elif col < len(header) and header[col] in DISCREPANCY_COLUMNS:
                ok = abs(value - ref_value) <= DISCREPANCY_TOL
            else:
                ok = abs(value - ref_value) <= REL_TOL * abs(ref_value)
            if not ok:
                bad.append(f"line {lineno} column {col + 1}: {cell!r} vs {ref_cell!r}")
    return bad


REFERENCE_CASES = [("suite", ["suite", "--out-dir", "."], 0, list(SUITE_ARTIFACTS))] + [
    (name, argv, code, list(artifacts))
    for name, (argv, code, _, artifacts) in SUBCOMMANDS.items() if artifacts
]


@pytest.mark.parametrize("name, argv, code, artifacts", REFERENCE_CASES,
                         ids=[case[0] for case in REFERENCE_CASES])
def test_artifacts_within_numeric_reference(name, argv, code, artifacts, tmp_path,
                                            monkeypatch, capsys):
    enter(tmp_path, monkeypatch)
    assert main(argv) == code
    capsys.readouterr()
    for artifact in artifacts:
        fresh = (tmp_path / artifact).read_text()
        reference = (REFERENCES / name / artifact).read_text()
        assert reference_mismatches(fresh, reference) == [], artifact


def test_reference_comparison_bounds():
    reference = "a,rel_l2_err,x\n1,1e-14,2.0\n# footer\n"
    assert reference_mismatches(reference, reference) == []
    assert reference_mismatches("a,rel_l2_err,x\n1,1.9e-12,2.000000000001\n# footer\n",
                                reference) == []
    for fresh in ("a,rel_l2_err,x\n1,3e-12,2.0\n# footer\n",
                  "a,rel_l2_err,x\n1,1e-14,2.00000000001\n# footer\n",
                  "a,rel_l2_err,x\n2,1e-14,2.0\n# footer\n",
                  "a,rel_l2_err,x\n1,1e-14,2.0\n# footer 2\n",
                  "a,rel_l2_err,y\n1,1e-14,2.0\n# footer\n",
                  "a,rel_l2_err,x\n1,1e-14\n# footer\n",
                  "a,rel_l2_err,x\n1,1e-14,2.0\n"):
        assert reference_mismatches(fresh, reference), fresh
