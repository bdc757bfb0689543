"""End-to-end CLI checks: exit codes, CSV artifacts, determinism."""
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gwcommute
from gwcommute import __version__, config
from gwcommute.cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
FOOTER = re.compile(r"^# gw-commute [0-9.]+ [0-9a-f]{12}$")


def read_lines(path):
    return path.read_text().splitlines()


def check_csv(path, header):
    """Header + footer sanity; returns the data rows split into fields."""
    lines = read_lines(path)
    assert lines[0] == header
    assert FOOTER.match(lines[-1]), lines[-1]
    return [line.split(",") for line in lines[1:-1]]


# -------------------------------------------------------------------- hermite

def test_hermite_prints_exact_polynomial(capsys):
    assert main(["hermite", "--alpha", "2"]) == 0
    assert capsys.readouterr().out == "0\t-2*w^-1\n2\t1*w^-2\n"


def test_hermite_capital_flavor(capsys):
    assert main(["hermite", "--alpha", "1", "--flavor", "H"]) == 0
    assert capsys.readouterr().out == "1\t2*w^-1\n"


def test_hermite_bad_alpha(capsys):
    assert main(["hermite", "--alpha", "2.x"]) == 2
    assert "multi-index" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert f"gw-commute {__version__}" in capsys.readouterr().out


# ------------------------------------------------------------ verify-identity

IDENTITY_HEADER = "alpha,omega_re,omega_im,pair,rel_l2_err,pass"


def test_verify_identity_writes_csv(tmp_path):
    out = tmp_path / "identity.csv"
    code = main(["verify-identity", "--alpha", "2", "--omega", "1,0.5",
                 "--testfn", "gauss-wide", "--out", str(out)])
    assert code == 0
    rows = check_csv(out, IDENTITY_HEADER)
    assert [r[3] for r in rows] == [
        "direct-vs-theorem", "direct-vs-convolution", "theorem-vs-convolution",
    ]
    assert all(r[-1] == "true" for r in rows)
    assert all(float(r[4]) <= 1e-6 for r in rows)


def test_verify_identity_with_shift_row(tmp_path):
    out = tmp_path / "identity.csv"
    code = main(["verify-identity", "--alpha", "2", "--omega", "1,0",
                 "--testfn", "mixture", "--with-shift", "--out", str(out)])
    assert code == 0
    rows = check_csv(out, IDENTITY_HEADER)
    assert len(rows) == 4
    assert rows[-1][3] == "shift-identity"


def test_verify_identity_stdout_when_no_out(capsys):
    code = main(["verify-identity", "--alpha", "1", "--omega", "1,0",
                 "--testfn", "gauss-wide"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == IDENTITY_HEADER
    assert FOOTER.match(lines[-1])


def test_verify_identity_impossible_tolerance_exits_1(tmp_path):
    out = tmp_path / "identity.csv"
    code = main(["verify-identity", "--alpha", "3", "--omega", "1,0.9",
                 "--testfn", "bandlimited", "--tolerance", "1e-18",
                 "--out", str(out)])
    assert code == 1
    rows = check_csv(out, IDENTITY_HEADER)  # failing rows still written
    assert any(r[-1] == "false" for r in rows)


@pytest.mark.parametrize("argv, message", [
    (["verify-identity", "--alpha", "0", "--omega", "1,0",
      "--testfn", "gauss-wide"], "alpha"),
    (["verify-identity", "--alpha", "1", "--omega=-1,0",
      "--testfn", "gauss-wide"], "positive real part"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0",
      "--testfn", "gauss-tall"], "catalog"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0",
      "--testfn", "gauss-wide", "--grid", "300,16"], "power of two"),
    (["verify-identity", "--alpha", "1", "--omega", "nan,0",
      "--testfn", "gauss-wide"], "complex value must be finite"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0",
      "--testfn", "gauss-wide", "--grid", "64,inf"], "half-width must be finite"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0",
      "--testfn", "gauss-wide", "--tolerance", "-1"], "tolerance must be finite and positive"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0",
      "--testfn", "gauss-wide", "--tolerance", "0"], "tolerance must be finite and positive"),
])
def test_verify_identity_config_errors(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------------ verify-estimate

ESTIMATE_HEADER = ("n,m,p,q,r,omega_re,omega_im,theta,"
                   "lhs,rhs,constant,margin,pass")


def test_verify_estimate_csv(tmp_path):
    out = tmp_path / "estimate.csv"
    code = main(["verify-estimate", "--m", "1", "--p", "2", "--q", "1",
                 "--omega", "1,0.5", "--testfn", "gauss-wide", "--radial",
                 "--out", str(out)])
    assert code == 0
    rows = check_csv(out, ESTIMATE_HEADER)
    assert len(rows) == 2  # monomial sum + radial variant
    for row in rows:
        assert row[:4] == ["1", "1", "2", "1"]
        assert row[4] == "2"  # 1/r = 1 + 1/p - 1/q = 1/2
        assert row[-1] == "true"
        assert float(row[8]) <= float(row[9])


def test_verify_estimate_rejects_bad_exponents(capsys):
    code = main(["verify-estimate", "--m", "1", "--p", "1", "--q", "2",
                 "--omega", "1,0", "--testfn", "gauss-wide"])
    assert code == 2
    assert "q" in capsys.readouterr().err


# ------------------------------------------------------------------ constants

def test_constants_stdout_table(capsys):
    code = main(["constants", "--n", "1", "--m-list", "1",
                 "--r-list", "1", "--theta-list", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["n", "m", "r", "theta", "A", "A_tilde"]
    assert "1.7155277699214138" in out


def test_constants_csv(tmp_path):
    out = tmp_path / "constants.csv"
    code = main(["constants", "--n", "2", "--m-list", "1,2",
                 "--r-list", "2,inf", "--theta-list", "0,0.9",
                 "--out", str(out)])
    assert code == 0
    rows = check_csv(out, "n,m,r,theta,A,A_tilde")
    assert len(rows) == 8
    assert {r[2] for r in rows} == {"2", "inf"}
    assert all(float(r[4]) > 0 and float(r[5]) > 0 for r in rows)


def test_constants_theta_out_of_range(tmp_path, capsys):
    out = tmp_path / "constants.csv"
    code = main(["constants", "--theta-list", "0,1.58", "--out", str(out)])
    assert code == 2
    assert "theta" in capsys.readouterr().err
    assert not out.exists()  # nothing written on a config error


def test_constants_overflowing_m_is_config_error(tmp_path, capsys):
    out = tmp_path / "constants.csv"
    code = main(["constants", "--m-list", "1,400", "--theta-list", "0.3",
                 "--out", str(out)])
    assert code == 2
    assert "overflows float64 at m = 400, theta = 0.3\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m, name", [(170, "A = #{|a| = m} A~"), (172, "A~")])
def test_constants_overflowing_product_is_config_error(tmp_path, capsys, m, name):
    # the bracket fits in float64 at these m; the constant's product does not
    # (m = 169 gives A = 1.6e307)
    out = tmp_path / "constants.csv"
    code = main(["constants", "--n", "3", "--m-list", f"169,{m}", "--r-list", "1",
                 "--theta-list", "1.5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"the constant {name} overflows float64 at n = 3, m = {m}, theta = 1.5\n" in err
    assert not out.exists()


# --------------------------------------------------------------- kernel-norms

def test_kernel_norms_csv(tmp_path):
    out = tmp_path / "kn.csv"
    code = main(["kernel-norms", "--beta-list", "1,2", "--r-list", "1",
                 "--theta-list", "0,0.9", "--out", str(out)])
    assert code == 0
    rows = check_csv(out, "beta,r,theta,norm,bound,pass")
    assert len(rows) == 4
    for row in rows:
        assert row[-1] == "true"
        assert 0.0 < float(row[3]) <= float(row[4])


# ------------------------------------------------------------------------ cgl

def test_cgl_writes_three_artifacts(tmp_path, capsys):
    prefix = tmp_path / "run"
    code = main(["cgl", "--T", "2", "--dt", "0.01", "--grid", "512,32",
                 "--out", str(prefix)])
    assert code == 0
    assert "cgl: slope=" in capsys.readouterr().out

    decay = check_csv(tmp_path / "run_decay.csv", "t,r,record")
    assert {r[1] for r in decay} == {"1", "2", "inf"}
    weighted = check_csv(tmp_path / "run_weighted.csv", "t,W,ratio")
    assert [r[0] for r in weighted] == ["0.0", "0.5", "1.0", "1.5", "2.0"]

    plt = read_lines(tmp_path / "run.plt")
    assert FOOTER.match(plt[0])
    assert any("logscale" in line for line in plt)
    assert any("run_weighted.csv" in line for line in plt)


def test_cgl_short_horizon_rejected(tmp_path, capsys):
    code = main(["cgl", "--T", "1", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--p", "nan"), ("--eps", "inf"), ("--sigma", "nan"), ("--T", "inf"),
    ("--dt", "nan"),
])
def test_cgl_non_finite_float_flags_rejected(tmp_path, capsys, flag, value):
    code = main(["cgl", "--T", "2", "--grid", "512,32", flag, value,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_identity_non_finite_tolerance_rejected(capsys, monkeypatch):
    # rejected before any evaluator runs
    import gwcommute.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("evaluated a case")

    monkeypatch.setattr(cli, "identity_reports", never)
    code = main(["verify-identity", "--alpha", "1", "--omega", "1,0",
                 "--testfn", "gauss-wide", "--tolerance", "nan"])
    assert code == 2
    assert "--tolerance must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--m", "0"], "cgl m must be >= 1"),
    (["--m", "x"], "bad --m"),
    (["--dt", "0.03"], "integer multiple of dt"),
    (["--p", "3"], "p > 1 + 2/n"),
    (["--dt", "2"], "two snapshots in the fit window"),
    (["--eps", "0"], "two snapshots in the fit window"),
    (["--p", "x"], "bad --p 'x'"),
    (["--lambda", "1e300,0"], "sup-norm guard tripped at t = 0.01:"),
    # horizon / dt overflows to inf: no multiple, not a traceback
    (["--dt", "1e-310"], "horizon 2.0 must be an integer multiple of dt 1e-310"),
])
def test_cgl_input_errors_write_nothing(tmp_path, capsys, flags, message):
    code = main(["cgl", "--T", "2", "--grid", "512,32", *flags,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:boundary mass fraction")
def test_cgl_weighted_norm_overflow_is_config_error(tmp_path, capsys):
    # 16^255 is a float64, so the weights pass their range check; with q = 2
    # the norm squares them past it, while q = 1 keeps W(t) finite
    code = main(["cgl", "--T", "2", "--m", "255", "--q", "2", "--grid", "256,16",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert ("W(t) = sum ||x^a u(t)||_q overflows float64 at m = 255, q = 2, t = 0\n"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []
    code = main(["cgl", "--T", "2", "--m", "255", "--q", "1", "--grid", "256,16",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert "pass=true" in capsys.readouterr().out


def test_cgl_weight_overflow_rejected_before_the_run(tmp_path, capsys, monkeypatch):
    # 16^300 is past float64's range, so |x|^300 is not finite at x = -16
    import gwcommute.cli as cli

    def never(cfg):
        raise AssertionError("ran the simulation")

    monkeypatch.setattr(cli, "simulate", never)
    code = main(["cgl", "--T", "2", "--m", "300", "--grid", "256,16",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "m = 300 is too large for the box half-width L = 16:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cgl_plot_script_does_not_depend_on_output_directory(tmp_path, capsys):
    scripts = []
    for sub in ("a", "b/c"):
        (tmp_path / sub).mkdir(parents=True)
        assert main(["cgl", "--T", "2", "--grid", "512,32",
                     "--out", str(tmp_path / sub / "run")]) == 0
        scripts.append((tmp_path / sub / "run.plt").read_bytes())
    assert scripts[0] == scripts[1]
    assert b'plot "run_weighted.csv"' in scripts[0]


def test_cgl_oversized_initial_data_rejected(tmp_path, capsys):
    code = main(["cgl", "--eps", "0.5", "--T", "2", "--grid", "512,32",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "smallness" in capsys.readouterr().err


# ------------------------------------------------- the grid rule's minimum

@pytest.mark.parametrize("argv", [
    ["verify-identity", "--alpha", "1", "--omega", "1,0", "--testfn", "gauss-wide"],
    ["verify-identity", "--alpha", "1", "--omega", "1,0", "--testfn", "gauss-wide",
     "--with-shift"],
    ["verify-estimate", "--m", "1", "--p", "2", "--q", "1", "--omega", "1,0",
     "--testfn", "gauss-wide"],
    ["kernel-norms"],
    # eight points 16 apart put mass in the boundary band at once
    pytest.param(["cgl", "--grid", "8,64"],
                 marks=pytest.mark.filterwarnings("ignore:boundary mass fraction")),
], ids=["verify-identity", "verify-identity-shift", "verify-estimate", "kernel-norms",
        "cgl"])
def test_every_grid_subcommand_runs_at_eight_points(tmp_path, argv):
    # N = 8 is the least grid the rule accepts: a coarse grid may fail a
    # check or an input rule, but never end in a traceback
    if "--grid" not in argv:
        argv = [*argv, "--grid", "8,16"]
    assert main([*argv, "--out", str(tmp_path / "out")]) in (0, 1, 2)


# ---------------------------------------------------------------------- suite

SMALL_SUITE = """
[suite]
harnesses = identity, constants
seed = 0

[identity]
dim = 1
grid = 512,16
alphas = 1, 2
omegas = 1,0.5
testfns = gauss-wide

[constants]
dim = 1
m_values = 1
r_values = 1, inf
thetas = 0, 0.9
"""


def test_suite_empty_harnesses_no_artifacts(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[suite]\nharnesses =\n")
    out_dir = tmp_path / "artifacts"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    assert not out_dir.exists()


def test_suite_missing_config_file(tmp_path, capsys):
    code = main(["suite", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_suite_percent_in_value_is_config_error(tmp_path, capsys):
    # no value syntax uses "%", so configparser must not read it as interpolation
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_SUITE.replace("m_values = 1\n", "m_values = 1%\n"))
    out_dir = tmp_path / "out"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_suite_theta_out_of_range_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[suite]\nharnesses = constants\n\n"
        "[constants]\nm_values = 1\nr_values = 1\nthetas = 1.58\n"
    )
    code = main(["suite", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("section, line", [
    ("cgl", "T = inf"), ("cgl", "dt = nan"), ("identity", "tolerance = nan"),
])
def test_suite_non_finite_floats_are_config_errors(tmp_path, capsys, section, line):
    cfg = tmp_path / "bad.cfg"
    text = SMALL_SUITE.replace("harnesses = identity, constants",
                               f"harnesses = {section}")
    if section == "cgl":
        text += "\n[cgl]\ngrid = 512,32\n"
    cfg.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    out_dir = tmp_path / "out"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out_dir.exists()


VALID_SECTIONS = {
    "identity": {"grid": "512,16", "alphas": "1, 2", "omegas": "1,0.5",
                 "testfns": "gauss-wide"},
    "estimate": {"grid": "512,16", "m_values": "1", "pq_pairs": "2:1",
                 "omegas": "1,0", "testfns": "gauss-wide"},
    "constants": {"m_values": "1", "r_values": "1", "thetas": "0"},
    "kernel-norms": {"betas": "1", "r_values": "1", "thetas": "0"},
    "cgl": {"grid": "512,32", "T": "2"},
}


@pytest.mark.parametrize("section, bad, message", [
    ("identity", {"tolerance": "0"}, "tolerance must be finite and positive"),
    ("estimate", {"pq_pairs": "1:2"}, "q <= p"),
    ("estimate", {"m_values": "x"}, "bad [estimate] m_values"),
    ("constants", {"m_values": "0"}, "m_values must be >= 1"),
    ("kernel-norms", {"betas": "0"}, "|beta| must be >= 1"),
    ("cgl", {"T": "1"}, "horizon must be >= 2"),
    ("cgl", {"p": "2"}, "p > 1 + 2/n"),
    ("cgl", {"dt": "0.03", "T": "10"}, "integer multiple of dt"),
    ("cgl", {"m": "0"}, "cgl m must be >= 1"),
    ("identity", {"tolerence": "1e-30"}, "unknown key 'tolerence' in [identity]"),
    ("constants", {"m_values": "1,x"}, "bad [constants] m_values 'x'"),
    ("cgl", {"p": "x"}, "bad [cgl] p 'x'"),
    ("estimate", {"radial": "maybe"}, "bad [estimate] radial 'maybe'"),
])
def test_suite_bad_section_fails_before_any_artifact(tmp_path, capsys, section, bad,
                                                      message):
    # a valid harness runs first, so a late check would already have written it
    first = "constants" if section == "identity" else "identity"
    sections = {first: VALID_SECTIONS[first], section: {**VALID_SECTIONS[section], **bad}}
    text = f"[suite]\nharnesses = {first}, {section}\n"
    for name, keys in sections.items():
        text += f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_suite_writes_no_artifact_when_a_later_harness_fails(tmp_path, capsys):
    # the grid passes its own rule, but the test function does not fit the box,
    # which shows only when the estimate harness realises it
    sections = {"identity": VALID_SECTIONS["identity"],
                "estimate": {**VALID_SECTIONS["estimate"], "grid": "64,1"}}
    text = "[suite]\nharnesses = identity, estimate\n"
    for name, keys in sections.items():
        text += f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    cfg = tmp_path / "late.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    assert "suite harness identity: pass" in capsys.readouterr().out
    assert list(out_dir.glob("*.csv")) == []


def test_suite_cgl_blowup_writes_no_artifact(tmp_path, capsys):
    # the blow-up shows only once the cgl harness steps, after identity ran
    sections = {"identity": VALID_SECTIONS["identity"],
                "cgl": {**VALID_SECTIONS["cgl"], "lambda": "1e300,0"}}
    text = "[suite]\nharnesses = identity, cgl\n"
    for name, keys in sections.items():
        text += f"\n[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert "suite harness identity: pass" in captured.out
    assert captured.err == ("error: sup-norm guard tripped at t = 0.01: |u| exceeded "
                            "10 x its initial value (or is not finite)\n")
    assert list(out_dir.iterdir()) == []


def test_suite_runs_and_reports(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SUITE)
    out_dir = tmp_path / "run1"
    code = main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite harness identity: pass" in out
    assert "suite harness constants: pass" in out
    rows = check_csv(out_dir / "identity.csv", IDENTITY_HEADER)
    assert len(rows) == 6  # 2 alphas x 1 omega x 3 evaluator pairs
    assert all(r[-1] == "true" for r in rows)
    check_csv(out_dir / "constants.csv", "n,m,r,theta,A,A_tilde")


ESTIMATE_SECTION = """
[estimate]
dim = 1
grid = 512,16
m_values = 1, 2
pq_pairs = 2:1, inf:2
omegas = 1,0; 1,0.5
testfns = gauss-wide, mixture
"""


def test_suite_determinism_across_thread_counts(tmp_path, monkeypatch):
    # both fanned-out harnesses, with more cases than workers: the estimate
    # section gives 4 (testfn, m) cases
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SUITE.replace("harnesses = identity, constants",
                                       "harnesses = identity, estimate, constants")
                   + ESTIMATE_SECTION)
    outputs = []
    for label, threads in (("a", "1"), ("b", "2"), ("c", None)):
        if threads is None:
            monkeypatch.delenv("GW_THREADS", raising=False)
        else:
            monkeypatch.setenv("GW_THREADS", threads)
        out_dir = tmp_path / label
        assert main(["suite", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        outputs.append({
            name: (out_dir / name).read_bytes()
            for name in ("identity.csv", "estimate.csv", "constants.csv")
        })
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("pq_pairs", ["2:1", "1:1, 2:1, inf:1, 2:2, inf:inf"])
def test_estimate_fields_are_built_once_per_case_and_omega(monkeypatch, pq_pairs):
    # the commutator fields do not depend on (p, q): one run_estimate builds
    # each once per (testfn, m, omega), however many pairs the section lists
    from gwcommute import cli, estimates
    from gwcommute.multiindex import level_count

    calls = {"commutator_direct": 0, "radial_commutator": 0}

    def counted(name):
        original = getattr(estimates, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(estimates, name, counted(name))
    monkeypatch.setenv("GW_THREADS", "1")  # the counters are not locked
    sec = config.read_section("estimate", {
        "dim": "2", "grid": "64,16", "m_values": "1, 2, 3", "pq_pairs": pq_pairs,
        "omegas": "1,0; 1,0.5", "testfns": "gauss-wide, bandlimited",
        "radial": "true", "lipschitz": "false",
    })
    _, rows, ok = cli.run_estimate(sec)
    assert ok
    phis, omegas = len(sec.testfns), len(sec.omegas)
    assert calls == {
        "commutator_direct": phis * omegas * sum(level_count(2, m) for m in sec.m_values),
        "radial_commutator": phis * len(sec.m_values) * omegas,
    }
    assert len(rows) == 2 * phis * len(sec.m_values) * len(sec.pq_pairs) * omegas


# ------------------------------------------------- one reader per harness

# harness -> (config keys, the subcommand's argv with the same values): the
# keys are the required ones, plus [estimate] m_values for the required --m
REQUIRED = {
    "identity": ({"alphas": "2", "omegas": "1,0.5", "testfns": "mixture"},
                 ["verify-identity", "--alpha", "2", "--omega", "1,0.5",
                  "--testfn", "mixture"]),
    "estimate": ({"m_values": "2", "pq_pairs": "2:1", "omegas": "1,0.5",
                  "testfns": "gauss-wide"},
                 ["verify-estimate", "--m", "2", "--p", "2", "--q", "1",
                  "--omega", "1,0.5", "--testfn", "gauss-wide"]),
    "constants": ({}, ["constants"]),
    "kernel-norms": ({}, ["kernel-norms"]),
    "cgl": ({}, ["cgl", "--out", "run"]),
}


class Built(Exception):
    """Carries the section a subcommand built, before it runs."""


@pytest.mark.parametrize("harness", list(REQUIRED))
def test_subcommand_and_config_build_the_same_section(monkeypatch, harness):
    keys, argv = REQUIRED[harness]
    text = (f"[suite]\nharnesses = {harness}\n\n[{harness}]\n"
            + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    from_config = config.parse_suite_config(text).sections[harness]
    read = config.read_section

    def stop(*args):
        raise Built(read(*args))

    monkeypatch.setattr(config, "read_section", stop)
    with pytest.raises(Built) as built:
        main(argv)
    assert built.value.args[0] == from_config


@pytest.mark.parametrize("flags, flag", [
    (["verify-identity", "--alpha", "1,2", "--omega", "1,0", "--testfn", "gauss-wide"],
     "--alpha"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0;1,1", "--testfn", "gauss-wide"],
     "--omega"),
    (["verify-identity", "--alpha", "1", "--omega", "1,0",
      "--testfn", "gauss-wide,mixture"], "--testfn"),
    (["verify-estimate", "--m", "1,2", "--p", "2", "--q", "1", "--omega", "1,0",
      "--testfn", "gauss-wide"], "--m"),
    (["verify-estimate", "--m", "1", "--p", "2:1,3", "--q", "1", "--omega", "1,0",
      "--testfn", "gauss-wide"], "--p/--q"),
])
def test_single_valued_flags_take_one_value(capsys, flags, flag):
    assert main(flags) == 2
    assert f"{flag} takes one value" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["constants", "--m-list", "1,x"], "bad --m-list 'x'"),
    (["constants", "--n", "two"], "bad --n 'two'"),
    (["verify-estimate", "--dim", "x", "--m", "1", "--p", "2", "--q", "1",
      "--omega", "1,0", "--testfn", "gauss-wide"], "bad --dim 'x'"),
])
def test_bad_flag_value_names_the_flag(capsys, flags, message):
    assert main(flags) == 2
    assert message in capsys.readouterr().err


def readme_commands():
    """The gw-commute lines of README's sh blocks as argv lists: backslash
    continuations joined, [...] optional groups dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(re.sub(r"\[[^\]]*\]", "", line), comments=True)[1:]
            for line in lines if line.startswith("gw-commute ")]


def test_readme_examples_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "hermite", "verify-identity", "verify-estimate", "constants", "kernel-norms",
        "cgl", "suite"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: gw-commute {shlex.join(argv)}")


def test_gw_threads_must_be_positive_integer(monkeypatch, capsys):
    monkeypatch.setenv("GW_THREADS", "zero")
    code = main(["verify-identity", "--alpha", "1", "--omega", "1,0",
                 "--testfn", "gauss-wide"])
    assert code == 2
    assert "GW_THREADS" in capsys.readouterr().err


def test_gw_threads_is_read_only_by_the_fanned_out_harnesses(tmp_path, monkeypatch):
    monkeypatch.setenv("GW_THREADS", "zero")
    code = main(["cgl", "--T", "2", "--grid", "512,32", "--out", str(tmp_path / "g")])
    assert code == 0


def test_compute_library_does_not_load_the_config_layer():
    proc = run_fresh(
        "import sys, gwcommute.commutator, gwcommute.estimates, gwcommute.cgl; "
        "print(sorted(m for m in ('gwcommute.parallel', 'gwcommute.config', "
        "'configparser') if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_numeric_library_does_not_load_the_exact_algebra():
    # the Gaussian prefactor lives in semigroup, so the numeric modules need
    # neither the Hermite polynomials nor their Laurent coefficients
    proc = run_fresh(
        "import sys, gwcommute.grid, gwcommute.semigroup, gwcommute.commutator, "
        "gwcommute.estimates, gwcommute.cgl; "
        "print(sorted(m for m in ('gwcommute.hermite', 'gwcommute.laurent') "
        "if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_main_lets_internal_errors_propagate(monkeypatch):
    # only ConfigError and OSError mean bad input; anything else is a bug
    import gwcommute.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "run_constants", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["constants"])


# ------------------------------------------------------------- console script

def declared_console_script(name):
    """The ``module:attr`` target of ``name`` in ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        scripts = tomllib.load(handle)["project"].get("scripts", {})
    assert name in scripts, f"{name} is not declared in [project.scripts]"
    return scripts[name]


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports ``gwcommute`` from
    where these tests imported it."""
    package_root = str(Path(gwcommute.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def run_console_script(target, *args):
    """Run ``target`` the way a pip-generated wrapper does."""
    module, attr = target.split(":")
    return run_fresh(f"import sys; from {module} import {attr}; sys.exit({attr}())", *args)


def test_console_script_entry_point():
    target = declared_console_script("gw-commute")
    assert pkgutil.resolve_name(target) is main

    proc = run_console_script(target, "hermite", "--alpha", "1.1")
    assert proc.returncode == 0
    assert proc.stdout == "1.1\t1*w^-2\n"

    # main's return code must reach the exit status, not just its output
    proc = run_console_script(target, "hermite", "--alpha", "2.x")
    assert proc.returncode == 2
    assert "multi-index" in proc.stderr


@pytest.mark.skipif(shutil.which("gw-commute") is None,
                    reason="gw-commute is not installed")
def test_installed_console_script():
    proc = subprocess.run(["gw-commute", "hermite", "--alpha", "1.1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1.1\t1*w^-2\n"
