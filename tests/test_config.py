"""Suite-config parsing: value syntax, validation, and the packaged default."""
import dataclasses
import importlib
import math
import re
from pathlib import Path

import numpy as np

import pytest
from importlib import resources

from gwcommute.catalog import GaussianComponent, TestFunctionSpec, mollified_weight
from gwcommute.cgl import CGLConfig
from gwcommute.config import (
    ConfigError,
    ConstantsSection,
    as_config_error,
    parse_complex,
    parse_exponent,
    parse_finite,
    parse_grid,
    parse_multiindex,
    parse_suite_config,
)
from gwcommute.estimates import ExponentTriple, constant_A
from gwcommute.grid import GridFunction, lp_norm
from gwcommute.multiindex import MultiIndex
from gwcommute.semigroup import check_omega, check_theta, convolve_weighted_kernel


# ---------------------------------------------------------------- value syntax

def test_parse_complex():
    assert parse_complex("1,0.5") == complex(1.0, 0.5)
    assert parse_complex(" -2 , 0 ") == complex(-2.0, 0.0)


@pytest.mark.parametrize("text", ["1", "1,2,3", "a,b", "1,", "inf,0", "0,nan", "nan,nan"])
def test_parse_complex_rejects(text):
    with pytest.raises(ConfigError):
        parse_complex(text)


def test_parse_exponent():
    assert parse_exponent("1") == 1.0
    assert parse_exponent("2.5") == 2.5
    assert parse_exponent(" inf ") == math.inf


@pytest.mark.parametrize("text", ["0.5", "0", "-1", "one", "nan", " NaN "])
def test_parse_exponent_rejects(text):
    with pytest.raises(ConfigError):
        parse_exponent(text)


def test_parse_finite():
    assert parse_finite("0.25", "dt") == 0.25
    assert parse_finite(-3, "p") == -3.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", " NaN ", float("inf"),
                                   float("nan"), "tiny", ""])
def test_parse_finite_rejects(value):
    with pytest.raises(ConfigError, match="dt"):
        parse_finite(value, "dt")


def test_parse_multiindex():
    assert parse_multiindex("2.1") == MultiIndex((2, 1))
    assert parse_multiindex(" 3 ") == MultiIndex((3,))
    with pytest.raises(ConfigError):
        parse_multiindex("2.x")


def test_parse_grid():
    assert parse_grid("512,16") == (512, 16.0)
    assert parse_grid("8,0.5") == (8, 0.5)


@pytest.mark.parametrize("text", ["512", "100,16", "4,16", "512,0", "512,-2", "a,16",
                                  "64,nan", "64,inf", "nan,16"])
def test_parse_grid_rejects(text):
    with pytest.raises(ConfigError):
        parse_grid(text)


def test_check_omega():
    # The config applies the library's omega rule and reports a ConfigError.
    with as_config_error():
        assert check_omega(complex(0.5, -3.0)) == complex(0.5, -3.0)
    for omega in (complex(0, 1), complex(-1, 0), complex(math.nan, 0),
                  complex(1, math.nan), complex(math.inf, 0), complex(1, -math.inf)):
        with pytest.raises(ConfigError):
            with as_config_error():
                check_omega(omega)


# ------------------------------------------------------------- packaged default

def test_default_config_parses():
    text = (
        resources.files("gwcommute").joinpath("data/default_suite.cfg").read_text()
    )
    cfg = parse_suite_config(text)
    assert tuple(cfg.sections) == ("identity", "estimate", "constants", "kernel-norms", "cgl")
    assert cfg.seed == 0
    assert cfg.raw_text == text

    ident = cfg.sections["identity"]
    assert (ident.dim, ident.points, ident.half_width) == (1, 512, 16.0)
    assert ident.alphas == (MultiIndex((1,)), MultiIndex((2,)), MultiIndex((3,)))
    assert ident.omegas == (complex(1, 0), complex(1, 0.99))
    assert ident.testfns == ("gauss-wide", "mixture", "bandlimited")
    assert ident.tolerance == 1e-6

    est = cfg.sections["estimate"]
    assert est.m_values == (1, 2)
    assert est.pq_pairs == ((1.0, 1.0), (2.0, 1.0), (math.inf, 1.0),
                            (2.0, 2.0), (math.inf, math.inf))
    assert est.radial and est.lipschitz

    consts = cfg.sections["constants"]
    assert consts.r_values == (1.0, 2.0, math.inf)
    assert consts.thetas == (0.0, 0.3, 0.6, 0.9, 1.2)

    kn = cfg.sections["kernel-norms"]
    assert kn.betas == (MultiIndex((1,)), MultiIndex((2,)))

    cgl = cfg.sections["cgl"]
    assert cgl.nu == complex(1, 0)
    assert cgl.lam == complex(-1, 0)
    assert (cgl.p_exponent, cgl.eps, cgl.sigma) == (4.0, 0.01, 1.0)
    assert (cgl.horizon, cgl.dt, cgl.m, cgl.q) == (10.0, 0.01, 1, 1.0)
    assert (cgl.points, cgl.half_width) == (2048, 64.0)


@pytest.mark.parametrize("path", [
    "src/gwcommute/data/default_suite.cfg", "benchmarks/estimate_suite.cfg",
])
def test_shipped_configs_parse(path):
    # every key in them is one the table lists
    text = (Path(__file__).resolve().parents[1] / path).read_text()
    assert parse_suite_config(text).sections


# ----------------------------------------------------------------- validation

MINIMAL = """
[suite]
harnesses = identity
seed = 7

[identity]
dim = 1
grid = 512,16
alphas = 1
omegas = 1,0
testfns = gauss-wide
"""


def test_minimal_identity_config():
    cfg = parse_suite_config(MINIMAL)
    assert cfg.seed == 7
    assert list(cfg.sections) == ["identity"]
    assert cfg.sections["identity"].tolerance == 1e-6  # default


def test_empty_harnesses_is_valid():
    cfg = parse_suite_config("[suite]\nharnesses =\n")
    assert cfg.sections == {}


def test_missing_suite_section():
    with pytest.raises(ConfigError, match=r"\[suite\]"):
        parse_suite_config("[identity]\ndim = 1\n")


def test_unknown_harness():
    with pytest.raises(ConfigError, match="unknown harness"):
        parse_suite_config("[suite]\nharnesses = spectra\n")


def test_harness_without_section():
    with pytest.raises(ConfigError, match="section missing"):
        parse_suite_config("[suite]\nharnesses = identity\n")


def test_bad_seed():
    for value, message in [("pi", "bad [suite] seed 'pi'"),
                           ("-30000000", "[suite] seed must be >= 0, got -30000000")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_suite_config(f"[suite]\nharnesses =\nseed = {value}\n")


@pytest.mark.parametrize("text, message", [
    (MINIMAL + "tolerence = 1e-30\n", "unknown key 'tolerence' in [identity]"),
    (MINIMAL.replace("seed = 7", "sede = 5"), "unknown key 'sede' in [suite]"),
], ids=["identity-tolerence", "suite-sede"])
def test_unknown_key_is_rejected(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_suite_config(text)


def test_keys_match_case_insensitively():
    cfg = parse_suite_config("[suite]\nharnesses = cgl\n\n[cgl]\nt = 2\nGRID = 512,32\n")
    assert (cfg.sections["cgl"].horizon, cfg.sections["cgl"].points) == (2.0, 512)


def test_harness_listed_twice():
    text = MINIMAL.replace("harnesses = identity", "harnesses = identity, identity")
    with pytest.raises(ConfigError, match="listed twice"):
        parse_suite_config(text)


def test_identity_dim_defaults_to_the_alphas():
    text = (MINIMAL.replace("dim = 1\n", "").replace("grid = 512,16", "grid = 64,16")
            .replace("alphas = 1", "alphas = 1.1"))
    assert parse_suite_config(text).sections["identity"].dim == 2


def test_unknown_testfn_lists_catalog():
    text = MINIMAL.replace("testfns = gauss-wide", "testfns = gauss-tall")
    with pytest.raises(ConfigError, match="gauss-narrow"):
        parse_suite_config(text)


def test_identity_alpha_dim_mismatch():
    text = MINIMAL.replace("alphas = 1", "alphas = 1.1")
    with pytest.raises(ConfigError, match="does not match dim"):
        parse_suite_config(text)


def test_identity_alpha_order_zero():
    text = MINIMAL.replace("alphas = 1", "alphas = 0")
    with pytest.raises(ConfigError, match="alpha"):
        parse_suite_config(text)


def test_identity_requires_fields():
    text = MINIMAL.replace("omegas = 1,0", "omegas =")
    with pytest.raises(ConfigError, match="identity"):
        parse_suite_config(text)


def test_identity_rejects_bad_omega():
    text = MINIMAL.replace("omegas = 1,0", "omegas = -1,0")
    with pytest.raises(ConfigError, match="positive real part"):
        parse_suite_config(text)


ESTIMATE = """
[suite]
harnesses = estimate

[estimate]
dim = 1
grid = 512,16
m_values = 1
pq_pairs = 2:1
omegas = 1,0
testfns = gauss-wide
"""


def test_estimate_section_parses():
    est = parse_suite_config(ESTIMATE).sections["estimate"]
    assert est.pq_pairs == ((2.0, 1.0),)
    assert est.m_values == (1,)


def test_estimate_rejects_malformed_pq():
    text = ESTIMATE.replace("pq_pairs = 2:1", "pq_pairs = 2")
    with pytest.raises(ConfigError, match="p:q"):
        parse_suite_config(text)


def test_estimate_rejects_nonpositive_m():
    text = ESTIMATE.replace("m_values = 1", "m_values = 0")
    with pytest.raises(ConfigError, match="m_values"):
        parse_suite_config(text)


def test_constants_rejects_theta_at_branch_edge():
    text = (
        "[suite]\nharnesses = constants\n\n"
        "[constants]\nm_values = 1\nr_values = 1\nthetas = 1.58\n"
    )
    with pytest.raises(ConfigError, match="theta"):
        parse_suite_config(text)


def test_kernel_norms_rejects_bad_grid():
    text = (
        "[suite]\nharnesses = kernel-norms\n\n"
        "[kernel-norms]\ngrid = 300,16\nbetas = 1\nr_values = 1\nthetas = 0\n"
    )
    with pytest.raises(ConfigError, match="power of two"):
        parse_suite_config(text)


def test_cgl_rejects_bad_literal():
    text = "[suite]\nharnesses = cgl\n\n[cgl]\neps = tiny\n"
    with pytest.raises(ConfigError, match="cgl"):
        parse_suite_config(text)


@pytest.mark.parametrize("key", ["p", "eps", "sigma", "T", "dt"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cgl_rejects_non_finite(key, value):
    text = f"[suite]\nharnesses = cgl\n\n[cgl]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"\[cgl\] {key} must be finite"):
        parse_suite_config(text)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_identity_rejects_non_finite_tolerance(value):
    text = MINIMAL + f"tolerance = {value}\n"
    with pytest.raises(ConfigError, match="tolerance must be finite"):
        parse_suite_config(text)


@pytest.mark.parametrize("section, changes, match", [
    ("identity", {"dim": 0}, "dim must be >= 1"),
    ("identity", {"alphas": ()}, "alphas"),
    ("identity", {"alphas": (MultiIndex((1, 1)),)}, "does not match dim"),
    ("identity", {"alphas": (MultiIndex((0,)),)}, "alpha"),
    ("identity", {"omegas": (complex(0, 1),)}, "positive real part"),
    ("identity", {"testfns": ("gauss-tall",)}, "catalog"),
    ("identity", {"points": 1024}, "quadrature oracle"),
    ("identity", {"tolerance": 0.0}, "tolerance must be finite and positive"),
    ("estimate", {"testfns": ()}, "testfns"),
    ("estimate", {"m_values": (1, 0)}, "m_values must be >= 1"),
    ("estimate", {"pq_pairs": ((1.0, 2.0),)}, "q <= p"),
    ("constants", {"dim": 0}, "dim must be >= 1"),
    ("constants", {"m_values": (0,)}, "m_values must be >= 1"),
    ("constants", {"thetas": (1.58,)}, "theta"),
    ("kernel_norms", {"betas": (MultiIndex((0,)),)}, "beta"),
    ("kernel_norms", {"thetas": ()}, "thetas"),
    ("cgl", {"nu": complex(-1, 0)}, "positive real part"),
    ("cgl", {"m": 0}, "cgl m must be >= 1"),
    ("cgl", {"dt": 0.0}, "dt must be finite"),
    ("cgl", {"horizon": 1.5}, "horizon must be >= 2"),
    ("cgl", {"dt": 0.03}, "integer multiple of dt"),
    ("cgl", {"p_exponent": 3.0}, "p > 1"),
    ("cgl", {"sigma": 0.0}, "sigma must be finite"),
    ("constants", {"r_values": (0.5,)}, "exponent must lie in"),
    ("kernel_norms", {"r_values": (math.nan,)}, "exponent must lie in"),
    ("identity", {"points": 12}, "power of two"),
    ("estimate", {"half_width": 0.0}, "half-width must be finite and positive"),
    ("kernel_norms", {"points": 12}, "power of two"),
    ("kernel_norms", {"half_width": math.inf}, "half-width must be finite and positive"),
    ("cgl", {"half_width": math.nan}, "half-width must be finite and positive"),
    ("cgl", {"points": 4}, "power of two"),
])
def test_sections_check_their_invariants(section, changes, match):
    # the same rules hold whether the suite config or a subcommand builds a section
    text = resources.files("gwcommute").joinpath("data/default_suite.cfg").read_text()
    valid = parse_suite_config(text).sections[section.replace("_", "-")]
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(valid, **changes)


def test_config_parse_error_wrapped():
    with pytest.raises(ConfigError, match="parse error"):
        parse_suite_config("not an ini file [ suite")


# ------------------------------------- one rule, library and config agree
# Each input rule has one definition in the library and the config boundary
# calls it, so a value the library rejects with ValueError, the config rejects
# with ConfigError (exit code 2).

def default_section(name):
    text = resources.files("gwcommute").joinpath("data/default_suite.cfg").read_text()
    return parse_suite_config(text).sections[name]


@pytest.mark.parametrize("points, half_width", [
    (8, math.nan), (8, math.inf), (8, 0.0), (8, -2.0), (12, 2.0),
])
def test_grid_rule_library_and_config_agree(points, half_width):
    with pytest.raises(ValueError):
        GridFunction(1, points, half_width, np.zeros(points))
    with pytest.raises(ConfigError):
        parse_grid(f"{points},{half_width}")


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_exponent_rule_library_and_config_agree(p):
    phi = GridFunction(1, 8, 2.0, np.ones(8))
    with pytest.raises(ValueError):
        lp_norm(phi, p)
    with pytest.raises(ValueError):
        ExponentTriple(p, 1.0)
    with pytest.raises(ValueError):
        constant_A(1, 1, p, 0.0)
    with pytest.raises(ConfigError):
        parse_exponent(str(p))


@pytest.mark.parametrize("omega", [
    complex(math.nan, 0), complex(1, math.inf), complex(0, 1), complex(-1, 0),
])
def test_omega_rule_library_and_config_agree(omega):
    phi = GridFunction(1, 8, 2.0, np.ones(8))
    with pytest.raises(ValueError):
        check_omega(omega)
    with pytest.raises(ValueError):
        convolve_weighted_kernel(MultiIndex((1,)), omega, phi)
    with pytest.raises(ConfigError):
        dataclasses.replace(default_section("identity"), omegas=(omega,))


@pytest.mark.parametrize("changes", [
    {"nu": complex(math.nan, 0)}, {"nu": complex(1, math.inf)}, {"nu": complex(-1, 0)},
    {"dt": math.inf}, {"dt": math.nan}, {"dt": 0.0}, {"horizon": math.nan},
], ids=["nu=nan", "nu=1+inf*j", "nu=-1", "dt=inf", "dt=nan", "dt=0", "horizon=nan"])
def test_cgl_rule_library_and_config_agree(changes):
    run = dict(nu=complex(1, 0), lam=complex(-1, 0), p_exponent=4.0, dt=0.01, horizon=2.0)
    with pytest.raises(ValueError):
        CGLConfig(u0=GridFunction(1, 8, 2.0, np.zeros(8)), **{**run, **changes})
    with pytest.raises(ConfigError):
        dataclasses.replace(default_section("cgl"), **changes)


_U0 = GridFunction(1, 8, 2.0, np.zeros(8))
_RUN = dict(nu=complex(1, 0), lam=complex(-1, 0), p_exponent=4.0, dt=0.01, horizon=2.0)
# The seven scales, each built with one bad value; the key is the name the
# scale rule's message carries.
SCALE_ENTRIES = {
    "grid half-width": lambda v: GridFunction(1, 8, v, np.zeros(8)),
    "cgl dt": lambda v: CGLConfig(u0=_U0, **{**_RUN, "dt": v}),
    "cgl horizon": lambda v: CGLConfig(u0=_U0, **{**_RUN, "horizon": v}),
    "tolerance": lambda v: dataclasses.replace(default_section("identity"), tolerance=v),
    "sigma": lambda v: GaussianComponent(sigma=v),
    "envelope sigma": lambda v: TestFunctionSpec(id="x", kind="bandlimited", cutoff=1,
                                                 envelope_sigma=v),
    "eps": lambda v: mollified_weight(1, v, 1, 8, 2.0),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(SCALE_ENTRIES))
def test_scale_rule_at_every_entry(name, value):
    error = ConfigError if name == "tolerance" else ValueError
    with pytest.raises(error) as info:
        SCALE_ENTRIES[name](value)
    assert str(info.value) == f"{name} must be finite and positive, got {value!r}"


def test_readme_input_rules_name_live_functions():
    # README's rules table names each rule as `module.name`; a rule that
    # moves or is renamed without the table fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Input rules\n", 1)[1].split("\n#", 1)[0]
    names = set(re.findall(r"`([a-z]+)\.([A-Za-z_]\w*)`", section))
    assert len(names) >= 12, sorted(names)
    missing = [f"{module}.{attr}" for module, attr in sorted(names)
               if not hasattr(importlib.import_module(f"gwcommute.{module}"), attr)]
    assert not missing


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2, math.nan])
def test_theta_rule_library_and_config_agree(theta):
    with pytest.raises(ValueError):
        check_theta(theta)
    with pytest.raises(ValueError):
        constant_A(1, 1, 1.0, theta)
    with pytest.raises(ConfigError):
        ConstantsSection(dim=1, m_values=(1,), r_values=(1.0,), thetas=(theta,))
