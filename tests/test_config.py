"""Suite-config parsing: value syntax, validation, and the packaged default."""
import math

import pytest
from importlib import resources

from gwcommute.config import (
    ConfigError,
    check_omega,
    check_theta,
    parse_complex,
    parse_exponent,
    parse_finite,
    parse_grid,
    parse_multiindex,
    parse_suite_config,
)
from gwcommute.multiindex import MultiIndex


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


def test_check_theta():
    assert check_theta(1.2) == 1.2
    assert check_theta(-1.5) == -1.5
    # pi/2 is excluded: the estimate constants blow up as cos(theta) -> 0.
    for theta in (1.58, -1.58, math.pi / 2.0):
        with pytest.raises(ConfigError):
            check_theta(theta)


def test_check_omega():
    assert check_omega(complex(0.5, -3.0)) == complex(0.5, -3.0)
    for omega in (complex(0, 1), complex(-1, 0), complex(math.nan, 0),
                  complex(1, math.nan), complex(math.inf, 0), complex(1, -math.inf)):
        with pytest.raises(ConfigError):
            check_omega(omega)


# ------------------------------------------------------------- packaged default

def test_default_config_parses():
    text = (
        resources.files("gwcommute").joinpath("data/default_suite.cfg").read_text()
    )
    cfg = parse_suite_config(text)
    assert cfg.harnesses == ("identity", "estimate", "constants", "kernel-norms", "cgl")
    assert cfg.seed == 0
    assert cfg.raw_text == text

    ident = cfg.identity
    assert ident is not None
    assert (ident.dim, ident.points, ident.half_width) == (1, 512, 16.0)
    assert ident.alphas == (MultiIndex((1,)), MultiIndex((2,)), MultiIndex((3,)))
    assert ident.omegas == (complex(1, 0), complex(1, 0.99))
    assert ident.testfns == ("gauss-wide", "mixture", "bandlimited")
    assert ident.tolerance == 1e-6

    est = cfg.estimate
    assert est is not None
    assert est.m_values == (1, 2)
    assert est.pq_pairs == ((1.0, 1.0), (2.0, 1.0), (math.inf, 1.0),
                            (2.0, 2.0), (math.inf, math.inf))
    assert est.radial and est.lipschitz

    consts = cfg.constants
    assert consts is not None
    assert consts.r_values == (1.0, 2.0, math.inf)
    assert consts.thetas == (0.0, 0.3, 0.6, 0.9, 1.2)

    kn = cfg.kernel_norms
    assert kn is not None
    assert kn.betas == (MultiIndex((1,)), MultiIndex((2,)))

    cgl = cfg.cgl
    assert cgl is not None
    assert cgl.nu == complex(1, 0)
    assert cgl.lam == complex(-1, 0)
    assert (cgl.p_exponent, cgl.eps, cgl.sigma) == (4.0, 0.01, 1.0)
    assert (cgl.horizon, cgl.dt, cgl.m, cgl.q) == (10.0, 0.01, 1, 1.0)
    assert (cgl.points, cgl.half_width) == (2048, 64.0)


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
    assert cfg.harnesses == ("identity",)
    assert cfg.estimate is None and cfg.cgl is None
    assert cfg.identity.tolerance == 1e-6  # default


def test_empty_harnesses_is_valid():
    cfg = parse_suite_config("[suite]\nharnesses =\n")
    assert cfg.harnesses == ()
    assert cfg.identity is None


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
    with pytest.raises(ConfigError, match="seed"):
        parse_suite_config("[suite]\nharnesses =\nseed = pi\n")


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
    est = parse_suite_config(ESTIMATE).estimate
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_identity_rejects_non_finite_tolerance(value):
    text = MINIMAL + f"tolerance = {value}\n"
    with pytest.raises(ConfigError, match="tolerance must be finite"):
        parse_suite_config(text)


def test_config_parse_error_wrapped():
    with pytest.raises(ConfigError, match="parse error"):
        parse_suite_config("not an ini file [ suite")
