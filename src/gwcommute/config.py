"""Suite configuration: INI-style sections, strict validation.

Value syntax inside a section:
    complex numbers      RE,IM            (same as the CLI flags)
    lists of complexes   items joined by ";"
    multi-indices        dot-separated, e.g. "2.1"; lists joined by ","
    exponents            numbers or "inf"; pairs "p:q" joined by ","

The parsers turn strings into values; the section types check, on
construction, that the values make a valid harness input, whether the suite
config or a CLI subcommand built them.  Both raise ConfigError (exit code 2).

Each rule the library shares is defined once, next to the object it checks
(grid.check_grid, grid.check_exponent, semigroup.check_omega,
semigroup.check_theta, cgl.check_run); this module calls it and turns its
ValueError into a ConfigError through as_config_error().  The rules kept here
are the harnesses' own: non-empty lists, |alpha| >= 1, m >= 1, tolerance > 0.
"""
from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .catalog import DEFAULT_CATALOG, GaussianComponent
from .grid import check_exponent, check_grid
from .multiindex import MultiIndex
from .semigroup import check_omega, check_oracle_grid, check_theta


class ConfigError(Exception):
    pass


@contextmanager
def as_config_error():
    """Re-raise a library ValueError about an input as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"complex value must be RE,IM, got {text!r}")
    return complex(*(parse_finite(part, "complex value") for part in parts))


def parse_finite(value, name: str) -> float:
    """A finite float from a string or a number; the error names the value."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"bad {name} {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def parse_int(value, name: str) -> int:
    """An integer from a string or an int; the error names the value."""
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"bad {name} {value!r}")


def parse_exponent(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"bad exponent {text.strip()!r}")
    with as_config_error():
        return check_exponent(value)


def parse_multiindex(text: str) -> MultiIndex:
    try:
        return MultiIndex.from_str(text.strip())
    except ValueError:
        raise ConfigError(f"bad multi-index {text!r}")


def parse_list(text: str, parse, sep: str = ",") -> tuple:
    """The items of text between separators, blanks skipped, each parsed."""
    return tuple(parse(part.strip()) for part in text.split(sep) if part.strip())


def parse_thetas(text: str) -> tuple[float, ...]:
    """Comma-separated angles; the sections check that |theta| < pi/2."""
    return parse_list(text, lambda v: parse_finite(v, "theta"))


def parse_grid(text: str) -> tuple[int, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"grid must be N,L; got {text!r}")
    points = parse_int(parts[0], "grid points")
    half_width = parse_finite(parts[1], "grid half-width")
    with as_config_error():
        check_grid(1, points, half_width)
    return points, half_width


# Section invariants: the paper's objects exist for |alpha| = m >= 1,
# re omega > 0, q <= p and |theta| < pi/2.

def _check_each(check, values) -> None:
    """Apply a library rule to every value; its ValueError becomes a ConfigError."""
    with as_config_error():
        for value in values:
            check(value)


def _check_filled(section: str, **lists) -> None:
    for key, values in lists.items():
        if not values:
            raise ConfigError(f"[{section}] needs at least one of {key}")


def _check_positive(name: str, values) -> None:
    for m in values:
        if m < 1:
            raise ConfigError(f"{name} must be >= 1, got {m}")


def _check_inputs(dim: int, omegas, testfns) -> None:
    """The checks the identity and estimate sections share."""
    _check_positive("dim", [dim])
    _check_each(check_omega, omegas)
    for name in testfns:
        if name not in DEFAULT_CATALOG:
            known = ", ".join(sorted(DEFAULT_CATALOG))
            raise ConfigError(f"unknown test function {name!r}; catalog has: {known}")


@dataclass(frozen=True)
class IdentitySection:
    dim: int
    points: int
    half_width: float
    alphas: tuple[MultiIndex, ...]
    omegas: tuple[complex, ...]
    testfns: tuple[str, ...]
    tolerance: float = 1e-6

    def __post_init__(self):
        _check_filled("identity", alphas=self.alphas, omegas=self.omegas,
                      testfns=self.testfns)
        _check_inputs(self.dim, self.omegas, self.testfns)
        for alpha in self.alphas:
            if alpha.dim != self.dim:
                raise ConfigError(f"alpha {alpha.to_str()} does not match dim {self.dim}")
        _check_positive("|alpha|", [alpha.order for alpha in self.alphas])
        with as_config_error():
            check_oracle_grid(self.dim, self.points)
        if not 0.0 < self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass(frozen=True)
class EstimateSection:
    dim: int
    points: int
    half_width: float
    m_values: tuple[int, ...]
    pq_pairs: tuple[tuple[float, float], ...]
    omegas: tuple[complex, ...]
    testfns: tuple[str, ...]
    radial: bool = True
    lipschitz: bool = True

    def __post_init__(self):
        from .estimates import ExponentTriple

        _check_filled("estimate", m_values=self.m_values, pq_pairs=self.pq_pairs,
                      omegas=self.omegas, testfns=self.testfns)
        _check_inputs(self.dim, self.omegas, self.testfns)
        _check_positive("estimate m_values", self.m_values)
        for p, q in self.pq_pairs:
            with as_config_error():
                ExponentTriple(p, q)


@dataclass(frozen=True)
class ConstantsSection:
    dim: int
    m_values: tuple[int, ...]
    r_values: tuple[float, ...]
    thetas: tuple[float, ...]

    def __post_init__(self):
        _check_positive("dim", [self.dim])
        _check_filled("constants", m_values=self.m_values, r_values=self.r_values,
                      thetas=self.thetas)
        _check_positive("constants m_values", self.m_values)
        _check_each(check_exponent, self.r_values)
        _check_each(check_theta, self.thetas)


@dataclass(frozen=True)
class KernelNormsSection:
    points: int
    half_width: float
    betas: tuple[MultiIndex, ...]
    r_values: tuple[float, ...]
    thetas: tuple[float, ...]

    def __post_init__(self):
        _check_filled("kernel-norms", betas=self.betas, r_values=self.r_values,
                      thetas=self.thetas)
        _check_positive("kernel |beta|", [beta.order for beta in self.betas])
        _check_each(check_exponent, self.r_values)
        _check_each(check_theta, self.thetas)


@dataclass(frozen=True)
class CGLSection:
    nu: complex
    lam: complex
    p_exponent: float
    eps: float
    sigma: float
    horizon: float
    dt: float
    m: int
    q: float
    points: int
    half_width: float

    def __post_init__(self):
        from .cgl import check_run, step_count

        with as_config_error():
            check_run(self.nu, self.p_exponent, 1, self.dt, self.horizon)  # a 1-d run
            if not self.horizon >= 2.0:
                raise ConfigError("cgl horizon must be >= 2 (probes anchor at t = 1)")
            step_count(self.horizon, self.dt)
            GaussianComponent(sigma=self.sigma, amplitude=self.eps)
        _check_positive("cgl m", [self.m])


@dataclass(frozen=True)
class SuiteConfig:
    harnesses: tuple[str, ...]
    seed: int
    raw_text: str = field(repr=False)
    identity: IdentitySection | None = None
    estimate: EstimateSection | None = None
    constants: ConstantsSection | None = None
    kernel_norms: KernelNormsSection | None = None
    cgl: CGLSection | None = None


def _grid(sec, default: str = "512,16") -> dict:
    points, half_width = parse_grid(sec.get("grid", default))
    return {"points": points, "half_width": half_width}


def _ints(sec, key: str, default: str) -> tuple[int, ...]:
    return parse_list(sec.get(key, default), lambda v: parse_int(v, f"[{sec.name}] {key}"))


def _pq_pair(chunk: str) -> tuple[float, float]:
    parts = chunk.split(":")
    if len(parts) != 2:
        raise ConfigError(f"pq pair must be p:q, got {chunk!r}")
    return parse_exponent(parts[0]), parse_exponent(parts[1])


def _identity(sec) -> IdentitySection:
    return IdentitySection(
        dim=parse_int(sec.get("dim", "1"), f"[{sec.name}] dim"),
        **_grid(sec),
        alphas=parse_list(sec.get("alphas", ""), parse_multiindex),
        omegas=parse_list(sec.get("omegas", ""), parse_complex, ";"),
        testfns=parse_list(sec.get("testfns", ""), str),
        tolerance=parse_finite(sec.get("tolerance", "1e-6"), "[identity] tolerance"),
    )


def _estimate(sec) -> EstimateSection:
    with as_config_error():  # configparser's "Not a boolean"
        radial = sec.getboolean("radial", True)
        lipschitz = sec.getboolean("lipschitz", True)
    return EstimateSection(
        dim=parse_int(sec.get("dim", "1"), f"[{sec.name}] dim"),
        **_grid(sec),
        m_values=_ints(sec, "m_values", "1"),
        pq_pairs=parse_list(sec.get("pq_pairs", ""), _pq_pair),
        omegas=parse_list(sec.get("omegas", ""), parse_complex, ";"),
        testfns=parse_list(sec.get("testfns", ""), str),
        radial=radial,
        lipschitz=lipschitz,
    )


def _constants(sec) -> ConstantsSection:
    return ConstantsSection(
        dim=parse_int(sec.get("dim", "1"), f"[{sec.name}] dim"),
        m_values=_ints(sec, "m_values", "1,2"),
        r_values=parse_list(sec.get("r_values", "1,2,inf"), parse_exponent),
        thetas=parse_thetas(sec.get("thetas", "0")),
    )


def _kernel_norms(sec) -> KernelNormsSection:
    return KernelNormsSection(
        **_grid(sec),
        betas=parse_list(sec.get("betas", "1"), parse_multiindex),
        r_values=parse_list(sec.get("r_values", "1"), parse_exponent),
        thetas=parse_thetas(sec.get("thetas", "0")),
    )


def _cgl(sec) -> CGLSection:
    def finite(key: str, default: str) -> float:
        return parse_finite(sec.get(key, default), f"[cgl] {key}")

    return CGLSection(
        nu=parse_complex(sec.get("nu", "1,0")),
        lam=parse_complex(sec.get("lambda", "-1,0")),
        p_exponent=finite("p", "4"),
        eps=finite("eps", "0.01"),
        sigma=finite("sigma", "1.0"),
        horizon=finite("T", "10"),
        dt=finite("dt", "0.01"),
        m=parse_int(sec.get("m", "1"), "[cgl] m"),
        q=parse_exponent(sec.get("q", "1")),
        **_grid(sec, "2048,64"),
    )


_SECTIONS = {"identity": _identity, "estimate": _estimate, "constants": _constants,
             "kernel-norms": _kernel_norms, "cgl": _cgl}


def parse_suite_config(text: str) -> SuiteConfig:
    parser = configparser.ConfigParser(interpolation=None)  # no value syntax uses "%"
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    if not parser.has_section("suite"):
        raise ConfigError("missing [suite] section")
    suite = parser["suite"]
    harnesses = parse_list(suite.get("harnesses", ""), str)
    for name in harnesses:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown harness {name!r}; choose from {', '.join(_SECTIONS)}")
        if not parser.has_section(name):
            raise ConfigError(f"harness {name!r} requested but section missing")
    seed = parse_int(suite.get("seed", "0"), "suite.seed")
    sections = {name.replace("-", "_"): build(parser[name])
                for name, build in _SECTIONS.items() if name in harnesses}
    return SuiteConfig(harnesses=harnesses, seed=seed, raw_text=text, **sections)
