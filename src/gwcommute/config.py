"""Harness inputs: one reader per section, strict validation.

DEFAULTS lists every key of every section with its default.  The suite config
and the CLI subcommands both build a section through read_section(name,
given): the given strings (a config section, or a subcommand's flags under the
same key names) are merged over the defaults, a key the table does not list is
an input error, and the harness's reader parses the strings into its section.
So a key left out of a config section takes the subcommand's default.

Value syntax:
    complex numbers      RE,IM            (same as the CLI flags)
    lists of complexes   items joined by ";"
    multi-indices        dot-separated, e.g. "2.1"; lists joined by ","
    exponents            numbers or "inf"; pairs "p:q" joined by ","
    booleans             true/false (also yes/no, on/off, 1/0)

The parsers turn strings into values; the section types check, on
construction, that the values make a valid harness input.  Both raise
ConfigError (exit code 2).

Each rule the library shares is defined once, next to the object it checks
(grid.check_grid, grid.check_exponent, grid.check_positive,
multiindex.check_order, multiindex.check_index, semigroup.check_omega,
semigroup.check_theta, cgl.check_run, catalog.get_entry); this module calls
it and turns its ValueError into a ConfigError through as_config_error(), or
get_entry's KeyError into one with the same message.  The harnesses' own
rules are kept here: non-empty lists, a CGL horizon >= 2 and a suite
seed >= 0.
"""
from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .catalog import GaussianComponent, get_entry
from .cgl import check_run
from .commutator import IDENTITY_TOL
from .estimates import ExponentTriple
from .grid import check_exponent, check_grid, check_positive
from .multiindex import MultiIndex, check_index, check_order
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


def parse_bool(text: str, name: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"bad {name} {text!r}; use true or false")


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


def _check_orders(name: str, values) -> None:
    _check_each(lambda value: check_order(value, name), values)


def _check_inputs(sec) -> None:
    """The checks the identity and estimate sections share."""
    with as_config_error():
        check_grid(sec.dim, sec.points, sec.half_width)
    _check_each(check_omega, sec.omegas)
    for name in sec.testfns:
        try:
            get_entry(name)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc


@dataclass(frozen=True)
class IdentitySection:
    dim: int
    points: int
    half_width: float
    alphas: tuple[MultiIndex, ...]
    omegas: tuple[complex, ...]
    testfns: tuple[str, ...]
    tolerance: float

    def __post_init__(self):
        _check_filled("identity", alphas=self.alphas, omegas=self.omegas,
                      testfns=self.testfns)
        _check_inputs(self)
        _check_each(lambda alpha: check_index(alpha, self.dim), self.alphas)
        _check_orders("|alpha|", [alpha.order for alpha in self.alphas])
        with as_config_error():
            check_oracle_grid(self.dim, self.points)
            check_positive(self.tolerance, "tolerance")


@dataclass(frozen=True)
class EstimateSection:
    dim: int
    points: int
    half_width: float
    m_values: tuple[int, ...]
    pq_pairs: tuple[tuple[float, float], ...]
    omegas: tuple[complex, ...]
    testfns: tuple[str, ...]
    radial: bool
    lipschitz: bool

    def __post_init__(self):
        _check_filled("estimate", m_values=self.m_values, pq_pairs=self.pq_pairs,
                      omegas=self.omegas, testfns=self.testfns)
        _check_inputs(self)
        _check_orders("estimate m_values", self.m_values)
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
        _check_orders("dim", [self.dim])
        _check_filled("constants", m_values=self.m_values, r_values=self.r_values,
                      thetas=self.thetas)
        _check_orders("constants m_values", self.m_values)
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
        _check_orders("kernel |beta|", [beta.order for beta in self.betas])
        _check_each(lambda beta: check_grid(beta.dim, self.points, self.half_width),
                    self.betas)
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
        with as_config_error():
            check_run(self.nu, self.p_exponent, 1, self.dt, self.horizon)  # a 1-d run
            check_grid(1, self.points, self.half_width)
            if not self.horizon >= 2.0:
                raise ConfigError("cgl horizon must be >= 2 (probes anchor at t = 1)")
            GaussianComponent(sigma=self.sigma, amplitude=self.eps)
        _check_orders("cgl m", [self.m])


@dataclass(frozen=True)
class SuiteConfig:
    sections: dict[str, object]  # harness name -> section, in run order
    seed: int
    raw_text: str = field(repr=False)


def _grid(text: str) -> dict:
    points, half_width = parse_grid(text)
    return {"points": points, "half_width": half_width}


def _ints(text: str, name: str) -> tuple[int, ...]:
    return parse_list(text, lambda v: parse_int(v, name))


def _pq_pair(chunk: str) -> tuple[float, float]:
    parts = chunk.split(":")
    if len(parts) != 2:
        raise ConfigError(f"pq pair must be p:q, got {chunk!r}")
    return parse_exponent(parts[0]), parse_exponent(parts[1])


# Readers: (merged strings, key -> the name its errors carry) -> section.

def _suite(v, name) -> tuple[tuple[str, ...], int]:
    seed = parse_int(v["seed"], name("seed"))
    if seed < 0:
        raise ConfigError(f"{name('seed')} must be >= 0, got {seed}")
    return parse_list(v["harnesses"], str), seed


def _identity(v, name) -> IdentitySection:
    alphas = parse_list(v["alphas"], parse_multiindex)
    return IdentitySection(
        dim=parse_int(v["dim"], name("dim")) if v["dim"] else next((a.dim for a in alphas), 1),
        **_grid(v["grid"]),
        alphas=alphas,
        omegas=parse_list(v["omegas"], parse_complex, ";"),
        testfns=parse_list(v["testfns"], str),
        tolerance=parse_finite(v["tolerance"], name("tolerance")),
    )


def _estimate(v, name) -> EstimateSection:
    return EstimateSection(
        dim=parse_int(v["dim"], name("dim")),
        **_grid(v["grid"]),
        m_values=_ints(v["m_values"], name("m_values")),
        pq_pairs=parse_list(v["pq_pairs"], _pq_pair),
        omegas=parse_list(v["omegas"], parse_complex, ";"),
        testfns=parse_list(v["testfns"], str),
        radial=parse_bool(v["radial"], name("radial")),
        lipschitz=parse_bool(v["lipschitz"], name("lipschitz")),
    )


def _constants(v, name) -> ConstantsSection:
    return ConstantsSection(
        dim=parse_int(v["dim"], name("dim")),
        m_values=_ints(v["m_values"], name("m_values")),
        r_values=parse_list(v["r_values"], parse_exponent),
        thetas=parse_thetas(v["thetas"]),
    )


def _kernel_norms(v, name) -> KernelNormsSection:
    return KernelNormsSection(
        **_grid(v["grid"]),
        betas=parse_list(v["betas"], parse_multiindex),
        r_values=parse_list(v["r_values"], parse_exponent),
        thetas=parse_thetas(v["thetas"]),
    )


def _cgl(v, name) -> CGLSection:
    def finite(key: str) -> float:
        return parse_finite(v[key], name(key))

    return CGLSection(
        nu=parse_complex(v["nu"]),
        lam=parse_complex(v["lambda"]),
        p_exponent=finite("p"),
        eps=finite("eps"),
        sigma=finite("sigma"),
        horizon=finite("T"),
        dt=finite("dt"),
        m=parse_int(v["m"], name("m")),
        q=parse_exponent(v["q"]),
        **_grid(v["grid"]),
    )


_GRID = "512,16"
_THETAS = "0,0.3,0.6,0.9,1.2"

# Every key of every section, with its default; the CLI flags take theirs from
# here too.  "" is no default: an empty list is rejected by its section, and an
# empty [identity] dim is the dimension of the alphas.
DEFAULTS = {
    "suite": {"harnesses": "", "seed": "0"},
    "identity": {"dim": "", "grid": _GRID, "alphas": "", "omegas": "", "testfns": "",
                 "tolerance": repr(IDENTITY_TOL)},
    "estimate": {"dim": "1", "grid": _GRID, "m_values": "1", "pq_pairs": "", "omegas": "",
                 "testfns": "", "radial": "false", "lipschitz": "false"},
    "constants": {"dim": "1", "m_values": "1,2,3", "r_values": "1,2,inf",
                  "thetas": _THETAS},
    "kernel-norms": {"grid": _GRID, "betas": "1,2", "r_values": "1,2", "thetas": _THETAS},
    "cgl": {"nu": "1,0", "lambda": "-1,0", "p": "4", "eps": "0.01", "sigma": "1.0",
            "T": "10", "dt": "0.01", "m": "1", "q": "1", "grid": "2048,64"},
}

_READERS = {"suite": _suite, "identity": _identity, "estimate": _estimate,
            "constants": _constants, "kernel-norms": _kernel_norms, "cgl": _cgl}
_HARNESSES = [name for name in DEFAULTS if name != "suite"]


def read_section(name: str, given, labels: dict[str, str] | None = None):
    """Section name from the given key strings merged over DEFAULTS[name].

    Keys match case-insensitively, as configparser reads them.  A parse error
    names the key by labels[key] (a subcommand's flag), else as "[name] key".
    """
    table = DEFAULTS[name]
    known = {key.lower(): key for key in table}
    values = dict(table)
    for key, text in given.items():
        if key.lower() not in known:
            raise ConfigError(f"unknown key {key!r} in [{name}]; keys: {', '.join(table)}")
        values[known[key.lower()]] = text
    labels = labels or {}
    return _READERS[name](values, lambda key: labels.get(key, f"[{name}] {key}"))


def parse_suite_config(text: str) -> SuiteConfig:
    parser = configparser.ConfigParser(interpolation=None)  # no value syntax uses "%"
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    if not parser.has_section("suite"):
        raise ConfigError("missing [suite] section")
    harnesses, seed = read_section("suite", parser["suite"])
    for i, name in enumerate(harnesses):
        if name not in _HARNESSES:
            raise ConfigError(f"unknown harness {name!r}; choose from {', '.join(_HARNESSES)}")
        if name in harnesses[:i]:
            raise ConfigError(f"harness {name!r} listed twice")
        if not parser.has_section(name):
            raise ConfigError(f"harness {name!r} requested but section missing")
    return SuiteConfig(sections={name: read_section(name, parser[name]) for name in harnesses},
                       seed=seed, raw_text=text)
