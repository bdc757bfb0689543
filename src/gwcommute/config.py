"""Suite configuration: INI-style sections, strict validation.

Value syntax inside a section:
    complex numbers      RE,IM            (same as the CLI flags)
    lists of complexes   items joined by ";"
    multi-indices        dot-separated, e.g. "2.1"; lists joined by ","
    exponents            numbers or "inf"; pairs "p:q" joined by ","

A parse or validation problem raises ConfigError; the CLI maps that to
exit code 2.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .multiindex import MultiIndex

HARNESS_NAMES = ("identity", "estimate", "constants", "kernel-norms", "cgl")


class ConfigError(Exception):
    pass


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"complex value must be RE,IM, got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError(f"bad complex value {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"complex value must be finite, got {text!r}")
    return value


def parse_finite(value, name: str) -> float:
    """A finite float from a string or a number; the error names the value."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"bad {name} {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def parse_exponent(text: str) -> float:
    text = text.strip()
    if text == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"bad exponent {text!r}")
    if math.isnan(value) or value < 1.0:
        raise ConfigError(f"exponent must be in [1, inf], got {text!r}")
    return value


def parse_multiindex(text: str) -> MultiIndex:
    try:
        return MultiIndex.from_str(text.strip())
    except ValueError:
        raise ConfigError(f"bad multi-index {text!r}")


def _split(text: str, sep: str) -> list[str]:
    return [part.strip() for part in text.split(sep) if part.strip()]


def parse_grid(text: str) -> tuple[int, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"grid must be N,L; got {text!r}")
    try:
        points, half_width = int(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"bad grid {text!r}")
    if points < 8 or points & (points - 1):
        raise ConfigError(f"grid points must be a power of two >= 8, got {points}")
    if not (math.isfinite(half_width) and half_width > 0):
        raise ConfigError(f"grid half-width must be finite and positive, got {text!r}")
    return points, half_width


def check_theta(theta: float) -> float:
    if not abs(theta) < math.pi / 2.0:
        raise ConfigError(
            f"theta = {theta} outside (-pi/2, pi/2); the constants diverge there"
        )
    return theta


def parse_thetas(text: str) -> tuple[float, ...]:
    """Comma-separated angles, each checked by check_theta; empty items skipped."""
    return tuple(check_theta(float(v)) for v in _split(text, ","))


def check_omega(omega: complex) -> complex:
    if not (math.isfinite(omega.real) and math.isfinite(omega.imag)):
        raise ConfigError(f"omega must be finite, got {omega}")
    if omega.real <= 0:
        raise ConfigError(f"omega must have positive real part, got {omega}")
    return omega


@dataclass(frozen=True)
class IdentitySection:
    dim: int
    points: int
    half_width: float
    alphas: tuple[MultiIndex, ...]
    omegas: tuple[complex, ...]
    testfns: tuple[str, ...]
    tolerance: float = 1e-6


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


@dataclass(frozen=True)
class ConstantsSection:
    dim: int
    m_values: tuple[int, ...]
    r_values: tuple[float, ...]
    thetas: tuple[float, ...]


@dataclass(frozen=True)
class KernelNormsSection:
    points: int
    half_width: float
    betas: tuple[MultiIndex, ...]
    r_values: tuple[float, ...]
    thetas: tuple[float, ...]


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


def _require(parser: configparser.ConfigParser, section: str) -> configparser.SectionProxy:
    if not parser.has_section(section):
        raise ConfigError(f"harness {section!r} requested but section missing")
    return parser[section]


def _known_testfns(names: tuple[str, ...]) -> tuple[str, ...]:
    from .catalog import DEFAULT_CATALOG

    for name in names:
        if name not in DEFAULT_CATALOG:
            known = ", ".join(sorted(DEFAULT_CATALOG))
            raise ConfigError(f"unknown test function {name!r}; catalog has: {known}")
    return names


def parse_suite_config(text: str) -> SuiteConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")
    if not parser.has_section("suite"):
        raise ConfigError("missing [suite] section")
    suite = parser["suite"]
    harness_text = suite.get("harnesses", "").strip()
    harnesses = tuple(_split(harness_text, ",")) if harness_text else ()
    for name in harnesses:
        if name not in HARNESS_NAMES:
            raise ConfigError(
                f"unknown harness {name!r}; choose from {', '.join(HARNESS_NAMES)}"
            )
    try:
        seed = suite.getint("seed", fallback=0)
    except ValueError:
        raise ConfigError("suite.seed must be an integer")

    def grid_of(section) -> tuple[int, int, float]:
        try:
            dim = int(section.get("dim", "1"))
        except ValueError:
            raise ConfigError(f"bad dim in [{section.name}]")
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        points, half_width = parse_grid(section.get("grid", "512,16"))
        return dim, points, half_width

    identity = None
    if "identity" in harnesses:
        sec = _require(parser, "identity")
        dim, points, half_width = grid_of(sec)
        identity = IdentitySection(
            dim=dim,
            points=points,
            half_width=half_width,
            alphas=tuple(parse_multiindex(a) for a in _split(sec.get("alphas", ""), ",")),
            omegas=tuple(check_omega(parse_complex(o)) for o in _split(sec.get("omegas", ""), ";")),
            testfns=_known_testfns(tuple(_split(sec.get("testfns", ""), ","))),
            tolerance=parse_finite(sec.get("tolerance", "1e-6"), "[identity] tolerance"),
        )
        if not (identity.alphas and identity.omegas and identity.testfns):
            raise ConfigError("[identity] needs alphas, omegas and testfns")
        for alpha in identity.alphas:
            if alpha.dim != dim:
                raise ConfigError(f"alpha {alpha.to_str()} does not match dim {dim}")
            if alpha.order < 1:
                raise ConfigError("identity alphas need |alpha| >= 1")

    estimate = None
    if "estimate" in harnesses:
        sec = _require(parser, "estimate")
        dim, points, half_width = grid_of(sec)
        pairs = []
        for chunk in _split(sec.get("pq_pairs", ""), ","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise ConfigError(f"pq pair must be p:q, got {chunk!r}")
            p, q = parse_exponent(parts[0]), parse_exponent(parts[1])
            pairs.append((p, q))
        estimate = EstimateSection(
            dim=dim,
            points=points,
            half_width=half_width,
            m_values=tuple(int(v) for v in _split(sec.get("m_values", "1"), ",")),
            pq_pairs=tuple(pairs),
            omegas=tuple(check_omega(parse_complex(o)) for o in _split(sec.get("omegas", ""), ";")),
            testfns=_known_testfns(tuple(_split(sec.get("testfns", ""), ","))),
            radial=sec.getboolean("radial", fallback=True),
            lipschitz=sec.getboolean("lipschitz", fallback=True),
        )
        if not (estimate.m_values and estimate.pq_pairs and estimate.omegas
                and estimate.testfns):
            raise ConfigError("[estimate] needs m_values, pq_pairs, omegas, testfns")
        if any(m < 1 for m in estimate.m_values):
            raise ConfigError("estimate m_values must be >= 1")

    constants = None
    if "constants" in harnesses:
        sec = _require(parser, "constants")
        try:
            dim = int(sec.get("dim", "1"))
        except ValueError:
            raise ConfigError("bad dim in [constants]")
        constants = ConstantsSection(
            dim=dim,
            m_values=tuple(int(v) for v in _split(sec.get("m_values", "1,2"), ",")),
            r_values=tuple(parse_exponent(v) for v in _split(sec.get("r_values", "1,2,inf"), ",")),
            thetas=parse_thetas(sec.get("thetas", "0")),
        )

    kernel_norms = None
    if "kernel-norms" in harnesses:
        sec = _require(parser, "kernel-norms")
        points, half_width = parse_grid(sec.get("grid", "512,16"))
        kernel_norms = KernelNormsSection(
            points=points,
            half_width=half_width,
            betas=tuple(parse_multiindex(b) for b in _split(sec.get("betas", "1"), ",")),
            r_values=tuple(parse_exponent(v) for v in _split(sec.get("r_values", "1"), ",")),
            thetas=parse_thetas(sec.get("thetas", "0")),
        )

    cgl = None
    if "cgl" in harnesses:
        sec = _require(parser, "cgl")
        points, half_width = parse_grid(sec.get("grid", "2048,64"))

        def finite(key: str, default: str) -> float:
            return parse_finite(sec.get(key, default), f"[cgl] {key}")

        try:
            cgl = CGLSection(
                nu=check_omega(parse_complex(sec.get("nu", "1,0"))),
                lam=parse_complex(sec.get("lambda", "-1,0")),
                p_exponent=finite("p", "4"),
                eps=finite("eps", "0.01"),
                sigma=finite("sigma", "1.0"),
                horizon=finite("T", "10"),
                dt=finite("dt", "0.01"),
                m=int(sec.get("m", "1")),
                q=parse_exponent(sec.get("q", "1")),
                points=points,
                half_width=half_width,
            )
        except ValueError as exc:
            raise ConfigError(f"bad [cgl] value: {exc}")

    return SuiteConfig(
        harnesses=harnesses,
        seed=seed,
        raw_text=text,
        identity=identity,
        estimate=estimate,
        constants=constants,
        kernel_norms=kernel_norms,
        cgl=cgl,
    )
