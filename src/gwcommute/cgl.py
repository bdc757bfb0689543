"""Small-data complex Ginzburg-Landau runs and their growth/decay probes.

The equation  d_t u - nu*Laplacian(u) = lambda |u|^{p-1} u  (re nu > 0,
p > 1 + 2/n) is integrated in mild form

    u(t) = e^{t nu D} u0 + int_0^t e^{(t-s) nu D} f(u(s)) ds

by an exponential midpoint step: the linear flow is exact in Fourier space,
the Duhamel integral is approximated by dt * e^{(dt/2) nu D} f(u_mid) with
u_mid the half-step linear predictor.  The state is carried between steps as
its spectrum S, so one step

    S' = e^{dt nu D} S + dt * e^{(dt/2) nu D} FFT f(IFFT(e^{(dt/2) nu D} S))

costs two transforms, the predictor and the forcing; u(t + dt) itself is
transformed back only at the snapshots kept.  Probes then test

    decay:    (1+t)^{(n/2)(1-1/r)} ||u(t)||_r stays bounded,
    weighted: W(t) = sum_{|a|=m} ||x^a u(t)||_q grows no faster than t^{m/2}.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridFunction,
    boundary_mass_fraction,
    lp_norm,
    monomial_weight,
    weight_multiply,
)
from .multiindex import enumerate_level
from .semigroup import check_omega, heat_multiplier

DEFAULT_SMALLNESS = 0.05
DEFAULT_BLOWUP_FACTOR = 10.0
DEFAULT_BOUNDARY_LIMIT = 1e-10


class BlowupError(RuntimeError):
    """Raised when the sup-norm guard trips: data was not small enough."""


def check_run(nu: complex, p_exponent: float, dim: int, dt: float, horizon: float) -> None:
    """The equation's rule: finite nu with re nu > 0, p > 1 + 2/n, and a finite
    positive step and horizon."""
    check_omega(nu, "nu")
    if not p_exponent > 1.0 + 2.0 / dim:
        raise ValueError(f"cgl needs p > 1 + 2/n = {1.0 + 2.0 / dim}, got {p_exponent}")
    for name, value in (("dt", dt), ("horizon", horizon)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"cgl {name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class CGLConfig:
    nu: complex
    lam: complex
    p_exponent: float
    u0: GridFunction
    dt: float
    horizon: float
    snapshot_every: float = 0.5

    def __post_init__(self):
        check_run(self.nu, self.p_exponent, self.u0.dim, self.dt, self.horizon)
        size = lp_norm(self.u0, 1.0) + lp_norm(self.u0, math.inf)
        if size > DEFAULT_SMALLNESS:
            raise ValueError(
                f"||u0||_1 + ||u0||_inf = {size:.4g} exceeds smallness {DEFAULT_SMALLNESS}"
            )

    def nonlinearity(self, samples: np.ndarray) -> np.ndarray:
        """f(u) = lambda |u|^{p-1} u, continuous at u = 0."""
        mag = np.abs(samples)
        return self.lam * mag ** (self.p_exponent - 1.0) * samples


@dataclass(frozen=True)
class DecayRecord:
    t: float
    r: float
    value: float


@dataclass(frozen=True)
class WeightedRecord:
    t: float
    w: float
    ratio: float  # w / (1 + t^{m/2})


@dataclass(frozen=True)
class CGLRun:
    config: CGLConfig
    times: list[float] = field(repr=False)
    states: list[GridFunction] = field(repr=False)
    boundary_max: float = 0.0

    def state_at(self, t: float) -> GridFunction:
        for tk, u in zip(self.times, self.states):
            if abs(tk - t) < 1e-9:
                return u
        raise KeyError(f"no snapshot at t = {t}")


class _Stepper:
    """Precomputed multipliers for the (nu, dt) of cfg, stepping a spectrum.

    advance() maps the spectrum of u(t) to that of u(t + dt) with two
    transforms; guard() checks u(t)'s predictor on the way.
    """

    def __init__(self, cfg: CGLConfig):
        self.cfg = cfg
        self.full = heat_multiplier(cfg.u0, cfg.nu * cfg.dt)
        self.half = heat_multiplier(cfg.u0, cfg.nu * (cfg.dt / 2.0))
        self.kick = cfg.dt * self.half
        self.sup_limit = DEFAULT_BLOWUP_FACTOR * lp_norm(cfg.u0, math.inf)

    def guard(self, samples: np.ndarray, t: float) -> None:
        """Raise BlowupError at time t if |samples| exceeds the limit or is not finite."""
        # written so that a NaN sup norm trips the guard too
        if not float(np.max(np.abs(samples))) <= self.sup_limit:
            raise BlowupError(
                f"sup-norm guard tripped at t = {t:g}: |u| exceeded "
                f"{DEFAULT_BLOWUP_FACTOR:g} x its initial value (or is not finite)"
            )

    def advance(self, spectrum: np.ndarray, t: float) -> np.ndarray:
        """The spectrum one step after spectrum, the state at time t."""
        predictor = np.fft.ifftn(self.half * spectrum)
        self.guard(predictor, t)
        forcing = np.fft.fftn(self.cfg.nonlinearity(predictor))
        return self.full * spectrum + self.kick * forcing


def step_count(horizon: float, dt: float) -> int:
    """Steps of size dt that reach the horizon, which must be a whole multiple of dt."""
    steps = round(horizon / dt)
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} must be an integer multiple of dt {dt}")
    return steps


def simulate(cfg: CGLConfig) -> CGLRun:
    """Integrate to the horizon, keeping snapshots every cfg.snapshot_every.

    The mass fraction at grid distance >= L/2 from the origin is tracked per
    snapshot; the run warns (once) if it ever exceeds DEFAULT_BOUNDARY_LIMIT.
    Free spreading reaches that band eventually, so this is a diagnostic for
    judging late-time probe trust, not an abort.  A state whose sup norm
    exceeds DEFAULT_BLOWUP_FACTOR times the initial one, or is not finite,
    raises BlowupError naming its time.  The guard reads each state through
    its predictor e^{(dt/2) nu D} u(t), and each kept snapshot directly.
    """
    steps = step_count(cfg.horizon, cfg.dt)
    stride = max(1, round(cfg.snapshot_every / cfg.dt))
    stepper = _Stepper(cfg)
    spectrum = np.fft.fftn(cfg.u0.samples)
    times = [0.0]
    states = [cfg.u0]
    boundary_max = boundary_mass_fraction(cfg.u0)
    for k in range(1, steps + 1):
        spectrum = stepper.advance(spectrum, (k - 1) * cfg.dt)
        if k % stride == 0 or k == steps:
            samples = np.fft.ifftn(spectrum)
            stepper.guard(samples, k * cfg.dt)
            u = cfg.u0.with_samples(samples)
            times.append(k * cfg.dt)
            states.append(u)
            boundary_max = max(boundary_max, boundary_mass_fraction(u))
    if boundary_max > DEFAULT_BOUNDARY_LIMIT:
        warnings.warn(
            f"boundary mass fraction reached {boundary_max:.3e} "
            f"(limit {DEFAULT_BOUNDARY_LIMIT:.1e}); late-time weighted norms carry "
            "truncation error",
            RuntimeWarning,
            stacklevel=2,
        )
    return CGLRun(cfg, times, states, boundary_max)


def decay_exponent(n: int, r: float) -> float:
    return (n / 2.0) * (1.0 - (0.0 if math.isinf(r) else 1.0 / r))


def decay_records(run: CGLRun, r_values=(1.0, 2.0, math.inf)) -> list[DecayRecord]:
    """(1+t)^{(n/2)(1-1/r)} ||u(t)||_r along the snapshots."""
    n = run.config.u0.dim
    records = []
    for r in r_values:
        exponent = decay_exponent(n, r)
        for t, u in zip(run.times, run.states):
            records.append(DecayRecord(t, r, (1.0 + t) ** exponent * lp_norm(u, r)))
    return records


def check_weight_range(u: GridFunction, m: int) -> None:
    """The probe's rule: every weight x^a, |a| = m, is finite in float64 on
    the grid of u.  It evaluates the very weights weighted_records applies,
    so it is the float-range fact itself, not a bound on m."""
    with np.errstate(over="ignore"):
        if all(np.isfinite(monomial_weight(u, alpha)).all()
               for alpha in enumerate_level(u.dim, m)):
            return
    raise ValueError(f"weight order m = {m} is too large for the box half-width "
                     f"L = {u.half_width:g}: x^a with |a| = m overflows float64 on [-L, L)")


def weighted_records(run: CGLRun, m: int, q: float) -> list[WeightedRecord]:
    """W(t) = sum_{|a|=m} ||x^a u(t)||_q along the snapshots."""
    check_weight_range(run.config.u0, m)
    level = enumerate_level(run.config.u0.dim, m)
    records = []
    for t, u in zip(run.times, run.states):
        w = math.fsum(lp_norm(weight_multiply(u, alpha), q) for alpha in level)
        records.append(WeightedRecord(t, w, w / (1.0 + t ** (m / 2.0))))
    return records


def decay_bounded(records: list[DecayRecord], factor: float = 2.0) -> bool:
    """Each r-series bounded on t >= 1 by factor times its value at t = 1."""
    by_r: dict[float, list[DecayRecord]] = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(rec)
    for series in by_r.values():
        anchor = next(rec.value for rec in series if rec.t >= 1.0)
        if any(rec.value > factor * anchor for rec in series if rec.t >= 1.0):
            return False
    return True


def ratio_bounded(records: list[WeightedRecord], factor: float = 3.0) -> bool:
    """W(t)/(1+t^{m/2}) bounded over the whole run by factor times its t = 1 value."""
    anchor = next(rec.ratio for rec in records if rec.t >= 1.0)
    return all(rec.ratio <= factor * anchor for rec in records)


def fit_loglog_slope(records: list[WeightedRecord], t_min: float, t_max: float) -> float:
    """Least-squares slope of log W against log t over t in [t_min, t_max]."""
    pts = [(math.log(rec.t), math.log(rec.w)) for rec in records
           if t_min <= rec.t <= t_max and rec.w > 0]
    if len(pts) < 2:
        raise ValueError("need at least two snapshots in the fit window")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope, _intercept = np.polyfit(xs, ys, 1)
    return float(slope)
