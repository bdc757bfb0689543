"""Small-data complex Ginzburg-Landau runs and their growth/decay probes.

The equation  d_t u - nu*Laplacian(u) = lambda |u|^{p-1} u  (re nu > 0,
p > 1 + 2/n) is integrated in mild form

    u(t) = e^{t nu D} u0 + int_0^t e^{(t-s) nu D} f(u(s)) ds

by an exponential midpoint step: the linear flow is exact in Fourier space,
the Duhamel integral is approximated by dt * e^{(dt/2) nu D} f(u_mid) with
u_mid the half-step linear predictor.  Probes then test

    decay:    (1+t)^{(n/2)(1-1/r)} ||u(t)||_r stays bounded,
    weighted: W(t) = sum_{|a|=m} ||x^a u(t)||_q grows no faster than t^{m/2}.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, boundary_mass_fraction, lp_norm, weight_multiply
from .multiindex import enumerate_level
from .parallel import ordered_map
from .semigroup import check_omega, xi_squared

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
    smallness: float = DEFAULT_SMALLNESS
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR
    boundary_limit: float = DEFAULT_BOUNDARY_LIMIT
    snapshot_every: float = 0.5

    def __post_init__(self):
        check_run(self.nu, self.p_exponent, self.u0.dim, self.dt, self.horizon)
        size = lp_norm(self.u0, 1.0) + lp_norm(self.u0, math.inf)
        if size > self.smallness:
            raise ValueError(
                f"||u0||_1 + ||u0||_inf = {size:.4g} exceeds smallness {self.smallness}"
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
    """Precomputed multipliers for one fixed (nu, dt)."""

    def __init__(self, cfg: CGLConfig, dt: float):
        self.cfg = cfg
        self.dt = dt
        xi_sq = xi_squared(cfg.u0)
        self.full = np.exp(-cfg.nu * dt * xi_sq)
        self.half = np.exp(-cfg.nu * (dt / 2.0) * xi_sq)
        self.sup_limit = cfg.blowup_factor * lp_norm(cfg.u0, math.inf)

    def advance(self, u: GridFunction) -> GridFunction:
        spectrum = np.fft.fftn(u.samples)
        linear = np.fft.ifftn(self.full * spectrum)
        predictor = np.fft.ifftn(self.half * spectrum)
        forcing = np.fft.fftn(self.cfg.nonlinearity(predictor))
        samples = linear + self.dt * np.fft.ifftn(self.half * forcing)
        if float(np.max(np.abs(samples))) > self.sup_limit:
            raise BlowupError(
                "sup-norm guard tripped: |u| exceeded "
                f"{self.cfg.blowup_factor} x its initial value"
            )
        return u.with_samples(samples)


def step_count(horizon: float, dt: float) -> int:
    """Steps of size dt that reach the horizon, which must be a whole multiple of dt."""
    steps = round(horizon / dt)
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} must be an integer multiple of dt {dt}")
    return steps


def simulate(cfg: CGLConfig) -> CGLRun:
    """Integrate to the horizon, keeping snapshots every cfg.snapshot_every.

    The mass fraction at grid distance >= L/2 from the origin is tracked per
    snapshot; the run warns (once) if it ever exceeds cfg.boundary_limit.
    Free spreading reaches that band eventually, so this is a diagnostic for
    judging late-time probe trust, not an abort.
    """
    steps = step_count(cfg.horizon, cfg.dt)
    stride = max(1, round(cfg.snapshot_every / cfg.dt))
    stepper = _Stepper(cfg, cfg.dt)
    u = cfg.u0
    times = [0.0]
    states = [u]
    boundary_max = boundary_mass_fraction(u)
    for k in range(1, steps + 1):
        u = stepper.advance(u)
        if k % stride == 0 or k == steps:
            times.append(k * cfg.dt)
            states.append(u)
            boundary_max = max(boundary_max, boundary_mass_fraction(u))
    if boundary_max > cfg.boundary_limit:
        warnings.warn(
            f"boundary mass fraction reached {boundary_max:.3e} "
            f"(limit {cfg.boundary_limit:.1e}); late-time weighted norms carry "
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
        norms = ordered_map(lambda u, rr=r: lp_norm(u, rr), run.states)
        for t, value in zip(run.times, norms):
            records.append(DecayRecord(t, r, (1.0 + t) ** exponent * value))
    return records


def weighted_records(run: CGLRun, m: int, q: float) -> list[WeightedRecord]:
    """W(t) = sum_{|a|=m} ||x^a u(t)||_q along the snapshots."""
    n = run.config.u0.dim
    level = enumerate_level(n, m)

    def w_of(u: GridFunction) -> float:
        return math.fsum(lp_norm(weight_multiply(u, alpha), q) for alpha in level)

    values = ordered_map(w_of, run.states)
    return [
        WeightedRecord(t, w, w / (1.0 + t ** (m / 2.0)))
        for t, w in zip(run.times, values)
    ]


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
