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
transformed back only at the snapshots kept.  A real problem (nu, lambda
and u0 real, decided once from exact zeros) stays real: f(u) is real and
both multipliers take real values and are even in xi, so its spectrum is
Hermitian and the run carries only its half, k_n = 0..N/2 on the last
axis, through rfftn/irfftn and a real field.  Any other problem carries
the full complex spectrum through fftn/ifftn.  Both hold the multipliers
in the spectrum's complex dtype and step in place with one buffer layout:
S is overwritten with S', the transforms and products write into work
buffers made once per run, and |u| of the predictor is taken once for the
sup-norm guard and the forcing.  A snapshot is kept every
SNAPSHOT_INTERVAL = 0.5 time units and at the horizon; each gets a fresh
array, since its GridFunction freezes its samples.  Probes then test

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
    check_positive,
    lp_norm,
    monomial_weight,
    reciprocal,
)
from .multiindex import enumerate_level
from .semigroup import check_omega, heat_multiplier

DEFAULT_SMALLNESS = 0.05
DEFAULT_BLOWUP_FACTOR = 10.0
DEFAULT_BOUNDARY_LIMIT = 1e-10
# simulate keeps a snapshot every SNAPSHOT_INTERVAL time units; the decay
# probe tracks ||u(t)||_r for each r in DECAY_EXPONENTS and holds each
# series on t >= 1 within DECAY_FACTOR times its value at t = 1
SNAPSHOT_INTERVAL = 0.5
DECAY_EXPONENTS = (1.0, 2.0, math.inf)
DECAY_FACTOR = 2.0


class BlowupError(RuntimeError):
    """Raised when the sup-norm guard trips: data was not small enough."""


def check_run(nu: complex, p_exponent: float, dim: int, dt: float, horizon: float) -> None:
    """The equation's rule: finite nu with re nu > 0, p > 1 + 2/n, a finite
    positive step and horizon, and a horizon that is a whole multiple of the step."""
    check_omega(nu, "nu")
    if not p_exponent > 1.0 + 2.0 / dim:
        raise ValueError(f"cgl needs p > 1 + 2/n = {1.0 + 2.0 / dim}, got {p_exponent}")
    check_positive(dt, "cgl dt")
    step_count(check_positive(horizon, "cgl horizon"), dt)


@dataclass(frozen=True)
class CGLConfig:
    nu: complex
    lam: complex
    p_exponent: float
    u0: GridFunction
    dt: float
    horizon: float

    def __post_init__(self):
        check_run(self.nu, self.p_exponent, self.u0.dim, self.dt, self.horizon)
        size = lp_norm(self.u0, 1.0) + lp_norm(self.u0, math.inf)
        if size > DEFAULT_SMALLNESS:
            raise ValueError(
                f"||u0||_1 + ||u0||_inf = {size:.4g} exceeds smallness {DEFAULT_SMALLNESS}"
            )

    def nonlinearity(self, samples: np.ndarray, mag: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
        """f(u) = lambda |u|^{p-1} u, continuous at u = 0.

        mag, if given, holds |samples| and is overwritten; out, if given,
        receives f(u) and is returned; it may be mag itself.  The products
        keep the order lambda * |u|^{p-1}, then that times u, so the bits do
        not depend on the buffers.  Real samples with a real lambda (zero
        imaginary part) stay real: they take lambda's real part.
        """
        lam = self.lam
        if not np.iscomplexobj(samples) and complex(lam).imag == 0:
            lam = lam.real
        if mag is None:
            mag = np.abs(samples)
        mag **= self.p_exponent - 1.0
        factor = np.multiply(lam, mag, out=out)
        return np.multiply(factor, samples, out=out)


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


class _Stepper:
    """Precomputed multipliers and work buffers for the (nu, dt) of cfg.

    The arithmetic is chosen once, from exact zeros: a problem whose nu,
    lambda and u0 all have zero imaginary parts is real, and is stepped on
    its half spectrum (rfftn's layout: k = 0..N/2 on the last axis) with a
    real field; any other problem on its full spectrum with fftn/ifftn and
    a complex field.  The multipliers are complex on both, cut to the
    spectrum's last-axis length.  advance() steps a spectrum, the state at
    time t, to that of t + dt in place, with two transforms and no
    allocation the size of the grid; guard() checks |u| of the predictor on
    the way.  Its buffers: spectral holds the predictor's spectrum and then
    the forcing's, field the predictor, mag its |u|, and f(u) is formed in
    source: mag on the real path, spectral on the complex one.
    """

    def __init__(self, cfg: CGLConfig):
        self.cfg = cfg
        shape = cfg.u0.samples.shape
        self.real = (complex(cfg.nu).imag == 0 and complex(cfg.lam).imag == 0
                     and not cfg.u0.samples.imag.any())
        if self.real:
            # the grid rule makes N even, so irfftn's default length is N
            pair, dtype, cut = (np.fft.rfftn, np.fft.irfftn), float, shape[-1] // 2 + 1
        else:
            pair, dtype, cut = (np.fft.fftn, np.fft.ifftn), complex, shape[-1]
        self.forward, self.inverse = pair
        self.full, self.half = (np.ascontiguousarray(heat_multiplier(cfg.u0, w)[..., :cut])
                                for w in (cfg.nu * cfg.dt, cfg.nu * (cfg.dt / 2.0)))
        self.kick = cfg.dt * self.half
        self.spectral = np.empty(self.full.shape, dtype=np.complex128)
        self.field = np.empty(shape, dtype=dtype)
        self.mag = np.empty(shape)
        self.source = self.mag if self.real else self.spectral
        self.sup_limit = DEFAULT_BLOWUP_FACTOR * lp_norm(cfg.u0, math.inf)

    def spectrum(self, u: GridFunction) -> np.ndarray:
        """The spectrum of u that advance() steps, a fresh array."""
        return self.forward(u.samples.real if self.real else u.samples)

    def guard(self, mag: np.ndarray, t: float) -> None:
        """Raise BlowupError at time t if max mag, the state's |u|, exceeds
        the limit or is not finite."""
        # written so that a NaN sup norm trips the guard too
        if not float(mag.max()) <= self.sup_limit:
            raise BlowupError(
                f"sup-norm guard tripped at t = {t:g}: |u| exceeded "
                f"{DEFAULT_BLOWUP_FACTOR:g} x its initial value (or is not finite)"
            )

    def advance(self, spectrum: np.ndarray, t: float) -> None:
        """Overwrite spectrum, the state at time t, with the next step's.

        Every product keeps its operands in the order of
        full * S + kick * FFT f(IFFT(half * S)): numpy's complex multiply
        need not give the same bits with its operands swapped.
        """
        np.multiply(self.half, spectrum, out=self.spectral)
        self.inverse(self.spectral, out=self.field)
        np.abs(self.field, out=self.mag)
        self.guard(self.mag, t)
        self.forward(self.cfg.nonlinearity(self.field, self.mag, out=self.source),
                     out=self.spectral)
        np.multiply(self.kick, self.spectral, out=self.spectral)
        np.multiply(self.full, spectrum, out=spectrum)
        spectrum += self.spectral


def step_count(horizon: float, dt: float) -> int:
    """Steps of size dt that reach the horizon, which must be a whole multiple
    of dt.  A horizon / dt past float range (a subnormal dt) is no multiple."""
    ratio = horizon / dt
    if not (math.isfinite(ratio)
            and abs(round(ratio) * dt - horizon) <= 1e-9 * max(1.0, horizon)):
        raise ValueError(f"horizon {horizon} must be an integer multiple of dt {dt}")
    return round(ratio)


def simulate(cfg: CGLConfig) -> CGLRun:
    """Integrate to the horizon, keeping snapshots every SNAPSHOT_INTERVAL.

    The mass fraction at grid distance >= L/2 from the origin is tracked per
    snapshot; the run warns (once) if it ever exceeds DEFAULT_BOUNDARY_LIMIT.
    Free spreading reaches that band eventually, so this is a diagnostic for
    judging late-time probe trust, not an abort.  A state whose sup norm
    exceeds DEFAULT_BLOWUP_FACTOR times the initial one, or is not finite,
    raises BlowupError naming its time.  The guard reads each state through
    its predictor e^{(dt/2) nu D} u(t), and each kept snapshot directly.
    """
    steps = step_count(cfg.horizon, cfg.dt)
    stride = max(1, round(SNAPSHOT_INTERVAL / cfg.dt))
    stepper = _Stepper(cfg)
    spectrum = stepper.spectrum(cfg.u0)
    times = [0.0]
    states = [cfg.u0]
    boundary_max = boundary_mass_fraction(cfg.u0)
    for k in range(1, steps + 1):
        stepper.advance(spectrum, (k - 1) * cfg.dt)
        if k % stride == 0 or k == steps:
            # a fresh array: the snapshot's GridFunction freezes it
            samples = stepper.inverse(spectrum)
            stepper.guard(np.abs(samples), k * cfg.dt)
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
    return (n / 2.0) * (1.0 - reciprocal(r))


def decay_records(run: CGLRun) -> list[DecayRecord]:
    """(1+t)^{(n/2)(1-1/r)} ||u(t)||_r along the snapshots, r in DECAY_EXPONENTS."""
    n = run.config.u0.dim
    records = []
    for r in DECAY_EXPONENTS:
        exponent = decay_exponent(n, r)
        for t, u in zip(run.times, run.states):
            records.append(DecayRecord(t, r, (1.0 + t) ** exponent * lp_norm(u, r)))
    return records


def check_weight_range(u: GridFunction, m: int) -> list[np.ndarray]:
    """The probe's rule: every weight x^a, |a| = m, is finite in float64 on
    the grid of u.  It returns those weights, in enumerate_level order, and
    weighted_records applies them, so the rule is the float-range fact
    itself, not a bound on m."""
    with np.errstate(over="ignore"):
        weights = [monomial_weight(u, alpha) for alpha in enumerate_level(u.dim, m)]
    if all(np.isfinite(weight).all() for weight in weights):
        return weights
    raise ValueError(f"weight order m = {m} is too large for the box half-width "
                     f"L = {u.half_width:g}: x^a with |a| = m overflows float64 on [-L, L)")


def weighted_records(run: CGLRun, m: int, q: float) -> list[WeightedRecord]:
    """W(t) = sum_{|a|=m} ||x^a u(t)||_q along the snapshots.

    A W(t) that is not finite (the weights fit in float64, their q-th
    powers need not) raises ValueError naming m, q and t.
    """
    weights = check_weight_range(run.config.u0, m)
    records = []
    for t, u in zip(run.times, run.states):
        with np.errstate(over="ignore"):
            w = math.fsum(lp_norm(u.with_samples(weight * u.samples), q) for weight in weights)
        if not math.isfinite(w):
            raise ValueError(f"W(t) = sum ||x^a u(t)||_q overflows float64 at m = {m}, "
                             f"q = {q:g}, t = {t:g}")
        records.append(WeightedRecord(t, w, w / (1.0 + t ** (m / 2.0))))
    return records


def decay_bounded(records: list[DecayRecord]) -> bool:
    """Each r-series bounded on t >= 1 by DECAY_FACTOR times its value at t = 1."""
    by_r: dict[float, list[DecayRecord]] = {}
    for rec in records:
        by_r.setdefault(rec.r, []).append(rec)
    for series in by_r.values():
        anchor = next(rec.value for rec in series if rec.t >= 1.0)
        if any(rec.value > DECAY_FACTOR * anchor for rec in series if rec.t >= 1.0):
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
