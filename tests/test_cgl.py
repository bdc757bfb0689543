import dataclasses
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from gwcommute import cgl, config as suite_config, grid
from gwcommute.cli import _build_cgl_config
from gwcommute.cgl import (
    BlowupError,
    CGLConfig,
    DEFAULT_BOUNDARY_LIMIT,
    decay_bounded,
    decay_records,
    fit_loglog_slope,
    ratio_bounded,
    simulate,
    weighted_records,
)
from gwcommute.grid import boundary_mass_fraction, lp_norm, rel_l2_error
from gwcommute.multiindex import enumerate_level
from gwcommute.semigroup import apply_fourier, heat_multiplier

from oracles import from_callable, xi_squared


def step_duhamel(u, cfg, dt):
    """One exponential-midpoint step of size dt (second-order local accuracy)."""
    return simulate(dataclasses.replace(cfg, u0=u, dt=dt, horizon=dt)).states[-1]


def step_physical(u, cfg, dt):
    """The same exponential-midpoint step, computed from and back to physical
    space with five transforms: an oracle independent of simulate's
    spectral bookkeeping."""
    xi_sq = xi_squared(u)
    full = np.exp(-cfg.nu * dt * xi_sq)
    half = np.exp(-cfg.nu * (dt / 2.0) * xi_sq)
    spectrum = np.fft.fftn(u.samples)
    linear = np.fft.ifftn(full * spectrum)
    predictor = np.fft.ifftn(half * spectrum)
    forcing = np.fft.fftn(cfg.nonlinearity(predictor))
    return u.with_samples(linear + dt * np.fft.ifftn(half * forcing))


def small_gaussian(eps=0.01, sigma=1.0, points=1024, half_width=32.0):
    return from_callable(
        lambda x: eps * (4 * math.pi * sigma) ** -0.5 * np.exp(-(x**2) / (4 * sigma)),
        1,
        points,
        half_width,
    )


def wide_gaussian(half_width):
    """small_gaussian at the default spacing h = 1/16 on a box wide enough that
    the run's boundary mass fraction stays below its 1e-10 limit."""
    return small_gaussian(points=int(16 * 2 * half_width), half_width=half_width)


def config(**overrides):
    base = dict(
        nu=1.0,
        lam=-1.0,
        p_exponent=4.0,
        u0=small_gaussian(),
        dt=0.01,
        horizon=1.0,
    )
    base.update(overrides)
    return CGLConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        config(nu=-1.0)
    with pytest.raises(ValueError):
        config(nu=1j)
    with pytest.raises(ValueError):
        config(p_exponent=3.0)  # needs p > 1 + 2/n = 3
    with pytest.raises(ValueError):
        config(dt=0.0)
    with pytest.raises(ValueError):
        config(horizon=-1.0)
    with pytest.raises(ValueError):
        config(u0=small_gaussian(eps=1.0))  # not small
    config(p_exponent=3.0001)  # strict inequality is enough


def test_horizon_must_be_step_multiple():
    with pytest.raises(ValueError):
        simulate(config(dt=0.3, horizon=1.0))


def test_config_checks_the_step_rule_at_construction():
    # the run rule owns the step rule, so no run is needed to find the fault
    with pytest.raises(ValueError, match="horizon 1.0 must be an integer multiple of dt 0.03"):
        config(dt=0.03, horizon=1.0)


def test_zero_nonlinearity_step_is_pure_semigroup():
    # complex-typed nu on a complex u0, so the step takes the full-spectrum
    # path: stepper and apply_fourier build the multiplier through the same
    # complex-exp kernel, so the linear path is reproduced bitwise
    u0 = small_gaussian() * (0.6 + 0.8j)
    cfg = config(lam=0.0, nu=complex(1.0), u0=u0)
    u1 = step_duhamel(cfg.u0, cfg, 0.25)
    ref = apply_fourier(cfg.u0, complex(0.25))
    assert np.array_equal(u1.samples, ref.samples)
    # a real u0 takes the half-spectrum path: the multiplier is the same
    # (check_omega makes every w complex, float-typed nu included), but
    # rfftn/irfftn round differently from fftn/ifftn, so value-level
    # agreement only
    for nu in (complex(1.0), 1.0):
        cfg_r = config(lam=0.0, nu=nu)
        u1_r = step_duhamel(cfg_r.u0, cfg_r, 0.25)
        assert rel_l2_error(u1_r, apply_fourier(cfg_r.u0, complex(0.25))) <= 1e-14


def test_complex_nu_step_is_pure_semigroup():
    cfg = config(lam=0.0, nu=1.0 + 0.7j)
    u1 = step_duhamel(cfg.u0, cfg, 0.125)
    ref = apply_fourier(cfg.u0, (1.0 + 0.7j) * 0.125)
    assert rel_l2_error(u1, ref) <= 1e-14


def test_linear_solution_matches_heat_kernel():
    # lam = 0: u(t) = eps G_{sigma + t}
    cfg = config(lam=0.0, horizon=2.0)
    run = simulate(cfg)
    final = run.states[run.times.index(2.0)]
    ref = small_gaussian(eps=0.01, sigma=3.0)
    assert rel_l2_error(final, ref) <= 1e-9


def test_snapshot_times():
    # a snapshot every SNAPSHOT_INTERVAL = 0.5, whatever the step
    for dt in (0.25, 0.125):
        run = simulate(config(dt=dt, horizon=2.0))
        assert run.times == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert [u.points for u in run.states] == [1024] * 5
    # and always at the horizon, even off the interval
    assert simulate(config(dt=0.25, horizon=1.25)).times == [0.0, 0.5, 1.0, 1.25]


def test_second_order_richardson_ratio():
    base = dict(
        nu=1.0,
        lam=-1.0 + 0.5j,
        p_exponent=4.0,
        u0=small_gaussian(eps=0.03),
        horizon=2.0,
    )
    ref = simulate(CGLConfig(dt=0.00625, **base)).states[-1]
    errs = [
        lp_norm(simulate(CGLConfig(dt=dt, **base)).states[-1] - ref, 2.0)
        for dt in (0.2, 0.1, 0.05)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.2 <= coarse / fine <= 4.8, errs


def test_blowup_guard_trips_on_strong_focusing():
    # nearly no diffusion, huge focusing lambda: the sup-norm guard must trip
    cfg = config(nu=1e-6, lam=1e9, dt=1.0, horizon=5.0)
    with pytest.raises(BlowupError):
        simulate(cfg)


def test_blowup_guard_trips_on_nan(monkeypatch):
    cfg = config()
    monkeypatch.setattr(CGLConfig, "nonlinearity",
                        lambda self, samples, mag=None, out=None:
                        np.full_like(samples, np.nan))
    with pytest.raises(BlowupError):
        simulate(cfg)


def test_blowup_guard_runs_every_step():
    # the first snapshot after t = 0 is at t = 0.5; the guard trips at the
    # first step, long before it
    cfg = config(lam=1e300, horizon=1.0)
    with pytest.raises(BlowupError, match=r"at t = 0\.01:"):
        simulate(cfg)


def test_simulate_matches_physical_space_steps():
    # five steps per snapshot, twelve snapshots after u0
    cfg = config(nu=1.0 + 0.3j, lam=-1.0 + 0.5j, dt=0.1, horizon=6.0,
                 u0=wide_gaussian(64.0))
    stride = round(cgl.SNAPSHOT_INTERVAL / cfg.dt)
    u, want = cfg.u0, [cfg.u0]
    for k in range(1, round(cfg.horizon / cfg.dt) + 1):
        u = step_physical(u, cfg, cfg.dt)
        if k % stride == 0:
            want.append(u)
    run = simulate(cfg)
    assert len(run.states) == len(want) == 13
    for t, got, ref in zip(run.times, run.states, want):
        assert rel_l2_error(got, ref) <= 1e-12, t


@pytest.mark.parametrize("nu, pair", [
    (1.0, ("rfftn", "irfftn")),
    (1.0 + 0.3j, ("fftn", "ifftn")),
], ids=["real", "complex"])
def test_two_transforms_per_step(monkeypatch, nu, pair):
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(cgl.np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cgl.np.fft, name, counted)
    cfg = config(nu=nu, dt=0.05, horizon=1.0)
    run = simulate(cfg)
    steps = round(cfg.horizon / cfg.dt)
    snapshots = len(run.states) - 1  # u0 is kept as given
    assert (steps, snapshots) == (20, 2)
    # the transform of u0, the predictor and the forcing of each step, and
    # u(t) itself only for each kept snapshot, all through one pair
    forward, inverse = pair
    assert len(calls) == 1 + 2 * steps + snapshots
    assert calls.count(forward) == 1 + steps
    assert calls.count(inverse) == steps + snapshots


def simulate_three_transforms(cfg, real=False):
    """(times, states, boundary_max) from a three-transform stepper that
    returns every step to physical space: the reference simulate, which
    transforms back only the snapshots it keeps, must match bit for bit.
    With real=True it steps the half spectrum of a real problem through
    rfftn/irfftn and the real half of each multiplier; otherwise the full
    complex spectrum through fftn/ifftn."""
    full = heat_multiplier(cfg.u0, cfg.nu * cfg.dt)
    half = heat_multiplier(cfg.u0, cfg.nu * (cfg.dt / 2.0))
    samples = cfg.u0.samples
    forward, inverse = np.fft.fftn, np.fft.ifftn
    if real:
        shape = samples.shape
        cut = shape[-1] // 2 + 1
        full, half = (np.ascontiguousarray(m[..., :cut].real) for m in (full, half))
        samples = samples.real
        forward = np.fft.rfftn

        def inverse(spectrum):
            return np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))
    kick = cfg.dt * half
    steps = round(cfg.horizon / cfg.dt)
    stride = max(1, round(cgl.SNAPSHOT_INTERVAL / cfg.dt))
    spectrum = forward(samples)
    times, states = [0.0], [cfg.u0]
    boundary_max = boundary_mass_fraction(cfg.u0)
    for k in range(1, steps + 1):
        predictor = inverse(half * spectrum)
        forcing = forward(cfg.nonlinearity(predictor))
        spectrum = full * spectrum + kick * forcing
        samples = inverse(spectrum)
        if k % stride == 0 or k == steps:
            u = cfg.u0.with_samples(samples)
            times.append(k * cfg.dt)
            states.append(u)
            boundary_max = max(boundary_max, boundary_mass_fraction(u))
    return times, states, boundary_max


def default_suite_cgl_config():
    text = resources.files("gwcommute").joinpath("data/default_suite.cfg").read_text()
    return _build_cgl_config(suite_config.parse_suite_config(text).sections["cgl"])


def small_gaussian_2d(eps=0.01, points=128, half_width=32.0):
    return from_callable(
        lambda x, y: eps * (4 * math.pi) ** -1 * np.exp(-(x**2 + y**2) / 4),
        2,
        points,
        half_width,
    )


@pytest.mark.parametrize("make, real", [
    (default_suite_cgl_config, True),
    (lambda: config(nu=1.0 + 0.3j, lam=-1.0 + 0.5j, dt=0.1, horizon=6.0,
                    u0=wide_gaussian(64.0)), False),
    (lambda: config(nu=1.0 + 0.5j, lam=-1.0 + 0.2j, p_exponent=3.0, dt=0.1,
                    horizon=2.0, u0=small_gaussian_2d(points=256, half_width=64.0)),
     False),
    # cgl-growth's shape: real nu, lambda and u0 step the half spectrum
    (lambda: config(u0=small_gaussian(points=2048, half_width=64.0)), True),
], ids=["default-suite", "complex-1d", "complex-2d", "real-1d"])
def test_simulate_is_bit_identical_to_three_transform_steps(make, real):
    cfg = make()
    assert cgl._Stepper(cfg).real == real
    times, states, boundary_max = simulate_three_transforms(cfg, real)
    run = simulate(cfg)
    assert run.times == times
    assert len(run.states) == len(states)
    for t, got, want in zip(times, run.states, states):
        assert np.array_equal(got.samples, want.samples), t
    assert run.boundary_max == boundary_max


@pytest.mark.parametrize("make", [
    default_suite_cgl_config,
    lambda: config(u0=small_gaussian(points=2048, half_width=64.0)),
    lambda: config(p_exponent=3.0, dt=0.1, horizon=2.0,
                   u0=small_gaussian_2d(points=256, half_width=64.0)),
], ids=["default-suite", "real-1d", "real-2d"])
def test_real_path_stays_within_rounding_of_the_complex_one(make):
    # measured: at most 2.9e-16 (1-d) and 3.8e-16 (2-d) relative L2 on
    # every snapshot
    cfg = make()
    _, states, _ = simulate_three_transforms(cfg)
    run = simulate(cfg)
    assert len(run.states) == len(states)
    for t, got, want in zip(run.times, run.states, states):
        assert rel_l2_error(got, want) <= 1e-14, t


def nudged_u0():
    """A real u0 but for one sample, whose imaginary part is the least
    subnormal."""
    u0 = small_gaussian(points=2048, half_width=64.0)
    samples = u0.samples.copy()
    samples[1024] += 1j * math.ulp(0.0)
    return u0.with_samples(samples)


@pytest.mark.parametrize("overrides", [
    dict(u0=nudged_u0()),
    dict(nu=complex(1.0, math.ulp(0.0))),
    dict(lam=complex(-1.0, math.ulp(0.0))),
], ids=["u0", "nu", "lambda"])
def test_one_nonzero_imaginary_part_keeps_the_complex_path(overrides):
    base = dict(u0=small_gaussian(points=2048, half_width=64.0))
    assert cgl._Stepper(config(**base)).real
    cfg = config(**{**base, **overrides})
    assert not cgl._Stepper(cfg).real
    times, states, boundary_max = simulate_three_transforms(cfg)
    run = simulate(cfg)
    assert run.times == times
    assert len(run.states) == len(states)
    for t, got, want in zip(times, run.states, states):
        assert np.array_equal(got.samples, want.samples), t
    assert run.boundary_max == boundary_max


@pytest.mark.parametrize("nu, field_bytes", [
    (1.0, 2048 * 8),
    (1.0 + 0.3j, 2048 * 16),
], ids=["real", "complex"])
def test_advance_allocates_less_than_one_field(nu, field_bytes):
    # advance steps the spectrum in place through buffers made by the
    # stepper, so its steady state allocates nothing of the grid's size.
    # Measured over 50 steps at cgl-growth's N = 2048: 1 664 bytes on the
    # half spectrum, whose multipliers share the spectrum's complex dtype
    # (16 720 when they were real and numpy cast them through a buffer on
    # every product), and 17 648 on the full spectrum (197 288 when every
    # step built its products, |u| and transforms afresh).  The bound is one
    # N-point field of the path's dtype: 16 384 bytes real, 32 768 complex.
    cfg = config(nu=nu, u0=small_gaussian(points=2048, half_width=64.0))
    stepper = cgl._Stepper(cfg)
    spectrum = stepper.spectrum(cfg.u0)
    assert spectrum.shape == ((1025,) if stepper.real else (2048,))
    for k in range(5):
        stepper.advance(spectrum, k * cfg.dt)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(5, 55):
            stepper.advance(spectrum, k * cfg.dt)
        used = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert used < field_bytes, used


@pytest.mark.parametrize("u0", [
    small_gaussian(points=2048, half_width=64.0),
    small_gaussian_2d(points=64, half_width=16.0),
], ids=["1d", "2d"])
def test_real_multipliers_are_the_complex_ones_cut_to_the_half_spectrum(u0):
    # one multiplier dtype: the real path keeps the first N/2 + 1 last-axis
    # entries of the complex path's multipliers, as they are
    real = cgl._Stepper(config(u0=u0))
    full = cgl._Stepper(config(u0=u0, lam=-1.0 + 0.5j))
    assert real.real and not full.real
    cut = u0.points // 2 + 1
    for name in ("full", "half", "kick"):
        got, want = getattr(real, name), getattr(full, name)
        assert got.dtype == want.dtype == np.complex128, name
        assert got.shape == want.shape[:-1] + (cut,), name
        assert np.array_equal(got, want[..., :cut]), name


def test_blowup_guard_names_a_state_between_snapshots(monkeypatch):
    # the third step's forcing lifts u(0.03) to about 10, far past the
    # limit of 10 x max|u0| ~ 0.028; the kept snapshots are at 0.5 and 1, so
    # only the guard on the fourth step's predictor sees u(0.03)
    cfg = config(horizon=1.0)
    assert cfg.dt * 1e3 > 10 * lp_norm(cfg.u0, math.inf)
    nonlinearity = CGLConfig.nonlinearity
    calls = []

    def spike(self, samples, mag=None, out=None):
        calls.append(None)
        if len(calls) == 3:
            return np.full_like(samples, 1e3)
        return nonlinearity(self, samples, mag, out)

    monkeypatch.setattr(CGLConfig, "nonlinearity", spike)
    with pytest.raises(BlowupError, match=r"at t = 0\.03:"):
        simulate(cfg)
    assert len(calls) == 3


def test_defocusing_mass_is_monotone():
    cfg = config(lam=-1.0, dt=0.1, horizon=6.0, u0=wide_gaussian(64.0))
    run = simulate(cfg)
    masses = [u.samples.sum().real * u.cell_volume for u in run.states]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    # and stays positive for positive data
    assert masses[-1] > 0


def test_linear_decay_records_r1_exactly_constant():
    run = simulate(config(lam=0.0, horizon=4.0, u0=wide_gaussian(64.0)))
    recs = [rec for rec in decay_records(run) if rec.r == 1.0]
    values = [rec.value for rec in recs]
    assert max(values) - min(values) <= 1e-10 * values[0]
    assert decay_bounded(recs)


def test_linear_decay_records_all_r_bounded():
    run = simulate(config(lam=0.0, horizon=4.0, u0=wide_gaussian(64.0)))
    recs = decay_records(run)
    assert decay_bounded(recs)
    # sup-norm decays like t^{-1/2}: the raw norms fall, the compensated
    # records stay within the 2x band
    raw_inf = [lp_norm(u, math.inf) for u in run.states]
    assert raw_inf[-1] < raw_inf[0]


def decay_series(r, values, times=(0.5, 1.0, 2.0, 4.0)):
    return [cgl.DecayRecord(t, r, v) for t, v in zip(times, values)]


def test_decay_bounded_holds_each_series_within_twice_its_t1_value():
    # each series is anchored at its first t >= 1; values before it are free
    ok = decay_series(1.0, [9.0, 1.0, 2.0, 1.5])
    assert decay_bounded(ok)
    assert decay_bounded(ok + decay_series(2.0, [1.0, 3.0, 6.0, 0.1]))
    # a series that grows past DECAY_FACTOR = 2 times its t = 1 value
    assert not decay_bounded(decay_series(1.0, [1.0, 1.0, 2.0, 2.000001]))
    assert not decay_bounded(ok + decay_series(math.inf, [1.0, 1.0, 0.5, 2.5]))


def ratio_series(ratios, times=(0.0, 0.5, 1.0, 2.0)):
    return [cgl.WeightedRecord(t, ratio, ratio) for t, ratio in zip(times, ratios)]


def test_ratio_bounded_holds_the_whole_run_within_its_factor():
    # anchored at the first t >= 1, checked over the whole run
    assert ratio_bounded(ratio_series([0.5, 2.0, 1.0, 3.0]))
    assert not ratio_bounded(ratio_series([0.5, 1.0, 1.0, 3.000001]))
    assert not ratio_bounded(ratio_series([3.5, 1.0, 1.0, 1.0]))
    assert ratio_bounded(ratio_series([3.5, 1.0, 1.0, 1.0]), factor=4.0)


def test_weighted_records_linear_reference():
    # lam = 0, m = 1, q = 1: W(t) = eps sqrt(4 (sigma + t) / pi); the odd
    # weight |x| puts a kink at 0, so the grid norm is O(h^2) ~ 2e-4 here
    run = simulate(config(lam=0.0, horizon=4.0, u0=wide_gaussian(64.0)))
    recs = weighted_records(run, 1, 1.0)
    for rec in recs:
        want = 0.01 * math.sqrt(4.0 * (1.0 + rec.t) / math.pi)
        assert rec.w == pytest.approx(want, rel=5e-4), rec.t
    assert ratio_bounded(recs)


def test_grid_refinement_stability():
    # doubling N in the resolved regime moves every decay record < 1e-4 rel
    runs = {}
    for points in (512, 1024):
        cfg = config(
            lam=-1.0,
            u0=small_gaussian(points=points),
            dt=0.05,
            horizon=2.0,
        )
        runs[points] = decay_records(simulate(cfg))
    for a, b in zip(runs[512], runs[1024]):
        assert a.t == b.t and a.r == b.r
        assert a.value == pytest.approx(b.value, rel=1e-4)


def test_fit_loglog_slope_linear_case():
    run = simulate(config(lam=0.0, dt=0.02, horizon=16.0, u0=wide_gaussian(128.0)))
    recs = weighted_records(run, 1, 1.0)
    # W ~ sqrt(sigma + t): slope tends to 1/2 from below; on [4, 16] with
    # sigma = 1 the analytic least-squares value is ~0.45
    slope = fit_loglog_slope(recs, 4.0, 16.0)
    assert 0.38 <= slope <= 0.5
    with pytest.raises(ValueError):
        fit_loglog_slope(recs, 200.0, 300.0)


def test_boundary_warning_on_tight_box():
    cfg = CGLConfig(
        nu=1.0,
        lam=0.0,
        p_exponent=4.0,
        u0=small_gaussian(points=128, half_width=4.0),
        dt=0.05,
        horizon=3.0,
    )
    with pytest.warns(RuntimeWarning, match="boundary mass"):
        run = simulate(cfg)
    assert run.boundary_max > DEFAULT_BOUNDARY_LIMIT
    assert len(run.states) == 7


@pytest.mark.parametrize("u0, m", [
    (small_gaussian(), 2),
    (small_gaussian_2d(), 3),
], ids=["1d", "2d"])
def test_weighted_records_builds_each_weight_once(monkeypatch, u0, m):
    # check_weight_range builds every x^a once, in enumerate_level order,
    # and weighted_records applies those arrays to every snapshot
    level = enumerate_level(u0.dim, m)
    weights = cgl.check_weight_range(u0, m)
    assert len(weights) == len(level)
    for weight, alpha in zip(weights, level):
        assert np.array_equal(weight, grid.monomial_weight(u0, alpha))
    run = simulate(config(u0=u0, p_exponent=3.5, dt=0.25, horizon=1.0))
    assert len(run.states) == 3
    calls = []

    def counted(phi, alpha, _original=grid.monomial_weight):
        calls.append(alpha)
        return _original(phi, alpha)

    monkeypatch.setattr(grid, "monomial_weight", counted)
    monkeypatch.setattr(cgl, "monomial_weight", counted)
    assert len(weighted_records(run, m, 2.0)) == 3
    assert calls == level


def test_weight_range_is_the_float64_range():
    # on L = 32 the largest weight is 32^m = 2^(5m): 2^1020 is a float64,
    # 2^1025 is not
    u = wide_gaussian(32.0)
    cgl.check_weight_range(u, 204)
    with pytest.raises(ValueError, match=r"m = 205 .* L = 32:"):
        cgl.check_weight_range(u, 205)
    run = simulate(config(u0=u, dt=0.25, horizon=1.0))
    with pytest.raises(ValueError, match="m = 205"):
        weighted_records(run, 205, 1.0)


def test_nonlinearity_continuous_at_zero():
    cfg = config(p_exponent=3.5)
    out = cfg.nonlinearity(np.zeros(4, dtype=np.complex128))
    assert np.all(out == 0)
    vals = cfg.nonlinearity(np.array([0.1 + 0.0j]))
    assert vals[0] == pytest.approx(-(0.1**3.5))


def test_nonlinearity_keeps_real_samples_real_for_a_real_lambda():
    # the default suite's lambda = -1,0 parses to complex(-1, 0); on real
    # samples it must act as -1.0, also into a real out buffer
    samples = np.array([0.1, -0.2])
    for lam in (-1.0, complex(-1.0, 0.0)):
        out = np.empty(2)
        assert config(lam=lam).nonlinearity(samples, out=out) is out
        assert np.array_equal(out, -np.abs(samples) ** 3.0 * samples)
    # a lambda with an imaginary part makes f(u) complex
    vals = config(lam=-1.0 + 0.5j).nonlinearity(samples)
    assert vals.dtype == np.complex128
    assert vals[0] == pytest.approx((-1.0 + 0.5j) * 0.1**4)
