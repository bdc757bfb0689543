import dataclasses
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from gwcommute import cgl, config as suite_config
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
from gwcommute.grid import boundary_mass_fraction, from_callable, lp_norm, rel_l2_error
from gwcommute.semigroup import apply_fourier, heat_multiplier, xi_squared


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
        snapshot_every=0.5,
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


def test_zero_nonlinearity_step_is_pure_semigroup():
    # complex-typed nu: stepper and apply_fourier build the multiplier through
    # the same complex-exp kernel, so the linear path is reproduced bitwise
    cfg = config(lam=0.0, nu=complex(1.0))
    u1 = step_duhamel(cfg.u0, cfg, 0.25)
    ref = apply_fourier(cfg.u0, complex(0.25))
    assert np.array_equal(u1.samples, ref.samples)
    # float-typed nu goes through numpy's vectorized real exp, which may
    # round the multiplier 1 ulp differently: value-level agreement only
    cfg_f = config(lam=0.0, nu=1.0)
    u1_f = step_duhamel(cfg_f.u0, cfg_f, 0.25)
    assert rel_l2_error(u1_f, ref) <= 1e-14


def test_complex_nu_step_is_pure_semigroup():
    cfg = config(lam=0.0, nu=1.0 + 0.7j)
    u1 = step_duhamel(cfg.u0, cfg, 0.125)
    ref = apply_fourier(cfg.u0, (1.0 + 0.7j) * 0.125)
    assert rel_l2_error(u1, ref) <= 1e-14


def test_linear_solution_matches_heat_kernel():
    # lam = 0: u(t) = eps G_{sigma + t}
    cfg = config(lam=0.0, horizon=2.0)
    run = simulate(cfg)
    final = run.state_at(2.0)
    ref = small_gaussian(eps=0.01, sigma=3.0)
    assert rel_l2_error(final, ref) <= 1e-9


def test_snapshot_times_and_state_at():
    run = simulate(config(dt=0.25, horizon=2.0, snapshot_every=0.5))
    assert run.times == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert run.state_at(1.0).points == 1024
    with pytest.raises(KeyError):
        run.state_at(0.3)


def test_second_order_richardson_ratio():
    base = dict(
        nu=1.0,
        lam=-1.0 + 0.5j,
        p_exponent=4.0,
        u0=small_gaussian(eps=0.03),
        horizon=2.0,
        snapshot_every=2.0,
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
    # the only snapshot after t = 0 is at the horizon; the guard trips at
    # the first step, long before it
    cfg = config(lam=1e300, horizon=1.0, snapshot_every=1.0)
    with pytest.raises(BlowupError, match=r"at t = 0\.01:"):
        simulate(cfg)


def test_simulate_matches_physical_space_steps():
    cfg = config(nu=1.0 + 0.3j, lam=-1.0 + 0.5j, dt=0.05, horizon=3.0,
                 snapshot_every=0.25, u0=wide_gaussian(64.0))
    stride = round(cfg.snapshot_every / cfg.dt)
    u, want = cfg.u0, [cfg.u0]
    for k in range(1, round(cfg.horizon / cfg.dt) + 1):
        u = step_physical(u, cfg, cfg.dt)
        if k % stride == 0:
            want.append(u)
    run = simulate(cfg)
    assert len(run.states) == len(want) == 13
    for t, got, ref in zip(run.times, run.states, want):
        assert rel_l2_error(got, ref) <= 1e-12, t


def test_two_transforms_per_step(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(cgl.np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cgl.np.fft, name, counted)
    cfg = config(dt=0.05, horizon=1.0)
    run = simulate(cfg)
    steps = round(cfg.horizon / cfg.dt)
    snapshots = len(run.states) - 1  # u0 is kept as given
    assert (steps, snapshots) == (20, 2)
    # the transform of u0, the predictor and the forcing of each step, and
    # u(t) itself only for each kept snapshot
    assert len(calls) == 1 + 2 * steps + snapshots
    assert calls.count("fftn") == 1 + steps


def simulate_three_transforms(cfg):
    """(times, states, boundary_max) from a three-transform stepper that
    returns every step to physical space: the reference simulate, which
    transforms back only the snapshots it keeps, must match bit for bit."""
    full = heat_multiplier(cfg.u0, cfg.nu * cfg.dt)
    half = heat_multiplier(cfg.u0, cfg.nu * (cfg.dt / 2.0))
    kick = cfg.dt * half
    steps = round(cfg.horizon / cfg.dt)
    stride = max(1, round(cfg.snapshot_every / cfg.dt))
    spectrum = np.fft.fftn(cfg.u0.samples)
    times, states = [0.0], [cfg.u0]
    boundary_max = boundary_mass_fraction(cfg.u0)
    for k in range(1, steps + 1):
        predictor = np.fft.ifftn(half * spectrum)
        forcing = np.fft.fftn(cfg.nonlinearity(predictor))
        spectrum = full * spectrum + kick * forcing
        samples = np.fft.ifftn(spectrum)
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


@pytest.mark.parametrize("make", [
    default_suite_cgl_config,
    lambda: config(nu=1.0 + 0.3j, lam=-1.0 + 0.5j, dt=0.05, horizon=3.0,
                   snapshot_every=0.25, u0=wide_gaussian(64.0)),
    lambda: config(nu=1.0 + 0.5j, lam=-1.0 + 0.2j, p_exponent=3.0, dt=0.05,
                   horizon=1.0, snapshot_every=0.25, u0=small_gaussian_2d()),
    # cgl-growth's shape: real nu and lambda take the float64 route through
    # lambda |u|^{p-1}, where a complex lambda takes the complex one
    lambda: config(u0=small_gaussian(points=2048, half_width=64.0)),
], ids=["default-suite", "complex-1d", "complex-2d", "real-1d"])
def test_simulate_is_bit_identical_to_three_transform_steps(make):
    cfg = make()
    times, states, boundary_max = simulate_three_transforms(cfg)
    run = simulate(cfg)
    assert run.times == times
    assert len(run.states) == len(states)
    for t, got, want in zip(times, run.states, states):
        assert np.array_equal(got.samples, want.samples), t
    assert run.boundary_max == boundary_max


def test_advance_allocates_less_than_one_field():
    # advance steps the spectrum in place through buffers made by the
    # stepper, so its steady state allocates nothing of the grid's size.
    # Measured over 50 steps at cgl-growth's N = 2048: 17 648 bytes, against
    # 197 288 when every step built its products, |u| and transforms afresh;
    # the bound is one N-point complex field (32 768 bytes).
    cfg = config(u0=small_gaussian(points=2048, half_width=64.0))
    stepper = cgl._Stepper(cfg)
    spectrum = np.fft.fftn(cfg.u0.samples)
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
    assert used < spectrum.nbytes, used


def test_blowup_guard_names_a_state_between_snapshots(monkeypatch):
    # the third step's forcing lifts u(0.03) to about 10, far past the
    # limit of 10 x max|u0| ~ 0.028; the kept snapshots are at 0.5 and 1, so
    # only the guard on the fourth step's predictor sees u(0.03)
    cfg = config(horizon=1.0, snapshot_every=0.5)
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
    cfg = config(lam=-1.0, dt=0.05, horizon=3.0, snapshot_every=0.25,
                 u0=wide_gaussian(64.0))
    run = simulate(cfg)
    masses = [u.samples.sum().real * u.cell_volume for u in run.states]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    # and stays positive for positive data
    assert masses[-1] > 0


def test_linear_decay_records_r1_exactly_constant():
    run = simulate(config(lam=0.0, horizon=4.0, u0=wide_gaussian(64.0)))
    recs = [rec for rec in decay_records(run, r_values=(1.0,))]
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
        snapshot_every=0.5,
    )
    with pytest.warns(RuntimeWarning, match="boundary mass"):
        run = simulate(cfg)
    assert run.boundary_max > DEFAULT_BOUNDARY_LIMIT
    assert len(run.states) == 7


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
