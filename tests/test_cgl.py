import dataclasses
import math

import numpy as np
import pytest

from gwcommute.cgl import (
    BlowupError,
    CGLConfig,
    decay_bounded,
    decay_records,
    fit_loglog_slope,
    ratio_bounded,
    simulate,
    weighted_records,
)
from gwcommute.grid import from_callable, lp_norm, rel_l2_error
from gwcommute.semigroup import apply_fourier


def step_duhamel(u, cfg, dt):
    """One exponential-midpoint step of size dt (second-order local accuracy)."""
    return simulate(dataclasses.replace(cfg, u0=u, dt=dt, horizon=dt)).states[-1]


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
    assert run.boundary_max > cfg.boundary_limit
    assert len(run.states) == 7


def test_nonlinearity_continuous_at_zero():
    cfg = config(p_exponent=3.5)
    out = cfg.nonlinearity(np.zeros(4, dtype=np.complex128))
    assert np.all(out == 0)
    vals = cfg.nonlinearity(np.array([0.1 + 0.0j]))
    assert vals[0] == pytest.approx(-(0.1**3.5))
