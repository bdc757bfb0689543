import dataclasses
import math
from itertools import product

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
from gwcommute.grid import boundary_mass_fraction, coordinates


def bandlimited_series(spec, mesh, half_width):
    """The entry's trig polynomial at the points of mesh, one mode at a time.

    The catalog's own loop before it used per-axis factor tables: the
    reference its samples are checked against.  Frequencies are pi k / L,
    so the series has period 2L on every axis.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    modes = sorted(product(range(-spec.cutoff, spec.cutoff + 1), repeat=len(mesh)))
    draws = rng.standard_normal((len(modes), 2))
    scale = 1.0 / math.sqrt(2.0 * len(modes))
    trig = np.zeros(np.broadcast_shapes(*(m.shape for m in mesh)), dtype=np.complex128)
    arg = np.empty_like(trig)
    for (coeff_re, coeff_im), k_vec in zip(draws, modes):
        coeff = scale * complex(coeff_re, coeff_im)
        phase = sum((math.pi * k / half_width) * m for k, m in zip(k_vec, mesh))
        np.multiply(1j, phase, out=arg)
        trig += coeff * np.exp(arg)
    return trig


def bandlimited_reference(spec, dim, points, half_width):
    """Samples of the bandlimited entry, summed mode by mode."""
    mesh = coordinates(dim, points, half_width)
    envelope = np.exp(-sum(np.square(m) for m in mesh) / (4.0 * spec.envelope_sigma))
    return envelope * bandlimited_series(spec, mesh, half_width)


def offset_entry(offset):
    spec = get_entry("bandlimited")
    return dataclasses.replace(spec, seed=spec.seed + offset)


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


@pytest.mark.parametrize("offset", [0, 1, 7])
@pytest.mark.parametrize("points", [512, 2048])
def test_bandlimited_1d_bits_equal_mode_by_mode_series(points, offset):
    # In 1-d the factor table's running sum adds the same products in the
    # same order as the mode-by-mode loop
    spec = offset_entry(offset)
    got = spec.realize(1, points, 16.0).samples
    assert np.array_equal(got, bandlimited_reference(spec, 1, points, 16.0))


@pytest.mark.parametrize("offset", [0, 1, 7])
@pytest.mark.parametrize("dim, points", [(2, 64), (2, 256), (3, 16)])
def test_bandlimited_matches_mode_by_mode_series(dim, points, offset):
    # Per-axis contraction sums in another order from dim >= 2: measured at
    # most 6.4e-16 relative L2
    spec = offset_entry(offset)
    got = spec.realize(dim, points, 16.0).samples
    want = bandlimited_reference(spec, dim, points, 16.0)
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_bandlimited_is_grid_periodic_before_envelope():
    # modes pi k / L are 2L-periodic: with a huge envelope the samples are
    # the explicit trig series, whose value at x = +L (outside the grid)
    # equals its value at x = -L (the grid's first point)
    half_width = 4.0
    spec = dataclasses.replace(get_entry("bandlimited"), envelope_sigma=1e12)
    phi = spec.realize(1, 128, half_width)
    x = phi.axis()
    series = bandlimited_series(spec, [x], half_width)
    # the envelope is 1 to within |x|^2 / (4e12) <= 4e-12
    np.testing.assert_allclose(phi.samples, series, rtol=1e-10, atol=0)
    edges = bandlimited_series(spec, [np.array([-half_width, half_width])], half_width)
    assert edges[0] == pytest.approx(edges[1], abs=1e-14)
    assert phi.samples[0] == pytest.approx(edges[1], rel=1e-10)
    # the same holds at every grid point shifted by one period
    shifted = bandlimited_series(spec, [x + 2.0 * half_width], half_width)
    np.testing.assert_allclose(shifted, series, rtol=0, atol=1e-13)


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
    xs, ys = np.meshgrid(*[eta2.axis()] * eta2.dim, indexing="ij")
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
