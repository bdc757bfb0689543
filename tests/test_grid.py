import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcommute.grid import (
    GridFunction,
    boundary_mass_fraction,
    coordinates,
    lp_norm,
    monomial_weight,
    radial_weight,
    rel_l2_error,
    weight_multiply,
    weight_multiply_radial,
)
from gwcommute.multiindex import MultiIndex, enumerate_up_to

from oracles import from_callable


def make_1d(fn, points=512, half_width=16.0):
    return from_callable(fn, 1, points, half_width)


def gaussian(omega):
    return lambda x: (4 * math.pi * omega) ** -0.5 * np.exp(-(x**2) / (4 * omega))


def test_constructor_validation():
    good = np.zeros((8,), dtype=np.complex128)
    GridFunction(1, 8, 1.0, good)
    with pytest.raises(ValueError):
        GridFunction(0, 8, 1.0, good)
    with pytest.raises(ValueError):
        GridFunction(1, 12, 1.0, np.zeros(12, dtype=np.complex128))
    with pytest.raises(ValueError):
        GridFunction(1, 4, 1.0, np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError):
        GridFunction(1, 8, 0.0, good)
    with pytest.raises(ValueError):
        GridFunction(1, 8, 1.0, np.zeros(16, dtype=np.complex128))
    bad = good.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        GridFunction(1, 8, 1.0, bad)


def test_samples_are_write_protected():
    phi = make_1d(lambda x: np.exp(-(x**2)), points=16, half_width=2.0)
    with pytest.raises(ValueError):
        phi.samples[0] = 1.0


def test_axis_and_spacing():
    phi = make_1d(lambda x: 0 * x, points=8, half_width=2.0)
    assert phi.spacing == pytest.approx(0.5)
    assert phi.cell_volume == pytest.approx(0.5)
    np.testing.assert_allclose(phi.axis(), np.arange(-2.0, 2.0, 0.5))


def test_indicator_norms_exact():
    # Indicator of [0, 1) covers exactly 16 cells at h = 1/16.
    phi = make_1d(lambda x: ((x >= 0) & (x < 1)).astype(complex))
    assert lp_norm(phi, 1) == pytest.approx(1.0, rel=1e-14)
    assert lp_norm(phi, 2) == pytest.approx(1.0, rel=1e-14)
    assert lp_norm(phi, math.inf) == 1.0


def test_gaussian_mass_and_moment():
    phi = make_1d(gaussian(1.0))
    assert lp_norm(phi, 1) == pytest.approx(1.0, abs=1e-12)
    second = weight_multiply(phi, MultiIndex([2]))
    assert lp_norm(second, 1) == pytest.approx(2.0, abs=1e-10)
    # || |x| G_1 ||_1 = sqrt(4/pi); the kink of |x| at 0 caps the rectangle
    # rule at O(h^2), so this one only gets a coarse tolerance
    first = weight_multiply_radial(phi, 1)
    assert lp_norm(first, 1) == pytest.approx(math.sqrt(4 / math.pi), abs=1e-3)


def test_lp_norm_range_check():
    phi = make_1d(gaussian(1.0), points=32, half_width=8.0)
    with pytest.raises(ValueError):
        lp_norm(phi, 0.5)


def weight_multiply_meshgrid(phi, alpha):
    """x^alpha * phi with the weight formed on the full meshgrid."""
    mesh = np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij")
    weight = np.ones_like(mesh[0])
    for axis_coord, power in zip(mesh, alpha):
        if power:
            weight = weight * axis_coord**power
    return phi.with_samples(weight * phi.samples)


def weight_multiply_radial_meshgrid(phi, m):
    """|x|^m * phi with the radius formed on the full meshgrid."""
    radius_sq = sum(c**2 for c in np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij"))
    return phi.with_samples(radius_sq ** (m / 2.0) * phi.samples)


@pytest.mark.parametrize("dim, points, half_width",
                         [(1, 512, 16.0), (2, 64, 16.0), (2, 32, 19.7)])
def test_broadcast_weights_are_bit_identical_to_meshgrid(dim, points, half_width):
    rng = np.random.default_rng(3)
    shape = (points,) * dim
    phi = GridFunction(dim, points, half_width,
                       rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for alpha in enumerate_up_to(dim, 4):
        got = weight_multiply(phi, alpha)
        assert np.array_equal(got.samples, weight_multiply_meshgrid(phi, alpha).samples), alpha
    for m in range(5):
        got = weight_multiply_radial(phi, m)
        assert np.array_equal(got.samples,
                              weight_multiply_radial_meshgrid(phi, m).samples), m


def test_weight_arrays_broadcast_and_check_their_index():
    phi = GridFunction(2, 16, 4.0, np.ones((16, 16)))
    x, y = np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij")
    assert monomial_weight(phi, MultiIndex((3, 0))).shape == (16, 1)
    weight = np.broadcast_to(monomial_weight(phi, MultiIndex((1, 2))), (16, 16))
    assert np.array_equal(weight, x * y**2)
    assert np.array_equal(radial_weight(phi, 2), x**2 + y**2)
    with pytest.raises(ValueError):
        monomial_weight(phi, MultiIndex((1,)))
    with pytest.raises(ValueError):
        radial_weight(phi, -1)


def test_weight_multiply_cases():
    phi = make_1d(gaussian(0.5), points=64, half_width=8.0)
    assert weight_multiply(phi, MultiIndex([0])) is phi
    odd = weight_multiply(phi, MultiIndex([1]))
    # x G(x) is odd: value at x and -x cancel
    mid = phi.points // 2
    np.testing.assert_allclose(
        odd.samples[mid + 1 :], -odd.samples[1:mid][::-1], atol=1e-15
    )
    with pytest.raises(ValueError):
        weight_multiply(phi, MultiIndex([1, 0]))
    cubed = weight_multiply(phi, MultiIndex([3]))
    np.testing.assert_allclose(
        cubed.samples, phi.axis() ** 3 * phi.samples, rtol=1e-13, atol=0
    )


def test_weight_multiply_radial_matches_componentwise_in_2d():
    phi = from_callable(lambda x, y: np.exp(-(x**2) - y**2), 2, 32, 4.0)
    squared = weight_multiply_radial(phi, 2)
    xs, ys = np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij")
    np.testing.assert_allclose(
        squared.samples, (xs**2 + ys**2) * phi.samples, rtol=1e-13, atol=0
    )
    assert weight_multiply_radial(phi, 0) is phi
    with pytest.raises(ValueError):
        weight_multiply_radial(phi, -1)


def test_arithmetic_and_conformability():
    phi = make_1d(gaussian(1.0), points=32, half_width=8.0)
    psi = make_1d(gaussian(0.5), points=32, half_width=8.0)
    total = phi + psi
    np.testing.assert_array_equal(total.samples, phi.samples + psi.samples)
    diff = total - psi
    np.testing.assert_allclose(diff.samples, phi.samples, rtol=1e-15)
    scaled = phi * (2 - 1j)
    np.testing.assert_array_equal(scaled.samples, phi.samples * (2 - 1j))
    other = make_1d(gaussian(1.0), points=64, half_width=8.0)
    assert not phi.conformable(other)
    with pytest.raises(ValueError):
        phi + other
    wider = make_1d(gaussian(1.0), points=32, half_width=4.0)
    with pytest.raises(ValueError):
        phi.require_conformable(wider)


def test_rel_l2_error():
    phi = make_1d(gaussian(1.0), points=64, half_width=8.0)
    assert rel_l2_error(phi, phi) == 0.0
    assert rel_l2_error(phi * 1.0001, phi) == pytest.approx(1e-4, rel=1e-6)
    zero = phi * 0.0
    # zero reference: floored denominator, error is the raw numerator scale
    assert rel_l2_error(zero, zero) == 0.0


def test_boundary_mass_fraction():
    inner = make_1d(
        lambda x: ((x >= -1) & (x < 1)).astype(complex), points=64, half_width=8.0
    )
    assert boundary_mass_fraction(inner) == 0.0
    outer = make_1d(
        lambda x: (abs(x) >= 6).astype(complex), points=64, half_width=8.0
    )
    assert boundary_mass_fraction(outer) == 1.0
    # half-width 8: the monitored collar is |x| >= 4
    mixed = make_1d(lambda x: np.ones_like(x, dtype=complex), points=64, half_width=8.0)
    assert boundary_mass_fraction(mixed) == pytest.approx(0.5, abs=0.05)



def boundary_mass_fraction_full_mesh(phi):
    """The band mask formed on the full meshgrid from the largest |x_j|."""
    mesh = np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij")
    outer = np.maximum.reduce([np.abs(c) for c in mesh]) >= phi.half_width / 2.0
    total = np.abs(phi.samples).sum()
    if total == 0.0:
        return 0.0
    return float(np.abs(phi.samples)[outer].sum() / total)


@pytest.mark.parametrize("points, half_width", [(64, 8.0), (32, 19.7)])
def test_boundary_mass_fraction_is_bit_identical_to_full_mesh(points, half_width):
    rng = np.random.default_rng(4)
    shape = (points, points)
    phi = GridFunction(2, points, half_width,
                       rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    fraction = boundary_mass_fraction(phi)
    assert 0.5 < fraction < 1.0  # mass on both sides of the band edge
    assert fraction == boundary_mass_fraction_full_mesh(phi)
    # a band that only one axis reaches: a stripe at large |x_1|, small x_2
    stripe = from_callable(
        lambda x, y: np.exp(-((np.abs(x) - 0.6 * half_width) ** 2) - y**2) * (1 + 0j),
        2, points, half_width)
    fraction = boundary_mass_fraction(stripe)
    assert 0.0 < fraction < 1.0
    assert fraction == boundary_mass_fraction_full_mesh(stripe)


@pytest.mark.parametrize("dim, points, half_width",
                         [(1, 16, 4.0), (2, 8, 19.7), (3, 8, 2.0)])
def test_coordinates_broadcast_to_the_full_meshgrid(dim, points, half_width):
    axis = GridFunction(1, points, half_width, np.zeros(points)).axis()
    mesh = coordinates(dim, points, half_width)
    full = np.meshgrid(*[axis] * dim, indexing="ij")
    assert len(mesh) == dim
    for j, (coord, want) in enumerate(zip(mesh, full)):
        assert coord.shape == tuple(points if k == j else 1 for k in range(dim))
        assert np.array_equal(np.broadcast_to(coord, (points,) * dim), want)


@pytest.mark.parametrize("dim, points, half_width",
                         [(1, 12, 4.0), (2, 4, 4.0), (0, 8, 4.0), (1, 8, 0.0), (1, 8, math.inf)])
def test_coordinates_reject_a_bad_grid(dim, points, half_width):
    with pytest.raises(ValueError):
        coordinates(dim, points, half_width)


@st.composite
def grid_pairs(draw):
    points = draw(st.sampled_from([8, 16]))
    vals = st.floats(-10, 10, allow_nan=False)
    a = np.array(
        [complex(draw(vals), draw(vals)) for _ in range(points)], dtype=complex
    )
    b = np.array(
        [complex(draw(vals), draw(vals)) for _ in range(points)], dtype=complex
    )
    return (
        GridFunction(1, points, 4.0, a),
        GridFunction(1, points, 4.0, b),
    )


@given(grid_pairs(), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
@settings(max_examples=40)
def test_norm_homogeneity_and_triangle(pair, p):
    phi, psi = pair
    c = 0.75 - 1.25j
    assert lp_norm(phi * c, p) == pytest.approx(abs(c) * lp_norm(phi, p), rel=1e-12)
    assert lp_norm(phi + psi, p) <= lp_norm(phi, p) + lp_norm(psi, p) + 1e-12
