import math

import numpy as np
import pytest

from gwcommute.grid import GridFunction, from_callable, lp_norm, rel_l2_error, weight_multiply
from gwcommute.hermite import gaussian_log_prefactor
from gwcommute.multiindex import MultiIndex, enumerate_up_to
from gwcommute.semigroup import (
    _heat_multiplier,
    apply_direct,
    apply_fourier,
    check_omega,
    check_theta,
    convolve_weighted_kernel,
    derivative_multiplier,
    frequencies,
    heat_multiplier,
    kernel,
    kernel_grid,
    spectral_derivative,
    weighted_kernel_grid,
    xi_squared,
)


def apply_direct_naive(phi, omega):
    """Literal O(N^{2n}) double loop over grid points; tiny grids only.

    Exists to pin down that the Toeplitz restructuring changes nothing.
    """
    w = check_omega(omega)
    if phi.points**phi.dim > 4096:
        raise ValueError("naive oracle restricted to <= 4096 samples")
    mesh = phi.meshgrid()
    coords = np.stack([m.ravel() for m in mesh], axis=1)
    values = phi.samples.ravel()
    out = np.empty(values.size, dtype=np.complex128)
    for i, xi_point in enumerate(coords):
        diffs = xi_point[None, :] - coords
        log_like = -np.sum(np.square(diffs), axis=1) / (4.0 * w)
        theta = math.atan2(w.imag, w.real)
        pref = np.exp(-0.5 * phi.dim * (math.log(4.0 * math.pi * abs(w)) + 1j * theta))
        out[i] = phi.cell_volume * np.sum(pref * np.exp(log_like) * values)
    return phi.with_samples(out.reshape(phi.samples.shape))


def apply_fourier_uncached(phi, omega):
    """e^{w*Laplacian} phi with the multiplier rebuilt on every call."""
    spectrum = np.fft.fftn(phi.samples)
    spectrum *= np.exp(-complex(omega) * xi_squared(phi))
    return phi.with_samples(np.fft.ifftn(spectrum))


def convolve_weighted_kernel_dense(beta, omega, phi):
    """The quadrature oracle with each Toeplitz matrix evaluated on the N x N
    coordinate differences x_i - x_j, not gathered from 2N-1 offsets."""
    w = complex(omega)
    x = phi.axis()
    diff = x[:, None] - x[None, :]
    base = np.exp(gaussian_log_prefactor(w, 1)) * np.exp(-np.square(diff) / (4.0 * w))
    out = phi.samples
    for axis, b in enumerate(beta):
        matrix = base * diff**b if b else base
        out = np.moveaxis(np.tensordot(matrix, out, axes=([1], [axis])), 0, axis)
    return phi.with_samples(phi.cell_volume * out)


def random_grid(dim, points, half_width, seed=11):
    rng = np.random.default_rng(seed)
    shape = (points,) * dim
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(dim, points, half_width, samples)


def gaussian_grid(omega, points=512, half_width=16.0, dim=1):
    def fn(*mesh):
        quad = sum(c**2 for c in mesh)
        return (4 * math.pi * omega) ** (-dim / 2) * np.exp(-quad / (4 * omega))

    return from_callable(fn, dim, points, half_width)


def test_complex_param_validation():
    w = check_omega(1 + 1j)
    assert w == complex(1, 1)
    assert abs(w) == pytest.approx(math.sqrt(2))
    assert check_theta(math.atan2(w.imag, w.real)) == pytest.approx(math.pi / 4)
    assert w / abs(w) == pytest.approx(complex(math.cos(math.pi / 4),
                                               math.sin(math.pi / 4)))
    for bad in (0, -1, 1j, -0.5 + 2j, float("nan")):
        with pytest.raises(ValueError):
            check_omega(bad)


def test_check_omega():
    assert check_omega(complex(0.5, -3.0)) == complex(0.5, -3.0)
    assert check_omega(2) == complex(2, 0)
    for omega in (complex(0, 1), complex(-1, 0), complex(math.nan, 0),
                  complex(1, math.nan), complex(math.inf, 0), complex(1, -math.inf)):
        with pytest.raises(ValueError):
            check_omega(omega)
    with pytest.raises(ValueError, match="nu must have positive real part"):
        check_omega(-1, "nu")


def test_check_theta():
    assert check_theta(1.2) == 1.2
    assert check_theta(-1.5) == -1.5
    # pi/2 is excluded: the estimate constants blow up as cos(theta) -> 0.
    for theta in (1.58, -1.58, math.pi / 2.0):
        with pytest.raises(ValueError):
            check_theta(theta)


def test_kernel_point_values():
    assert kernel(1.0, [0.0]) == pytest.approx((4 * math.pi) ** -0.5)
    assert kernel(1.0, [0.0, 0.0]) == pytest.approx((4 * math.pi) ** -1.0)
    # one axis, unit displacement
    assert kernel(0.25, [1.0]) == pytest.approx((math.pi) ** -0.5 * math.exp(-1.0))


def test_kernel_scaling_identity():
    # G_{s*w}(sqrt(s) x) = s^{-n/2} G_w(x) for s > 0
    rng = np.random.default_rng(11)
    for _ in range(10):
        omega = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        s = rng.uniform(0.3, 3.0)
        n = int(rng.integers(1, 4))
        x = rng.uniform(-2, 2, size=n)
        lhs = kernel(s * omega, np.sqrt(s) * x)
        rhs = s ** (-n / 2) * kernel(omega, x)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_kernel_grid_matches_pointwise():
    grid = kernel_grid(0.7 + 0.2j, 2, 16, 4.0)
    xs = grid.axis()
    for i in (0, 5):
        for j in (3, 12):
            assert grid.samples[i, j] == pytest.approx(
                kernel(0.7 + 0.2j, [xs[i], xs[j]]), rel=1e-13
            )


def test_weighted_kernel_grid_is_monomial_times_kernel():
    beta = MultiIndex([2, 1])
    grid = weighted_kernel_grid(beta, 1 + 0.3j, 16, 4.0)
    plain = kernel_grid(1 + 0.3j, 2, 16, 4.0)
    np.testing.assert_allclose(
        grid.samples, weight_multiply(plain, beta).samples, rtol=1e-12
    )


def test_frequencies_layout():
    xi = frequencies(8, 4.0)
    base = math.pi / 4.0
    np.testing.assert_allclose(xi, base * np.array([0, 1, 2, 3, -4, -3, -2, -1]))


def test_apply_fourier_identity_at_zero():
    phi = gaussian_grid(0.5)
    out = apply_fourier(phi, 0.0)
    np.testing.assert_array_equal(out.samples, phi.samples)


def test_apply_fourier_rejects_bad_omega():
    phi = gaussian_grid(0.5)
    with pytest.raises(ValueError):
        apply_fourier(phi, -0.1)
    with pytest.raises(ValueError):
        apply_fourier(phi, complex("nan"))


def test_heat_multiplier_is_read_only():
    phi = random_grid(2, 16, 4.0)
    multiplier = heat_multiplier(phi, 0.5 + 0.25j)
    assert multiplier is _heat_multiplier(2, 16, 4.0, 0.5 + 0.25j)
    assert not multiplier.flags.writeable
    with pytest.raises(ValueError):
        multiplier[0, 0] = 0.0
    with pytest.raises(ValueError):
        heat_multiplier(phi, -0.1)


@pytest.mark.parametrize("dim, points", [(1, 512), (2, 64), (3, 16)])
def test_apply_fourier_cached_multiplier_is_bit_identical(dim, points):
    # The multiplier evaluates exp on the (N/2 + 1)^n representatives |k_j|
    # and gathers the rest; it must equal exp on the full grid bit for bit,
    # also on a purely imaginary w, where nothing decays.
    phi = random_grid(dim, points, 16.0)
    w1, w2, w3 = 1.0 + 0.99j, 0.25, 0.5j
    _heat_multiplier.cache_clear()
    for omega in (w1, w2, w1, w3, w2, w3, w1):
        got = apply_fourier(phi, omega)
        assert np.array_equal(got.samples, apply_fourier_uncached(phi, omega).samples)
        want = np.exp(-complex(omega) * xi_squared(phi))
        assert np.array_equal(heat_multiplier(phi, omega), want)
    # the in-place product must leave the shared multiplier as it was
    np.testing.assert_array_equal(
        _heat_multiplier(dim, points, 16.0, w1), np.exp(-w1 * xi_squared(phi))
    )


def test_heat_flow_on_gaussian_fourier():
    # e^{w Delta} G_s = G_{s+w}: spectral route
    phi = gaussian_grid(0.5)
    out = apply_fourier(phi, 1.0)
    ref = gaussian_grid(1.5)
    assert rel_l2_error(out, ref) <= 1e-10


def test_heat_flow_on_gaussian_direct():
    phi = gaussian_grid(0.5)
    out = apply_direct(phi, 1.0)
    ref = gaussian_grid(1.5)
    assert rel_l2_error(out, ref) <= 1e-8


def test_heat_flow_complex_time():
    # complex w: e^{w Delta} G_s = G_{s+w} still holds pointwise
    omega = 0.8 + 0.6j
    phi = gaussian_grid(0.5)
    out = apply_fourier(phi, omega)
    ref = gaussian_grid(0.5 + omega)
    assert rel_l2_error(out, ref) <= 1e-10
    assert rel_l2_error(apply_direct(phi, omega), ref) <= 1e-8


def test_semigroup_property():
    phi = gaussian_grid(0.4)
    one = apply_fourier(apply_fourier(phi, 0.3 + 0.1j), 0.7 - 0.05j)
    both = apply_fourier(phi, 1.0 + 0.05j)
    assert rel_l2_error(one, both) <= 1e-12


def test_apply_fourier_linearity():
    phi = gaussian_grid(0.4, points=64, half_width=8.0)
    psi = gaussian_grid(0.9, points=64, half_width=8.0)
    a, b = 2.0 - 1.0j, 0.5j
    combined = apply_fourier(a * phi + b * psi, 0.6 + 0.2j)
    separate = a * apply_fourier(phi, 0.6 + 0.2j) + b * apply_fourier(psi, 0.6 + 0.2j)
    assert rel_l2_error(combined, separate) <= 1e-13


def test_mass_conservation():
    # DC Fourier mode is untouched: the grid integral is preserved exactly
    phi = gaussian_grid(0.5, points=128, half_width=12.0)
    out = apply_fourier(phi, 1.3 + 0.4j)
    before = phi.samples.sum() * phi.cell_volume
    after = out.samples.sum() * out.cell_volume
    assert abs(after - before) <= 1e-13 * abs(before)


def test_direct_reproduces_kernel_from_spike():
    # one-hot of height 1/h is the grid delta; exact-kernel quadrature maps it
    # to the sampled kernel exactly (single term in the sum)
    points, half_width = 64, 8.0
    phi = from_callable(lambda x: 0.0 * x, 1, points, half_width)
    samples = np.array(phi.samples)
    center = points // 2
    samples[center] = 1.0 / phi.spacing
    phi = phi.with_samples(samples)
    out = apply_direct(phi, 0.9)
    expected = np.array([kernel(0.9, [x]) for x in phi.axis()])
    np.testing.assert_allclose(out.samples, expected, rtol=1e-13, atol=1e-300)


def test_toeplitz_restructuring_matches_naive_loop():
    rng = np.random.default_rng(5)
    for dim, points in ((1, 32), (2, 8)):
        shape = (points,) * dim
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        phi = from_callable(lambda *m: 0.0 * m[0], dim, points, 4.0).with_samples(
            samples
        )
        for omega in (1.0, 0.7 + 0.5j):
            fast = apply_direct(phi, omega)
            slow = apply_direct_naive(phi, omega)
            assert rel_l2_error(fast, slow) <= 1e-14


@pytest.mark.parametrize("dim, points", [(1, 512), (2, 64), (3, 16)])
def test_toeplitz_from_offsets_is_bit_identical_on_dyadic_grids(dim, points):
    phi = random_grid(dim, points, 16.0)
    betas = [b for b in enumerate_up_to(dim, 3) if dim == 1 or b.order in (0, 3)]
    for beta in betas:
        for omega in (1.0, 0.7 + 0.5j):
            got = convolve_weighted_kernel(beta, omega, phi)
            ref = convolve_weighted_kernel_dense(beta, omega, phi)
            assert np.array_equal(got.samples, ref.samples), (beta, omega)


@pytest.mark.parametrize("dim, points, half_width", [(1, 64, 20.3), (2, 32, 19.7)])
def test_toeplitz_from_offsets_on_non_dyadic_box(dim, points, half_width):
    phi = random_grid(dim, points, half_width)
    for beta in enumerate_up_to(dim, 2):
        got = convolve_weighted_kernel(beta, 1.0 + 0.5j, phi)
        ref = convolve_weighted_kernel_dense(beta, 1.0 + 0.5j, phi)
        assert rel_l2_error(got, ref) <= 1e-12, beta


def test_naive_oracle_sample_cap():
    phi = gaussian_grid(0.5, points=8192, half_width=16.0)
    with pytest.raises(ValueError):
        apply_direct_naive(phi, 1.0)


def test_oracle_guard_rejects_large_grids():
    phi = gaussian_grid(0.5, points=1024, half_width=16.0)
    with pytest.raises(ValueError):
        apply_direct(phi, 1.0)


def test_convolve_weighted_kernel_requires_positive_re():
    phi = gaussian_grid(0.5, points=32, half_width=8.0)
    with pytest.raises(ValueError):
        convolve_weighted_kernel(MultiIndex([0]), 1j, phi)


def test_weighted_convolution_first_moment():
    # (x G_w) * G_s at 0 equals 0 by odd symmetry; at x it equals
    # x * (w/(w+s)) * G_{w+s}(x) (Gaussian moment identity)
    omega, sigma = 0.8, 0.5
    phi = gaussian_grid(sigma)
    out = convolve_weighted_kernel(MultiIndex([1]), omega, phi)
    xs = phi.axis()
    expected = xs * (omega / (omega + sigma)) * np.array(
        [kernel(omega + sigma, [x]) for x in xs]
    )
    err = np.max(np.abs(out.samples - expected)) / np.max(np.abs(expected))
    assert err <= 1e-9


def test_weighted_kernel_norms_closed_form():
    # || x^b G_w ||_r on the grid against the Gamma-function integral for
    # real w.  When b*r is odd the integrand |x|^{br} e^{...} has a kink at 0
    # and the rectangle rule drops to O(h^2); those cases get a coarse bar.
    for omega in (0.6, 1.3):
        for b, r in ((1, 1.0), (2, 1.0), (1, 2.0), (3, 1.0)):
            grid = weighted_kernel_grid(MultiIndex([b]), omega, 512, 24.0)
            got = lp_norm(grid, r)
            a = r / (4 * omega)
            integral = (
                (4 * math.pi * omega) ** (-r / 2)
                * math.gamma((b * r + 1) / 2)
                / a ** ((b * r + 1) / 2)
            )
            rel = 1e-3 if (b * int(r)) % 2 else 1e-6
            assert got == pytest.approx(integral ** (1 / r), rel=rel), (omega, b, r)


def test_weighted_kernel_norm_scaling_identity():
    # || x^b G_w ||_r = |w|^{-(n/2)(1 - 1/r) + b/2} || x^b G_{e^{i theta}} ||_r
    points, half_width = 16384, 16.0
    for modulus, theta in ((0.6, 0.5), (2.0, -0.9), (1.3, 0.0)):
        direction = complex(math.cos(theta), math.sin(theta))
        omega = modulus * direction
        for b, r in ((1, 1.0), (2, 1.0), (1, 2.0), (3, 1.0), (2, math.inf)):
            beta = MultiIndex([b])
            lhs = lp_norm(weighted_kernel_grid(beta, omega, points, half_width), r)
            base = lp_norm(
                weighted_kernel_grid(beta, direction, points, half_width), r
            )
            inv_r = 0.0 if r == math.inf else 1.0 / r
            rhs = modulus ** (-0.5 * (1 - inv_r) + b / 2) * base
            assert lhs == pytest.approx(rhs, rel=1e-6), (omega, b, r)


def test_spectral_derivative_exact_on_modes():
    points, half_width = 64, 8.0
    k = 3
    freq = math.pi * k / half_width

    def mode(x):
        return np.exp(1j * freq * x)

    phi = from_callable(mode, 1, points, half_width)
    d1 = spectral_derivative(phi, MultiIndex([1]))
    np.testing.assert_allclose(d1.samples, 1j * freq * phi.samples, rtol=1e-12)
    d3 = spectral_derivative(phi, MultiIndex([3]))
    np.testing.assert_allclose(
        d3.samples, (1j * freq) ** 3 * phi.samples, rtol=1e-12
    )
    assert spectral_derivative(phi, MultiIndex([0])) is phi
    with pytest.raises(ValueError):
        spectral_derivative(phi, MultiIndex([1, 0]))


def test_derivative_multiplier_is_outer_product_of_axis_factors():
    phi = random_grid(2, 64, 16.0)
    ixi = 1j * frequencies(64, 16.0)
    got = derivative_multiplier(phi, MultiIndex((1, 3)))
    assert np.array_equal(got, ixi[:, None] * (ixi**3)[None, :])
    assert np.array_equal(derivative_multiplier(phi, MultiIndex((0, 2))),
                          np.ones(64)[:, None] * (ixi**2)[None, :])
    assert derivative_multiplier(phi, MultiIndex((0, 0))) == 1.0
    with pytest.raises(ValueError):
        derivative_multiplier(phi, MultiIndex([1]))


def test_spectral_derivative_gaussian_reference():
    # d/dx G_w = -(x / (2w)) G_w
    phi = gaussian_grid(1.0)
    out = spectral_derivative(phi, MultiIndex([1]))
    expected = -(phi.axis() / 2.0) * phi.samples
    np.testing.assert_allclose(out.samples, expected, rtol=1e-8, atol=1e-14)


def test_smoothing_bound_young():
    # || e^{w Delta} phi ||_p <= || G_w ||_r || phi ||_q, 1/p + 1 = 1/r + 1/q
    phi = gaussian_grid(0.4)
    mixture = 0.7 * phi + 0.3j * gaussian_grid(0.9)
    for omega in (1.0, 0.8 + 0.6j):
        out = apply_direct(mixture, omega)
        for p, q in ((1.0, 1.0), (2.0, 1.0), (math.inf, 2.0)):
            inv_r = 1.0 / p + 1.0 - 1.0 / q
            r = math.inf if inv_r == 0 else 1.0 / inv_r
            kern = kernel_grid(omega, 1, 512, 16.0)
            bound = lp_norm(kern, r) * lp_norm(mixture, q)
            assert lp_norm(out, p) <= bound * (1 + 1e-9), (omega, p, q)
