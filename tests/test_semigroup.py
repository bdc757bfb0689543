import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gwcommute import semigroup
from gwcommute.catalog import realize_checked
from gwcommute.commutator import (
    commutator_direct,
    evaluate_R_convolution,
    evaluate_R_theorem,
    function_commutator,
    identity_reports,
    lemma_B2_identity,
)
from gwcommute.estimates import ExponentTriple, radial_commutator, verify_theorem_1_2
from gwcommute.grid import (
    GridFunction,
    coordinates,
    lp_norm,
    monomial_weight,
    radial_weight,
    rel_l2_error,
    weight_multiply,
)
from gwcommute.multiindex import MultiIndex, enumerate_up_to, zero
from gwcommute.semigroup import (
    apply_fourier,
    check_omega,
    check_theta,
    convolve_weighted_kernel,
    derivative_multiplier,
    frequencies,
    gaussian_log_prefactor,
    heat_commutator,
    heat_multiplier,
    spectral_derivative,
    weighted_kernel_grid,
)

from oracles import from_callable, gaussian_kernel_point, xi_squared


def apply_direct_naive(phi, omega):
    """Literal O(N^{2n}) double loop over grid points; tiny grids only.

    Exists to pin down that the Toeplitz restructuring changes nothing.
    """
    w = check_omega(omega)
    if phi.points**phi.dim > 4096:
        raise ValueError("naive oracle restricted to <= 4096 samples")
    mesh = np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij")
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


def dense_axis_matrix(b, omega, x):
    """t^b g_w(t) on the N x N coordinate differences t = x_i - x_j."""
    w = complex(omega)
    diff = x[:, None] - x[None, :]
    base = np.exp(gaussian_log_prefactor(w, 1)) * np.exp(-np.square(diff) / (4.0 * w))
    return base * diff**b if b else base


def convolve_weighted_kernel_dense(beta, omega, phi):
    """The quadrature oracle with each Toeplitz matrix evaluated on the N x N
    coordinate differences x_i - x_j, not gathered from 2N-1 offsets."""
    out = phi.samples
    for axis, b in enumerate(beta):
        matrix = dense_axis_matrix(b, omega, phi.axis())
        out = np.moveaxis(np.tensordot(matrix, out, axes=([1], [axis])), 0, axis)
    return phi.with_samples(phi.cell_volume * out)


def unlifted_toeplitz_pass(u, b, omega, spacing):
    """semigroup._toeplitz_pass as it ran before the 2^k lift: the same
    row and matrix, applied by the same matmul, with no scaling."""
    n = u.shape[0]
    offsets = semigroup._lattice_offsets(n, spacing)
    row = semigroup._kernel_row(omega, offsets)
    if b:
        row = row * offsets**b
    matrix = np.ascontiguousarray(semigroup._lattice_view(row, n))
    return semigroup._matrix_pass(matrix, u, 0)


def unlifted_binomial_pass(u, a, omega, x, spacing):
    """semigroup._binomial_pass as it ran before the 2^k lift: the same
    Horner matrix, applied by the same matmul, with no scaling."""
    n = u.shape[0]
    offsets = semigroup._lattice_offsets(n, spacing)
    row = semigroup._kernel_row(omega, offsets)
    offsets = offsets.astype(row.dtype)
    gauss = semigroup._lattice_view(row, n)
    d = semigroup._lattice_view(offsets, n)
    matrix = np.array(d)
    for b in range(a - 1, 0, -1):
        matrix += (math.comb(a, b) * x ** (a - b)).astype(row.dtype)
        matrix *= d
    matrix *= gauss
    return semigroup._matrix_pass(matrix, u, 0)


def to_front(u, axis):
    """u with one axis moved to the front, C-contiguous: the layout in
    which a pass contracts that axis."""
    return np.ascontiguousarray(np.moveaxis(u, axis, 0))


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


# Every entry that takes a semigroup time, each called on a small 1-d grid.
OMEGA_ENTRIES = {
    "heat_multiplier": lambda w, phi: heat_multiplier(phi, w),
    "apply_fourier": lambda w, phi: apply_fourier(phi, w),
    "heat_commutator": lambda w, phi: heat_commutator(phi.samples, w, phi),
    "commutator_direct": lambda w, phi: commutator_direct(MultiIndex((2,)), w, phi),
    "radial_commutator": lambda w, phi: radial_commutator(1, w, phi),
    "function_commutator": lambda w, phi: function_commutator(phi, w, phi),
    "evaluate_R_theorem": lambda w, phi: evaluate_R_theorem(MultiIndex((2,)), w, phi),
    "evaluate_R_convolution":
        lambda w, phi: evaluate_R_convolution(MultiIndex((2,)), w, phi),
    "identity_reports": lambda w, phi: identity_reports(MultiIndex((2,)), w, phi),
    "lemma_B2_identity": lambda w, phi: lemma_B2_identity(MultiIndex((1,)), 0, w, phi),
    "convolve_weighted_kernel": lambda w, phi: convolve_weighted_kernel(zero(1), w, phi),
    "weighted_kernel_grid":
        lambda w, phi: weighted_kernel_grid(zero(1), w, phi.points, phi.half_width),
    "verify_theorem_1_2":
        lambda w, phi: verify_theorem_1_2(1, [ExponentTriple(2.0, 2.0)], w, phi),
}
BAD_OMEGAS = [0, 0.5j, -0.05, -0.1 + 1j, math.nan, math.inf, complex(1, math.inf)]


@pytest.mark.parametrize("omega", BAD_OMEGAS, ids=str)
@pytest.mark.parametrize("entry", OMEGA_ENTRIES)
def test_every_omega_entry_rejects_by_check_omega(entry, omega):
    # w = 0 and re w = 0 included: no entry keeps a domain of its own
    with pytest.raises(ValueError) as want:
        check_omega(omega)
    with pytest.raises(ValueError) as got:
        OMEGA_ENTRIES[entry](omega, random_grid(1, 16, 4.0))
    assert str(got.value) == str(want.value)


def test_check_theta():
    assert check_theta(1.2) == 1.2
    assert check_theta(-1.5) == -1.5
    # pi/2 is excluded: the estimate constants blow up as cos(theta) -> 0.
    for theta in (1.58, -1.58, math.pi / 2.0):
        with pytest.raises(ValueError):
            check_theta(theta)


def test_kernel_point_values():
    assert gaussian_kernel_point(1.0, [0.0]) == pytest.approx((4 * math.pi) ** -0.5)
    assert gaussian_kernel_point(1.0, [0.0, 0.0]) == pytest.approx((4 * math.pi) ** -1.0)
    # one axis, unit displacement
    assert gaussian_kernel_point(0.25, [1.0]) == pytest.approx(
        (math.pi) ** -0.5 * math.exp(-1.0)
    )


def test_kernel_scaling_identity():
    # G_{s*w}(sqrt(s) x) = s^{-n/2} G_w(x) for s > 0
    rng = np.random.default_rng(11)
    for _ in range(10):
        omega = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
        s = rng.uniform(0.3, 3.0)
        n = int(rng.integers(1, 4))
        x = rng.uniform(-2, 2, size=n)
        lhs = gaussian_kernel_point(s * omega, np.sqrt(s) * x)
        rhs = s ** (-n / 2) * gaussian_kernel_point(omega, x)
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_kernel_grid_matches_pointwise():
    grid = weighted_kernel_grid(zero(2), 0.7 + 0.2j, 16, 4.0)
    xs = grid.axis()
    for i in (0, 5):
        for j in (3, 12):
            assert grid.samples[i, j] == pytest.approx(
                gaussian_kernel_point(0.7 + 0.2j, [xs[i], xs[j]]), rel=1e-13
            )


def test_weighted_kernel_grid_is_monomial_times_kernel():
    beta = MultiIndex([2, 1])
    grid = weighted_kernel_grid(beta, 1 + 0.3j, 16, 4.0)
    plain = weighted_kernel_grid(zero(2), 1 + 0.3j, 16, 4.0)
    np.testing.assert_allclose(
        grid.samples, weight_multiply(plain, beta).samples, rtol=1e-12
    )


def test_weighted_kernel_grid_rejects_bad_time():
    # re w <= 0 would sample a growing or undamped "kernel" without complaint
    for omega in (0.0, -1.0, 1j, complex("nan")):
        with pytest.raises(ValueError, match="omega"):
            weighted_kernel_grid(zero(1), omega, 64, 8.0)


def test_frequencies_layout():
    xi = frequencies(8, 4.0)
    base = math.pi / 4.0
    np.testing.assert_allclose(xi, base * np.array([0, 1, 2, 3, -4, -3, -2, -1]))


def test_apply_fourier_rejects_bad_omega():
    phi = gaussian_grid(0.5)
    with pytest.raises(ValueError):
        apply_fourier(phi, -0.1)
    with pytest.raises(ValueError):
        apply_fourier(phi, complex("nan"))


def test_heat_multiplier_is_fresh_and_checks_omega():
    phi = random_grid(2, 16, 4.0)
    first = heat_multiplier(phi, 0.5 + 0.25j)
    first[0, 0] = 0.0  # each call returns its own array
    second = heat_multiplier(phi, 0.5 + 0.25j)
    assert second is not first
    assert second[0, 0] == 1.0
    assert np.array_equal(second, np.exp(-(0.5 + 0.25j) * xi_squared(phi)))
    with pytest.raises(ValueError):
        heat_multiplier(phi, -0.1)


@pytest.mark.parametrize("dim, points", [(1, 512), (2, 64), (3, 16)])
def test_heat_multiplier_is_bit_identical_to_full_grid_exp(dim, points):
    # The multiplier evaluates exp on the (N/2 + 1)^n representatives |k_j|
    # and gathers the rest; it must equal exp on the full grid bit for bit,
    # also on a w with a tiny real part, where almost nothing decays.
    phi = random_grid(dim, points, 16.0)
    for omega in (1.0 + 0.99j, 0.25, 1e-3 + 0.5j):
        got = apply_fourier(phi, omega)
        assert np.array_equal(got.samples, apply_fourier_uncached(phi, omega).samples)
        want = np.exp(-complex(omega) * xi_squared(phi))
        assert np.array_equal(heat_multiplier(phi, omega), want)


def commutator_reference(weight, omega, phi):
    """eta e^{wD}phi - e^{wD}(eta phi), each flow with its own multiplier."""
    flowed = apply_fourier_uncached(phi, omega)
    weighted = apply_fourier_uncached(phi.with_samples(weight * phi.samples), omega)
    return weight * flowed.samples - weighted.samples


def monomial_samples(phi, alpha):
    """x^alpha on the full meshgrid."""
    mesh = np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij")
    weight = np.ones_like(mesh[0])
    for coord, power in zip(mesh, alpha):
        if power:
            weight = weight * coord**power
    return weight


COMMUTATOR_GRIDS = [(1, 512, (3,)), (2, 64, (2, 1)), (3, 16, (1, 0, 2))]
COMMUTATOR_OMEGAS = [1.0 + 0.99j, 0.25, 1e-3 + 0.5j, 2.0 - 1.0j]


@pytest.mark.parametrize("dim, points, alpha", COMMUTATOR_GRIDS)
@pytest.mark.parametrize("omega", COMMUTATOR_OMEGAS)
def test_commutators_match_two_flow_reference_bit_for_bit(dim, points, alpha, omega):
    phi = random_grid(dim, points, 8.0)
    eta = random_grid(dim, points, 8.0, seed=5)
    alpha = MultiIndex(alpha)
    radius_sq = sum(c**2 for c in np.meshgrid(*[phi.axis()] * phi.dim, indexing="ij"))
    cases = [
        (commutator_direct(alpha, omega, phi), monomial_samples(phi, alpha)),
        (radial_commutator(3, omega, phi), radius_sq**1.5),
        (function_commutator(eta, omega, phi), eta.samples),
    ]
    for got, weight in cases:
        assert np.array_equal(got.samples, commutator_reference(weight, omega, phi))


def heat_commutator_allocating(weight, omega, phi):
    """heat_commutator as it was before its flows ran in place: every
    transform, product and the difference make a fresh array."""
    multiplier = heat_multiplier(phi, omega)
    flowed = np.fft.fftn(phi.samples)
    flowed *= multiplier
    weighted = np.fft.fftn(weight * phi.samples)
    weighted *= multiplier
    return weight * np.fft.ifftn(flowed) - np.fft.ifftn(weighted)


@pytest.mark.parametrize("dim, points, alpha", [(1, 512, (3,)), (2, 128, (2, 1)),
                                                (2, 128, (0, 3))])
@pytest.mark.parametrize("omega", [0.25, 1.0, 1.0 + 0.99j, 2.0 - 1.0j])
def test_heat_commutator_in_place_is_bit_identical(dim, points, alpha, omega):
    # The real weights the library passes: open-mesh x^a, which broadcasts
    # against phi (a column for alpha = (0, 3)), |x|^m, and a real eta
    # stored as complex, as the Lipschitz harness samples it.
    phi = random_grid(dim, points, 8.0)
    mesh = coordinates(dim, points, 8.0)
    real_eta = np.broadcast_to(np.sin(mesh[0]), phi.samples.shape).astype(np.complex128)
    for weight in (monomial_weight(phi, MultiIndex(alpha)), radial_weight(phi, 3), real_eta):
        got = heat_commutator(weight, omega, phi)
        assert np.array_equal(got.samples, heat_commutator_allocating(weight, omega, phi))
    # A complex eta takes eta * flow in that order at every size.  The
    # allocating version's `eta * ifftn(...)` does so only below 256 KiB:
    # above it numpy reuses the temporary transform as `ifftn(...) *= eta`,
    # and complex products differ in the last bit with their order.
    eta = random_grid(dim, points, 8.0, seed=5).samples
    got = heat_commutator(eta, omega, phi)
    assert np.array_equal(got.samples, commutator_reference(eta, omega, phi))


def traced_peak(fn, *args):
    """Bytes allocated above the starting level while fn(*args) runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("omega", [0.25, 1.0 + 0.99j])
def test_heat_commutator_peak_memory(omega):
    # The multiplier and the two terms' buffers are the only N^2 complex
    # fields alive at once: each term is transformed, flowed and inverted in
    # its own buffer and the difference formed in the first.  Measured at
    # N = 256 for both w: 3.13 fields (3.28 MB); the allocating version
    # measured 6.00.  The bound adds half a field to the three.
    phi = random_grid(2, 256, 8.0)
    weight = monomial_weight(phi, MultiIndex((2, 1)))
    used = traced_peak(heat_commutator, weight, omega, phi)
    assert used <= 3.5 * phi.samples.nbytes, used


def test_each_commutator_builds_one_multiplier(monkeypatch):
    calls = []

    def counted(phi, omega):
        calls.append(complex(omega))
        return heat_multiplier(phi, omega)

    monkeypatch.setattr(semigroup, "heat_multiplier", counted)
    phi = random_grid(2, 16, 4.0)
    commutator_direct(MultiIndex((1, 2)), 0.5 + 0.5j, phi)
    assert calls == [0.5 + 0.5j]
    radial_commutator(2, 0.25, phi)
    assert calls[1:] == [0.25]
    function_commutator(random_grid(2, 16, 4.0, seed=3), 1.0, phi)
    assert calls[2:] == [1.0]


def test_heat_flow_on_gaussian_fourier():
    # e^{w Delta} G_s = G_{s+w}: spectral route
    phi = gaussian_grid(0.5)
    out = apply_fourier(phi, 1.0)
    ref = gaussian_grid(1.5)
    assert rel_l2_error(out, ref) <= 1e-10


def test_heat_flow_on_gaussian_direct():
    phi = gaussian_grid(0.5)
    out = convolve_weighted_kernel(zero(phi.dim), 1.0, phi)
    ref = gaussian_grid(1.5)
    assert rel_l2_error(out, ref) <= 1e-8


def test_heat_flow_complex_time():
    # complex w: e^{w Delta} G_s = G_{s+w} still holds pointwise
    omega = 0.8 + 0.6j
    phi = gaussian_grid(0.5)
    out = apply_fourier(phi, omega)
    ref = gaussian_grid(0.5 + omega)
    assert rel_l2_error(out, ref) <= 1e-10
    assert rel_l2_error(convolve_weighted_kernel(zero(phi.dim), omega, phi), ref) <= 1e-8


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
    out = convolve_weighted_kernel(zero(phi.dim), 0.9, phi)
    expected = np.array([gaussian_kernel_point(0.9, [x]) for x in phi.axis()])
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
            fast = convolve_weighted_kernel(zero(phi.dim), omega, phi)
            slow = apply_direct_naive(phi, omega)
            assert rel_l2_error(fast, slow) <= 1e-14


def record_matrices(monkeypatch):
    """Record every oracle pass's matrix with its 2^k lift undone."""
    seen = []
    original = semigroup._matrix_pass

    def recorded(matrix, u, lift):
        seen.append(np.ldexp(matrix.view(np.float64), -lift).view(matrix.dtype))
        return original(matrix, u, lift)

    monkeypatch.setattr(semigroup, "_matrix_pass", recorded)
    return seen


@pytest.mark.parametrize("dim, points", [(1, 512), (2, 64), (3, 16)])
def test_toeplitz_from_offsets_is_bit_identical_on_dyadic_grids(dim, points, monkeypatch):
    # On a dyadic box the 2N-1 lattice offsets equal the differences
    # x_i - x_j exactly, so each matrix gathered from them is the one built
    # on the N x N differences, bit for bit; for real w it is that matrix's
    # real part, stored as float64.  The products are not bit-identical: a
    # real matrix runs as a dgemm on the field's float view, the dense
    # reference as tensordot's zgemm, which sums in another order.  Their
    # largest difference here is 5.5e-16 relative L2 (1-d, w = 1); 2e-15
    # leaves a factor of 3.6, and a wrong matrix moves the result by order
    # one.
    phi = random_grid(dim, points, 16.0)
    matrices = record_matrices(monkeypatch)
    betas = [b for b in enumerate_up_to(dim, 3) if dim == 1 or b.order in (0, 3)]
    for beta in betas:
        for omega in (1.0, 0.7 + 0.5j):
            matrices.clear()
            got = convolve_weighted_kernel(beta, omega, phi)
            assert len(matrices) == dim
            for matrix, b in zip(matrices, beta):
                assert matrix.dtype == (np.complex128 if complex(omega).imag else np.float64)
                assert np.array_equal(matrix, dense_axis_matrix(b, omega, phi.axis())), (beta, omega)
            ref = convolve_weighted_kernel_dense(beta, omega, phi)
            assert rel_l2_error(got, ref) <= 2e-15, (beta, omega)


LIFT_GRIDS = [(1, 512), (2, 64), (3, 16)]


@pytest.mark.parametrize("dim, points", LIFT_GRIDS)
def test_pass_moves_its_axis_last(dim, points):
    # Every pass contracts u's leading axis and returns the product,
    # C-contiguous, with that axis moved last, so n passes bring an n-d
    # field back to its own layout.  beta differs per axis and the field is
    # random, so a pass on the wrong axis or a chain that ends permuted
    # moves the result by order one; 2e-15 is the dense-reference bound of
    # test_toeplitz_from_offsets_is_bit_identical_on_dyadic_grids.
    phi = random_grid(dim, points, 16.0)
    x, h = phi.axis(), phi.spacing
    beta = MultiIndex(tuple(range(1, dim + 1)))
    for omega in (1.0 + 0.0j, 0.7 + 0.5j):
        u = phi.samples
        for b in beta:
            for out in (semigroup._toeplitz_pass(u, b, omega, h),
                        semigroup._binomial_pass(u, b, omega, x, h)):
                assert out.shape == u.shape[1:] + (points,), (b, omega)
                assert out.flags.c_contiguous, (b, omega)
            u = semigroup._toeplitz_pass(u, b, omega, h)
        got = convolve_weighted_kernel(beta, omega, phi)
        assert np.array_equal(got.samples, phi.cell_volume * u)
        ref = convolve_weighted_kernel_dense(beta, omega, phi)
        assert rel_l2_error(got, ref) <= 2e-15, omega


def lifted_and_unlifted(u, phi, omega):
    """Every pass kind on every axis of u, each moved to the front:
    (label, lifted, unlifted)."""
    x, h = phi.axis(), phi.spacing
    for axis in range(u.ndim):
        front = to_front(u, axis)
        for b in (0, 3):
            yield ((axis, "T", b), semigroup._toeplitz_pass(front, b, omega, h),
                   unlifted_toeplitz_pass(front, b, omega, h))
        for a in (1, 4):
            yield ((axis, "M", a), semigroup._binomial_pass(front, a, omega, x, h),
                   unlifted_binomial_pass(front, a, omega, x, h))


@pytest.mark.parametrize("dim, points", LIFT_GRIDS)
def test_lifted_pass_is_bit_identical_on_normal_inputs(dim, points):
    # Scaling by 2^k is exact, so with no underflow in the unlifted GEMM the
    # lifted pass gives its bits.
    phi = random_grid(dim, points, 16.0)
    for omega in (1.0 + 0.0j, 1.0 + 0.99j, 2.0 - 1.0j):
        for label, lifted, unlifted in lifted_and_unlifted(phi.samples, phi, omega):
            assert np.array_equal(lifted, unlifted), (label, omega)


@pytest.mark.parametrize("dim, points", LIFT_GRIDS)
def test_lifted_pass_is_bit_identical_where_unlifted_underflows(dim, points):
    # At w = 0.25 the kernel row exp(-d^2) reaches below 2^-1022 inside the
    # box, and gauss-wide's tails times it fall below that too.  Those
    # products are subnormal in the unlifted GEMM but add nothing at any
    # output's last bit, so the lifted pass still gives the unlifted bits.
    phi = realize_checked("gauss-wide", dim, points, 16.0)
    omega = 0.25 + 0.0j
    row = semigroup._kernel_row(omega, semigroup._lattice_offsets(points, phi.spacing))
    smallest = math.log2(row[row > 0].min()) + math.log2(np.abs(phi.samples).min())
    assert smallest < -1022
    for label, lifted, unlifted in lifted_and_unlifted(phi.samples, phi, omega):
        assert np.array_equal(lifted, unlifted), label


def central_field(dim, points, half_width):
    """A random field on |x_j| < L/2 and exact zeros outside, so the
    passes' outputs near the box's edge are sums of kernel tails."""
    phi = random_grid(dim, points, half_width)
    inside = [np.abs(x) < half_width / 2 for x in coordinates(dim, points, half_width)]
    return phi.with_samples(phi.samples * reduce(np.logical_and, inside))


@pytest.mark.parametrize("dim, points", LIFT_GRIDS)
@pytest.mark.parametrize("target", [1e-300, 1e300])
def test_lifted_pass_scales_with_extreme_fields(dim, points, target):
    # A field scaled by 2^s to a maximum near 1e-300 or 1e300 gives 2^s
    # times the pass of the unscaled field, finite and bit for bit: the lift
    # moves with the field, so the GEMM sees the same normal products and
    # sums and only the final 2^-k rounds, once.  Unlifted, the kernel-tail
    # products of the 1e-300 field are subnormal and each rounds on its
    # own, which moves the outputs near the edge.
    phi = central_field(dim, points, 16.0)
    parts = phi.samples.view(np.float64)
    s = round(math.log2(target / np.abs(parts).max()))
    scaled = np.ldexp(parts, s).view(np.complex128)
    x, h = phi.axis(), phi.spacing
    for omega in (0.25 + 0.0j, 1.0 + 0.99j):
        for axis in range(dim):
            for apply in (lambda u: semigroup._toeplitz_pass(u, 3, omega, h),
                          lambda u: semigroup._binomial_pass(u, 4, omega, x, h)):
                got = apply(to_front(scaled, axis))
                assert np.all(np.isfinite(got)), (axis, omega)
                want = np.ldexp(apply(to_front(phi.samples, axis)).view(np.float64), s)
                assert np.array_equal(got.view(np.float64), want), (axis, omega)


@pytest.mark.parametrize("k", [-1100, -1023, -1022, -990, 0, 990, 1022, 1023, 1100])
def test_scale_exactly_matches_ldexp(k):
    # Past |k| = 1022 the scaling never forms 2.0**k (subnormal below -1022,
    # infinite above 1023) and calls ldexp instead; either way the result
    # is rounded once, as ldexp rounds it.
    values = np.array([1.0, -3.5e-300, 7.25e300, 2.0**-1060, -0.0]) * (1 + 1j)
    with np.errstate(over="ignore"):
        want = np.ldexp(values.view(np.float64), k)
        semigroup._scale_exactly(values, k)
    assert np.array_equal(values.view(np.float64), want)


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
        convolve_weighted_kernel(zero(phi.dim), 1.0, phi)


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
        [gaussian_kernel_point(omega + sigma, [x]) for x in xs]
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
        out = convolve_weighted_kernel(zero(mixture.dim), omega, mixture)
        for p, q in ((1.0, 1.0), (2.0, 1.0), (math.inf, 2.0)):
            inv_r = 1.0 / p + 1.0 - 1.0 / q
            r = math.inf if inv_r == 0 else 1.0 / inv_r
            kern = weighted_kernel_grid(zero(1), omega, 512, 16.0)
            bound = lp_norm(kern, r) * lp_norm(mixture, q)
            assert lp_norm(out, p) <= bound * (1 + 1e-9), (omega, p, q)
