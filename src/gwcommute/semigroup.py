"""The semigroup e^{w*Laplacian} on grids, two independent ways.

The time w is finite with re w > 0, the paper's domain.  check_omega is
the one rule for it: every entry that takes w calls it, the spectral ones
through heat_multiplier, so w = 0 and re w = 0 are rejected everywhere.

The spectral path is diagonal in the discrete Fourier basis:
heat_multiplier builds exp(-w |xi|^2), apply_fourier flows one field
through it, and heat_commutator flows both terms of
[eta, e^{w*Laplacian}] phi through one multiplier.  The flows run in
place: each field is transformed, multiplied and transformed back in one
buffer (numpy.fft's out=), so a commutator holds two fields beside its
multiplier.  The commutators with x^a, |x|^m and a sampled eta all call
heat_commutator; the CGL stepper takes its multipliers from
heat_multiplier.  convolve_weighted_kernel is
the quadrature oracle; at beta = 0 it is the plain sum

    (e^{w*Laplacian} phi)(x) ~ h^n sum_y G_w(x - y) phi(y)

with the kernel evaluated exactly, no periodic extension.  The kernel
factorizes per axis, so the oracle is a sequence of Toeplitz passes: one
N x N matrix per axis, gathered from its 2N-1 distinct entries, built just
before its pass and applied with one matmul.  That reorders no terms
across axes and keeps the cost at O(n N^{n+1}) instead of O(N^{2n}).
Every pass contracts its field's leading axis and returns the product
with that axis moved last, so n passes bring an n-d field back to its own
layout.  commutator.evaluate_R_convolution chains these passes with one
more kind, _binomial_pass, whose matrix folds a whole binomial sum of
weighted kernels along one axis.

Every pass lifts its 2N-1 kernel row by an exact power of two 2^k before
gathering the matrix, runs the GEMM and multiplies the product by 2^-k in
place.  k is the largest exponent that keeps every partial sum of the GEMM
below 2^_LIFT_CEILING; it comes from the row's maximum, a bound on the
binomial polynomial and one max/min over the field (_lift_row).
Scaling by 2^k is exact, so the product is bit for bit the unlifted one
wherever that one did not underflow.  Where it did (at w = 0.25 the
kernel tail and the field's tail multiply to below 2^-1022), the lifted
GEMM keeps those products normal: they are more accurate, and BLAS does
not slow down on subnormal operands.

For real w the axis factor g_w is real: the rows hold the real parts of
the complex values, bit for bit, and the matrices are float64.  A real
matrix applies to the complex field as one dgemm on its float view
(_matrix_pass); complex w keeps complex matrices and zgemm.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridFunction, coordinates
from .multiindex import MultiIndex, check_index

# Work guard for the quadrature oracle: it exists for cross-validation, not
# production.  points <= 512 per axis and at most 2^22 samples total.
_ORACLE_MAX_POINTS = 512
_ORACLE_MAX_SAMPLES = 1 << 22
# Every lifted pass keeps its GEMM's partial sums below 2^_LIFT_CEILING.
_LIFT_CEILING = 1000


def check_omega(omega, name: str = "omega") -> complex:
    """The semigroup time rule: w finite with re w > 0; returns complex(w)."""
    w = complex(omega)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"{name} must be finite, got {w}")
    if not w.real > 0.0:
        raise ValueError(f"{name} must have positive real part, got {w}")
    return w


def check_theta(theta: float) -> float:
    """The angle rule: theta = arg w with |theta| < pi/2 (nan fails)."""
    if not abs(theta) < math.pi / 2.0:
        raise ValueError(
            f"theta = {theta} outside (-pi/2, pi/2); the constants diverge there"
        )
    return theta


def gaussian_log_prefactor(omega: complex, dim: int) -> complex:
    """log (4 pi w)^{-n/2} via the principal log of 4 pi w, the analytic
    continuation from w > 0 across re w > 0; angle atan2(im w, re w)."""
    theta = math.atan2(omega.imag, omega.real)
    return -0.5 * dim * (math.log(4.0 * math.pi * abs(omega)) + 1j * theta)


def _axis_gaussian(omega: complex, t: np.ndarray) -> np.ndarray:
    """One Cartesian factor of G_w: (4 pi w)^{-1/2} exp(-t^2/(4w)).

    The prefactor angle is -theta/2 with theta in (-pi/2, pi/2), so taking
    the n-fold product reproduces the principal (4 pi w)^{-n/2} exactly.
    """
    pref = np.exp(gaussian_log_prefactor(omega, 1))
    return pref * np.exp(-np.square(t) / (4.0 * omega))


def weighted_kernel_grid(beta: MultiIndex, omega, points: int,
                         half_width: float) -> GridFunction:
    """Samples of x^beta G_w (kernel of one convolution term); beta = 0 gives G_w.

    The product of the axis factors x_j^{beta_j} g_w(x_j), taken in axis order.
    """
    w = check_omega(omega)
    factors = [_axis_gaussian(w, x) * x**b if b else _axis_gaussian(w, x)
               for x, b in zip(coordinates(beta.dim, points, half_width), beta)]
    return GridFunction(beta.dim, points, half_width, reduce(np.multiply, factors))


def frequencies(points: int, half_width: float) -> np.ndarray:
    """Discrete frequencies xi_k = pi k / L, k in {-N/2, ..., N/2 - 1}, FFT order."""
    spacing = 2.0 * half_width / points
    return 2.0 * math.pi * np.fft.fftfreq(points, d=spacing)


def _axis_sum(xi_sq: np.ndarray, dim: int) -> np.ndarray:
    """sum_j xi_sq[k_j] on the dim-fold grid, added axis by axis from zero."""
    total = np.zeros((xi_sq.size,) * dim)
    for axis in range(dim):
        total = total + xi_sq.reshape((-1,) + (1,) * (dim - 1 - axis))
    return total


def heat_multiplier(phi: GridFunction, omega) -> np.ndarray:
    """exp(-w |xi|^2) on the frequency grid of phi, FFT order; w by check_omega.

    xi_{-k}^2 equals xi_k^2 exactly, so exp runs only on the (N/2 + 1)^n
    representatives |k_j| <= N/2 and the rest is gathered from them: every
    exp input, hence every value, is the one the full grid would give.
    """
    w = check_omega(omega)
    points = phi.points
    half = points // 2 + 1
    total = _axis_sum(np.square(frequencies(points, phi.half_width))[:half], phi.dim)
    # FFT position k holds frequency k for k <= N/2 and k - N above it.
    index = np.minimum(np.arange(points), points - np.arange(points))
    return np.exp(-w * total)[np.ix_(*([index] * phi.dim))]


def apply_fourier(phi: GridFunction, omega) -> GridFunction:
    """e^{w*Laplacian} phi as the Fourier multiplier exp(-w |xi|^2); linear in phi."""
    multiplier = heat_multiplier(phi, omega)
    spectrum = np.fft.fftn(phi.samples)
    spectrum *= multiplier
    return phi.with_samples(np.fft.ifftn(spectrum, out=spectrum))


def heat_commutator(weight: np.ndarray, omega, phi: GridFunction) -> GridFunction:
    """[eta, e^{w*Laplacian}] phi = eta e^{wD}phi - e^{wD}(eta phi).

    weight holds the samples of eta and broadcasts against phi.samples.
    Both flows share one multiplier, which checks w.  Each term is
    transformed, flowed and inverted in its own buffer, and the difference
    is formed in the first.
    """
    multiplier = heat_multiplier(phi, omega)
    flowed = np.fft.fftn(phi.samples)
    flowed *= multiplier
    np.fft.ifftn(flowed, out=flowed)
    weighted = np.multiply(weight, phi.samples)
    np.fft.fftn(weighted, out=weighted)
    weighted *= multiplier
    np.fft.ifftn(weighted, out=weighted)
    np.multiply(weight, flowed, out=flowed)
    flowed -= weighted
    return phi.with_samples(flowed)


def derivative_multiplier(phi: GridFunction, delta: MultiIndex):
    """prod_j (i xi_j)^{delta_j} on the frequency grid of phi, FFT order.

    The outer product of the 1-d factors; the scalar 1.0 when delta = 0.
    """
    check_index(delta, phi.dim, "delta")
    if delta.order == 0:
        return 1.0
    ixi = 1j * frequencies(phi.points, phi.half_width)
    return reduce(np.multiply.outer, [ixi**d for d in delta])


def spectral_derivative(phi: GridFunction, delta: MultiIndex) -> GridFunction:
    """d^delta phi via the multiplier prod_j (i xi_j)^{delta_j}."""
    multiplier = derivative_multiplier(phi, delta)
    if delta.order == 0:
        return phi
    return phi.with_samples(np.fft.ifftn(np.fft.fftn(phi.samples) * multiplier))


def check_oracle_grid(dim: int, points: int) -> None:
    """Reject a grid beyond the quadrature oracle's work limit."""
    if points > _ORACLE_MAX_POINTS or points**dim > _ORACLE_MAX_SAMPLES:
        raise ValueError(
            "quadrature oracle limited to <= 512 points per axis and 2^22 samples"
        )


def _lattice_offsets(n: int, spacing: float) -> np.ndarray:
    """The 2N-1 lattice offsets (i - j) h; on a dyadic box they equal the
    differences x_i - x_j exactly."""
    return spacing * np.arange(-(n - 1), n)


def _lattice_view(row: np.ndarray, n: int) -> np.ndarray:
    """view[i, j] = row[n - 1 + i - j]: the N x N Toeplitz matrix of a
    2N-1 row, as a strided view without a copy."""
    return sliding_window_view(row[::-1], n)[::-1]


def _kernel_row(omega: complex, offsets: np.ndarray) -> np.ndarray:
    """g_w on the lattice offsets as a fresh row: float64 when w is real
    (the real parts of the complex values, bit for bit), else complex."""
    row = _axis_gaussian(omega, offsets)
    return np.ascontiguousarray(row.real) if omega.imag == 0 else row


def _lift_row(row: np.ndarray, poly_bound: float, u: np.ndarray) -> int:
    """Lift a pass's fresh 2n-1 kernel row by 2^k in place; returns k.

    n = u.shape[0].  The pass's unlifted matrix entries have real and
    imaginary parts at most E = max|row part| * poly_bound, and one max and
    one min over the float view of u (C-contiguous) bound the field's parts
    by F.  Each output part sums at most 2n products of parts.  With
    E < 2^{e_E} and F < 2^{e_F} (math.frexp),
    k = _LIFT_CEILING - e_E - max(e_F + bits(2n), 0) keeps every lifted
    partial sum and every lifted entry below 2^_LIFT_CEILING.
    """
    parts = u.view(np.float64)
    field_max = max(parts.max(), -parts.min())
    entry_max = np.abs(row.view(np.float64)).max() * poly_bound
    sum_bits = math.frexp(field_max)[1] + (2 * u.shape[0]).bit_length()
    lift = _LIFT_CEILING - math.frexp(entry_max)[1] - max(sum_bits, 0)
    _scale_exactly(row, lift)
    return lift


def _scale_exactly(values: np.ndarray, k: int) -> None:
    """values *= 2^k in place on the float view; exact, or rounded once
    where the result is subnormal.  2.0**k is formed only while normal."""
    parts = values.view(np.float64)
    if abs(k) <= 1022:
        parts *= 2.0**k
    else:
        np.ldexp(parts, k, out=parts)


def _matrix_pass(matrix: np.ndarray, u: np.ndarray, lift: int) -> np.ndarray:
    """Contract u's leading axis with an N x N matrix lifted by 2^lift and
    return the product, lift undone, C-contiguous with that axis moved last.

    A complex matrix writes the moved layout directly (one zgemm); a real
    one runs as one dgemm on the float view of u, where the real and
    imaginary parts interleave, and its product is copied transposed.
    """
    flat = u.reshape(u.shape[0], -1)
    if matrix.dtype == np.complex128:
        out = flat.T @ matrix.T
    else:
        out = (matrix @ flat.view(np.float64)).view(np.complex128).T.copy()
    _scale_exactly(out, -lift)
    return out.reshape(u.shape[1:] + u.shape[:1])


def _toeplitz_pass(u: np.ndarray, b: int, omega: complex, spacing: float) -> np.ndarray:
    """Apply along u's leading axis the Toeplitz matrix of t^b g_w(t).

    matrix[i, j] = (x_i - x_j)^b g_w(x_i - x_j) with g_w the axis factor of
    G_w, real for real w; the matrix is gathered from the lifted row here
    and dropped after the one product.
    """
    n = u.shape[0]
    offsets = _lattice_offsets(n, spacing)
    row = _kernel_row(omega, offsets)
    if b:
        row = row * offsets**b
    lift = _lift_row(row, 1.0, u)
    return _matrix_pass(np.ascontiguousarray(_lattice_view(row, n)), u, lift)


def _binomial_pass(u: np.ndarray, a: int, omega: complex, x: np.ndarray,
                   spacing: float) -> np.ndarray:
    """sum_{b=1..a} C(a, b) T_b (x^{a-b} u) along u's leading axis, as one pass.

    T_b is the _toeplitz_pass of t^b g_w(t).  The sum is the matrix

        M_a[i, k] = g_w(d) sum_{b=1..a} C(a, b) d^b x_k^{a-b},  d = x_i - x_k,

    built by Horner in d, never as g_w(d) (x_i^a - x_k^a), which cancels
    where d is small.  It is built in one N x N buffer from strided views of
    2N-1 rows, so one pass holds no more memory than one _toeplitz_pass.
    x holds the N axis coordinates x_k.  The polynomial factor is at most
    (|d| + |x_k|)^a <= (3L)^a, which bounds the entries for the lift.  The
    matrix takes the row's dtype: real for real w.
    """
    n = u.shape[0]
    offsets = _lattice_offsets(n, spacing)
    row = _kernel_row(omega, offsets)
    lift = _lift_row(row, (1.5 * n * spacing) ** a, u)
    # offsets in the row's dtype, so no in-place product below casts
    offsets = offsets.astype(row.dtype, copy=False)
    gauss = _lattice_view(row, n)
    d = _lattice_view(offsets, n)
    matrix = np.array(d)
    with np.errstate():  # restores the buffer size on exit
        # An in-place product with a strided or broadcast operand runs
        # through a scratch buffer, 8192 elements (128 KiB) by default;
        # one row's worth keeps it small beside the matrix.
        np.setbufsize(n)
        for b in range(a - 1, 0, -1):
            matrix += (math.comb(a, b) * x ** (a - b)).astype(row.dtype, copy=False)
            matrix *= d
        matrix *= gauss
    return _matrix_pass(matrix, u, lift)


def convolve_weighted_kernel(beta: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """Quadrature convolution (x^beta G_w) * phi, kernel exact, no DFT.

    Computes h^n sum_y prod_j [(x_j - y_j)^{beta_j} g_w(x_j - y_j)] phi(y)
    by one Toeplitz pass per axis.
    """
    w = check_omega(omega)
    check_index(beta, phi.dim, "beta")
    check_oracle_grid(phi.dim, phi.points)
    out = phi.samples
    for b in beta:
        out = _toeplitz_pass(out, b, w, phi.spacing)
    return phi.with_samples(phi.cell_volume * out)
