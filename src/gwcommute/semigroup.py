"""The semigroup e^{w*Laplacian} on grids, two independent ways.

apply_fourier is the production path (diagonal in the discrete Fourier
basis).  apply_direct is the quadrature oracle: the plain sum

    (e^{w*Laplacian} phi)(x) ~ h^n sum_y G_w(x - y) phi(y)

with the kernel evaluated exactly, no periodic extension.  The kernel
factorizes per axis, so the oracle is a sequence of Toeplitz passes: one
N x N matrix per axis, gathered from its 2N-1 distinct entries, built just
before its pass and applied with one matmul.  That reorders no terms
across axes and keeps the cost at O(n N^{n+1}) instead of O(N^{2n}).
commutator.evaluate_R_convolution chains these passes with one more kind,
_binomial_pass, whose matrix folds a whole binomial sum of weighted
kernels along one axis: at most 4 passes per alpha in 2-d, 40 over the
14 alpha with 1 <= |alpha| <= 4, and one per alpha in 1-d.
"""
from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridFunction
from .hermite import gaussian_kernel_point, gaussian_log_prefactor
from .multiindex import MultiIndex, zero

# Work guard for the quadrature oracle: it exists for cross-validation, not
# production.  points <= 512 per axis and at most 2^22 samples total.
_ORACLE_MAX_POINTS = 512
_ORACLE_MAX_SAMPLES = 1 << 22


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


def kernel(omega, x) -> complex:
    """G_w(x) = (4 pi w)^{-n/2} exp(-|x|^2/(4w)), principal branch."""
    return gaussian_kernel_point(complex(omega), x)


def _axis_gaussian(omega: complex, t: np.ndarray) -> np.ndarray:
    """One Cartesian factor of G_w: (4 pi w)^{-1/2} exp(-t^2/(4w)).

    The prefactor angle is -theta/2 with theta in (-pi/2, pi/2), so taking
    the n-fold product reproduces the principal (4 pi w)^{-n/2} exactly.
    """
    pref = np.exp(gaussian_log_prefactor(omega, 1))
    return pref * np.exp(-np.square(t) / (4.0 * omega))


def kernel_grid(omega, dim: int, points: int, half_width: float) -> GridFunction:
    """Samples of G_w on the standard grid."""
    if complex(omega) == 0:
        raise ValueError("omega must be nonzero")
    return weighted_kernel_grid(zero(dim), omega, points, half_width)


def weighted_kernel_grid(beta: MultiIndex, omega, points: int,
                         half_width: float) -> GridFunction:
    """Samples of x^beta G_w (kernel of one convolution term)."""
    w = complex(omega)
    template = GridFunction(beta.dim, points, half_width,
                            np.zeros((points,) * beta.dim))
    x = template.axis()
    base = _axis_gaussian(w, x)
    samples = None
    for b in beta:
        factor = base * x**b if b else base
        samples = factor if samples is None else np.multiply.outer(samples, factor)
    return template.with_samples(samples)


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


def xi_squared(phi: GridFunction) -> np.ndarray:
    """|xi|^2 on the frequency grid of phi, FFT order."""
    return _axis_sum(np.square(frequencies(phi.points, phi.half_width)), phi.dim)


# One entry: one identity or estimate case applies its omega several times
# in a row, and a sweep cycles through its omegas, so a few more entries
# would still miss once per case unless they held every omega, at N^n
# complex values each.  Under the case-level pool in cli, workers hold
# different omegas and evict each other's entry; that costs recomputed
# exp(-w|xi|^2), never a wrong value.  Only commutator_direct reads it in an
# identity case, twice; over the 216 acceptance-03 cases through
# cli.run_identity that is 216 hits of 432 lookups sequentially and 161-180
# with two workers (ten runs, BLAS pinned to one thread).
@lru_cache(maxsize=1)
def _heat_multiplier(dim: int, points: int, half_width: float, w: complex) -> np.ndarray:
    """exp(-w |xi|^2), read-only because every caller shares it.

    xi_{-k}^2 equals xi_k^2 exactly, so exp runs only on the (N/2 + 1)^n
    representatives |k_j| <= N/2 and the rest is gathered from them: every
    exp input, hence every value, is the one the full grid would give.
    """
    half = points // 2 + 1
    total = _axis_sum(np.square(frequencies(points, half_width))[:half], dim)
    # FFT position k holds frequency k for k <= N/2 and k - N above it.
    index = np.minimum(np.arange(points), points - np.arange(points))
    multiplier = np.exp(-w * total)[np.ix_(*([index] * dim))]
    multiplier.setflags(write=False)
    return multiplier


def heat_multiplier(phi: GridFunction, omega) -> np.ndarray:
    """exp(-w |xi|^2) on the frequency grid of phi, FFT order; re w >= 0.

    Cached and shared by every caller, hence read-only.
    """
    w = complex(omega)
    if w.real < 0.0:
        raise ValueError(f"re omega must be >= 0, got {w}")
    return _heat_multiplier(phi.dim, phi.points, phi.half_width, w)


def apply_fourier(phi: GridFunction, omega) -> GridFunction:
    """e^{w*Laplacian} phi as the Fourier multiplier exp(-w |xi|^2).

    Accepts any re w >= 0 (w = 0 is the identity); linear in phi.
    """
    w = complex(omega)
    multiplier = heat_multiplier(phi, w)
    if w == 0:
        return phi
    spectrum = np.fft.fftn(phi.samples)
    spectrum *= multiplier
    return phi.with_samples(np.fft.ifftn(spectrum))


def derivative_multiplier(phi: GridFunction, delta: MultiIndex):
    """prod_j (i xi_j)^{delta_j} on the frequency grid of phi, FFT order.

    The outer product of the 1-d factors; the scalar 1.0 when delta = 0.
    """
    if delta.dim != phi.dim:
        raise ValueError(f"derivative index dim {delta.dim} != grid dim {phi.dim}")
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


def _matrix_pass(matrix: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """Apply an N x N matrix along one axis of u with one matmul."""
    n = u.shape[axis]
    if axis == 0:
        return (matrix @ u.reshape(n, -1)).reshape(u.shape)
    if axis == u.ndim - 1:
        return u @ matrix.T
    return (matrix @ u.reshape(math.prod(u.shape[:axis]), n, -1)).reshape(u.shape)


def _toeplitz_pass(u: np.ndarray, axis: int, b: int, omega: complex,
                   spacing: float) -> np.ndarray:
    """Apply along one axis of u the Toeplitz matrix of t^b g_w(t).

    matrix[i, j] = (x_i - x_j)^b g_w(x_i - x_j) with g_w the axis factor of
    G_w; the matrix is built here and dropped after the one product.
    """
    n = u.shape[axis]
    offsets = _lattice_offsets(n, spacing)
    row = _axis_gaussian(omega, offsets)
    if b:
        row = row * offsets**b
    return _matrix_pass(np.ascontiguousarray(_lattice_view(row, n)), u, axis)


def _binomial_pass(u: np.ndarray, axis: int, a: int, omega: complex,
                   x: np.ndarray, spacing: float) -> np.ndarray:
    """sum_{b=1..a} C(a, b) T_b (x^{a-b} u) along one axis, as one pass.

    T_b is the _toeplitz_pass of t^b g_w(t).  The sum is the matrix

        M_a[i, k] = g_w(d) sum_{b=1..a} C(a, b) d^b x_k^{a-b},  d = x_i - x_k,

    built by Horner in d, never as g_w(d) (x_i^a - x_k^a), which cancels
    where d is small.  It is built in one N x N buffer from strided views of
    2N-1 rows, so one pass holds no more memory than one _toeplitz_pass.
    x holds the N axis coordinates x_k.
    """
    n = u.shape[axis]
    # complex offsets, so no in-place product below casts
    offsets = _lattice_offsets(n, spacing).astype(complex)
    gauss = _lattice_view(_axis_gaussian(omega, offsets), n)
    d = _lattice_view(offsets, n)
    matrix = np.array(d)
    with np.errstate():  # restores the buffer size on exit
        # An in-place product with a strided or broadcast operand runs
        # through a scratch buffer, 8192 elements (128 KiB) by default;
        # one row's worth keeps it small beside the matrix.
        np.setbufsize(n)
        for b in range(a - 1, 0, -1):
            matrix += (math.comb(a, b) * x ** (a - b)).astype(complex)
            matrix *= d
        matrix *= gauss
    return _matrix_pass(matrix, u, axis)


def convolve_weighted_kernel(beta: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """Quadrature convolution (x^beta G_w) * phi, kernel exact, no DFT.

    Computes h^n sum_y prod_j [(x_j - y_j)^{beta_j} g_w(x_j - y_j)] phi(y)
    by one Toeplitz pass per axis.
    """
    w = check_omega(omega)
    if beta.dim != phi.dim:
        raise ValueError(f"weight dim {beta.dim} != grid dim {phi.dim}")
    check_oracle_grid(phi.dim, phi.points)
    out = phi.samples
    for axis, b in enumerate(beta):
        out = _toeplitz_pass(out, axis, b, w, phi.spacing)
    return phi.with_samples(phi.cell_volume * out)


def apply_direct(phi: GridFunction, omega) -> GridFunction:
    """Quadrature oracle for e^{w*Laplacian} phi (see convolve_weighted_kernel)."""
    return convolve_weighted_kernel(zero(phi.dim), omega, phi)
