"""The semigroup e^{w*Laplacian} on grids, two independent ways.

apply_fourier is the production path (diagonal in the discrete Fourier
basis).  apply_direct is the quadrature oracle: the plain sum

    (e^{w*Laplacian} phi)(x) ~ h^n sum_y G_w(x - y) phi(y)

with the kernel evaluated exactly, no periodic extension.  The kernel
factorizes per axis, so the oracle is applied as one Toeplitz matrix per
axis, gathered from its 2N-1 distinct entries; that reorders no terms
across axes and keeps the cost at O(n N^{n+1}) instead of O(N^{2n}).
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


def _xi_squared(dim: int, points: int, half_width: float) -> np.ndarray:
    xi = frequencies(points, half_width)
    total = np.zeros((points,) * dim)
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = points
        total = total + np.square(xi).reshape(shape)
    return total


def xi_squared(phi: GridFunction) -> np.ndarray:
    """|xi|^2 on the frequency grid of phi, FFT order."""
    return _xi_squared(phi.dim, phi.points, phi.half_width)


# One entry: an evaluator applies one omega many times in a row, and a
# sweep cycles through its omegas, so a few more entries would still miss
# once per case unless they held every omega, at N^n complex values each.
@lru_cache(maxsize=1)
def _heat_multiplier(dim: int, points: int, half_width: float, w: complex) -> np.ndarray:
    """exp(-w |xi|^2), read-only because every caller shares it."""
    multiplier = np.exp(-w * _xi_squared(dim, points, half_width))
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


def convolve_weighted_kernel(beta: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """Quadrature convolution (x^beta G_w) * phi, kernel exact, no DFT.

    Computes h^n sum_y prod_j [(x_j - y_j)^{beta_j} g_w(x_j - y_j)] phi(y)
    by applying the 1-d Toeplitz matrix of each axis factor in turn.
    """
    w = check_omega(omega)
    if beta.dim != phi.dim:
        raise ValueError(f"weight dim {beta.dim} != grid dim {phi.dim}")
    check_oracle_grid(phi.dim, phi.points)
    n = phi.points
    # The 2N-1 lattice offsets (i - j) h; on a dyadic box they equal the
    # differences x_i - x_j exactly.
    offsets = phi.spacing * np.arange(-(n - 1), n)
    base = _axis_gaussian(w, offsets)
    out = phi.samples
    for axis, b in enumerate(beta):
        row = base * offsets**b if b else base
        # matrix[i, j] = row[n - 1 + i - j]: the Toeplitz matrix of the row.
        matrix = np.ascontiguousarray(sliding_window_view(row[::-1], n)[::-1])
        out = np.moveaxis(np.tensordot(matrix, out, axes=([1], [axis])), 0, axis)
    return phi.with_samples(phi.cell_volume * out)


def apply_direct(phi: GridFunction, omega) -> GridFunction:
    """Quadrature oracle for e^{w*Laplacian} phi (see convolve_weighted_kernel)."""
    return convolve_weighted_kernel(zero(phi.dim), omega, phi)
