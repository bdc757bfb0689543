"""Complex-valued functions sampled on uniform tensor grids, with L^p norms.

The grid covers the box [-L, L)^n with N points per axis (spacing
h = 2L/N), row-major sample layout.  GridFunctions are frozen after
construction; every operation allocates a fresh output.

coordinates() is the one source of grid coordinates: the open mesh, one
N-point axis per dimension shaped to broadcast against the samples.  Every
sampled object (weights, test functions, kernels, the boundary band) is
built from it with the same elementwise operations a full N^n mesh would
take, so broadcasting changes no bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .multiindex import MultiIndex, check_index, check_order

# The least denominator of a relative L^2 discrepancy: a zero reference
# gives the raw numerator scale instead of a division by zero.
NORM_FLOOR = 1e-30


def check_grid(dim: int, points: int, half_width: float) -> None:
    """The grid rule: n >= 1, N a power of two >= 8, L finite and positive."""
    check_order(dim, "dim")
    if points < 8 or points & (points - 1):
        raise ValueError(f"grid points must be a power of two >= 8, got {points}")
    check_positive(half_width, "grid half-width")


def _axis(points: int, half_width: float) -> np.ndarray:
    """1-d coordinates x_k = -L + k*h, shared by every axis."""
    return -half_width + (2.0 * half_width / points) * np.arange(points)


def coordinates(dim: int, points: int, half_width: float) -> list[np.ndarray]:
    """The grid's coordinates as an indexing="ij" open mesh.

    Entry j holds the axis along array axis j and has length 1 on every
    other axis, so the entries broadcast to the (points,) * dim grid.
    """
    check_grid(dim, points, half_width)
    return list(np.meshgrid(*([_axis(points, half_width)] * dim), indexing="ij", sparse=True))


def check_exponent(p: float) -> float:
    """The exponent rule: 1 <= p <= inf (nan fails)."""
    if not 1.0 <= p <= math.inf:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p


def reciprocal(p: float) -> float:
    """1/p for an exponent p, with the convention 1/inf = 0."""
    return 0.0 if check_exponent(p) == math.inf else 1.0 / p


def check_positive(value: float, name: str) -> float:
    """The scale rule: 0 < value < inf, nan fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on the uniform grid x in [-L, L)^n."""

    dim: int
    points: int
    half_width: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_grid(self.dim, self.points, self.half_width)
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.points,) * self.dim:
            raise ValueError(f"samples shape {arr.shape} != {(self.points,) * self.dim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """1-d coordinates x_k = -L + k*h, shared by every axis."""
        return _axis(self.points, self.half_width)

    def conformable(self, other: "GridFunction") -> bool:
        return (
            self.dim == other.dim
            and self.points == other.points
            and self.half_width == other.half_width
        )

    def require_conformable(self, other: "GridFunction") -> None:
        if not self.conformable(other):
            raise ValueError(
                f"grids not conformable: ({self.dim},{self.points},{self.half_width})"
                f" vs ({other.dim},{other.points},{other.half_width})"
            )

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(self.dim, self.points, self.half_width, samples)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self.require_conformable(other)
        return self.with_samples(self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self.require_conformable(other)
        return self.with_samples(self.samples - other.samples)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return self.with_samples(self.samples * scalar)

    __rmul__ = __mul__


def lp_norm(phi: GridFunction, p: float) -> float:
    """Grid L^p norm: (h^n sum |phi|^p)^(1/p) for finite p, max |phi| for p = inf."""
    if check_exponent(p) == math.inf:
        return float(np.max(np.abs(phi.samples)))
    mags = np.abs(phi.samples)
    if p == 1.0:
        return float(phi.cell_volume * mags.sum())
    if p == 2.0:
        return float(math.sqrt(phi.cell_volume * np.square(mags).sum()))
    return float((phi.cell_volume * (mags**p).sum()) ** (1.0 / p))


def rel_l2_error(result: GridFunction, reference: GridFunction) -> float:
    """Relative L^2 discrepancy, denominated by max(||reference||_2, NORM_FLOOR)."""
    reference.require_conformable(result)
    return lp_norm(result - reference, 2.0) / max(lp_norm(reference, 2.0), NORM_FLOOR)


def monomial_weight(phi: GridFunction, alpha: MultiIndex) -> np.ndarray:
    """x^alpha on the grid of phi, shaped to broadcast against its samples."""
    check_index(alpha, phi.dim)
    mesh = coordinates(phi.dim, phi.points, phi.half_width)
    weight = np.ones_like(mesh[0])
    for axis_coord, power in zip(mesh, alpha):
        if power:
            weight = weight * axis_coord**power
    return weight


def radial_weight(phi: GridFunction, m: int) -> np.ndarray:
    """|x|^m on the grid of phi, shaped to broadcast against its samples."""
    if m < 0:
        raise ValueError("radial weight power must be >= 0")
    radius_sq = sum(c**2 for c in coordinates(phi.dim, phi.points, phi.half_width))
    return radius_sq ** (m / 2.0)


def weight_multiply(phi: GridFunction, alpha: MultiIndex) -> GridFunction:
    """Pointwise x^alpha * phi."""
    weight = monomial_weight(phi, alpha)
    if alpha.order == 0:
        return phi
    return phi.with_samples(weight * phi.samples)


def weight_multiply_radial(phi: GridFunction, m: int) -> GridFunction:
    """Pointwise |x|^m * phi."""
    if m == 0:
        return phi
    return phi.with_samples(radial_weight(phi, m) * phi.samples)


def boundary_mass_fraction(phi: GridFunction) -> float:
    """Fraction of the L^1 mass at grid distance >= L/2 from the origin.

    This is the harness guard for periodization: Fourier-based operators are
    only comparable to exact-kernel quadrature when this is tiny.
    """
    mags = np.abs(phi.samples)
    total = mags.sum()
    if total == 0.0:
        return 0.0
    band = reduce(np.logical_or, [np.abs(c) >= phi.half_width / 2.0
                                  for c in coordinates(phi.dim, phi.points, phi.half_width)])
    return float(mags[band].sum() / total)

