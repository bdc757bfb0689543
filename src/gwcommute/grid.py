"""Complex-valued functions sampled on uniform tensor grids, with L^p norms.

The grid covers the box [-L, L)^n with N points per axis (spacing
h = 2L/N), row-major sample layout.  GridFunctions are frozen after
construction; every operation allocates a fresh output.
"""
from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .multiindex import MultiIndex

_MAGIC = b"GWGF"
_FORMAT_VERSION = 1


def check_grid(dim: int, points: int, half_width: float) -> None:
    """The grid rule: n >= 1, N a power of two >= 8, L finite and positive."""
    if dim < 1:
        raise ValueError(f"grid needs dimension n >= 1, got {dim}")
    if points < 8 or points & (points - 1):
        raise ValueError(f"grid points must be a power of two >= 8, got {points}")
    if not 0.0 < half_width < math.inf:
        raise ValueError(f"grid half-width must be finite and positive, got {half_width!r}")


def check_exponent(p: float) -> float:
    """The exponent rule: 1 <= p <= inf (nan fails)."""
    if not 1.0 <= p <= math.inf:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p


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
        return -self.half_width + self.spacing * np.arange(self.points)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))

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


def from_callable(fn, dim: int, points: int, half_width: float) -> GridFunction:
    """Sample fn(x_1, ..., x_n) (numpy-vectorized) on the grid."""
    g = GridFunction(dim, points, half_width, np.zeros((points,) * dim))
    values = fn(*g.meshgrid())
    return g.with_samples(np.broadcast_to(values, (points,) * dim).astype(np.complex128))


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


def rel_l2_error(result: GridFunction, reference: GridFunction, floor: float = 1e-30) -> float:
    """Relative L^2 discrepancy, denominated by max(||reference||_2, floor)."""
    reference.require_conformable(result)
    return lp_norm(result - reference, 2.0) / max(lp_norm(reference, 2.0), floor)


def _open_mesh(phi: GridFunction) -> list[np.ndarray]:
    """The axis coordinates shaped to broadcast against the samples.

    Powers of these are taken on N values per axis, not N^n; broadcasting
    then yields the same samples the full meshgrid would.
    """
    return list(np.meshgrid(*([phi.axis()] * phi.dim), indexing="ij", sparse=True))


def weight_multiply(phi: GridFunction, alpha: MultiIndex) -> GridFunction:
    """Pointwise x^alpha * phi."""
    if alpha.dim != phi.dim:
        raise ValueError(f"weight dimension {alpha.dim} != grid dimension {phi.dim}")
    if alpha.order == 0:
        return phi
    mesh = _open_mesh(phi)
    weight = np.ones_like(mesh[0])
    for axis_coord, power in zip(mesh, alpha):
        if power:
            weight = weight * axis_coord**power
    return phi.with_samples(weight * phi.samples)


def weight_multiply_radial(phi: GridFunction, m: int) -> GridFunction:
    """Pointwise |x|^m * phi."""
    if m < 0:
        raise ValueError("radial weight power must be >= 0")
    if m == 0:
        return phi
    mesh = _open_mesh(phi)
    radius_sq = sum(c**2 for c in mesh)
    return phi.with_samples(radius_sq ** (m / 2.0) * phi.samples)


def boundary_mass_fraction(phi: GridFunction) -> float:
    """Fraction of the L^1 mass at grid distance >= L/2 from the origin.

    This is the harness guard for periodization: Fourier-based operators are
    only comparable to exact-kernel quadrature when this is tiny.
    """
    mesh = phi.meshgrid()
    outer = np.maximum.reduce([np.abs(c) for c in mesh]) >= phi.half_width / 2.0
    total = np.abs(phi.samples).sum()
    if total == 0.0:
        return 0.0
    return float(np.abs(phi.samples)[outer].sum() / total)


def save_gwgf(phi: GridFunction, path) -> None:
    """Flat binary format: magic "GWGF", version u32, then n, N, L as f64,
    then interleaved (re, im) f64 samples in row-major order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _FORMAT_VERSION))
        fh.write(struct.pack("<3d", float(phi.dim), float(phi.points), float(phi.half_width)))
        flat = np.ascontiguousarray(phi.samples).ravel()
        inter = np.empty(2 * flat.size, dtype="<f8")
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.tobytes())


def _gwgf_header(dim_f: float, points_f: float, half_width: float) -> tuple[int, int]:
    """(dim, points) from a GWGF header, checked before any payload is read."""
    if not (dim_f.is_integer() and points_f.is_integer()):
        raise ValueError(f"GWGF header n={dim_f!r}, N={points_f!r} is not integral")
    dim, points = int(dim_f), int(points_f)
    check_grid(dim, points, half_width)
    return dim, points


def load_gwgf(path) -> GridFunction:
    """Read a file written by save_gwgf; reject bad headers and payload sizes."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(28)
        if len(header) != 28:
            raise ValueError("truncated GWGF header")
        version, dim_f, points_f, half_width = struct.unpack("<I3d", header)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported GWGF version {version}")
        dim, points = _gwgf_header(dim_f, points_f, half_width)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        size = 16
        for _ in range(dim):  # stops as soon as the size outgrows the file
            size *= points
            if size > payload:
                raise ValueError("truncated GWGF payload")
        if size != payload:
            raise ValueError(f"{payload - size} trailing bytes after the GWGF payload")
        inter = np.frombuffer(fh.read(size), dtype="<f8")
    samples = (inter[0::2] + 1j * inter[1::2]).reshape((points,) * dim)
    return GridFunction(dim, points, half_width, samples)


def export_csv_1d(phi: GridFunction, path) -> None:
    """CSV export (x, re, im); 1-d grids only."""
    if phi.dim != 1:
        raise ValueError("CSV export supports n = 1 only")
    xs = phi.axis()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for x, v in zip(xs, phi.samples):
            writer.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])
