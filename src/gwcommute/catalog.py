"""Named, reproducible test functions for the verification harnesses.

Every entry realizes on any (dim, points, half_width) grid.  Entries are
chosen so that at the default boxes the mass at grid distance >= L/2 from
the origin is below 1e-12: the Fourier and quadrature evaluators are only
comparable on such inputs.

Kinds:
    gaussian          amplitude * G_sigma(x - center)   (unit total mass
                      before amplitude, so analytic norms are available)
    gaussian-mixture  sum of the above
    bandlimited       trigonometric polynomial with seeded complex-normal
                      coefficients times a Gaussian envelope; period 2L,
                      modes |k_j| <= cutoff per axis

The bandlimited series is realized one axis at a time from a single
(2c+1) x N factor table E[k, m] = exp(i (pi k / L) x_m), c the cutoff: each
pass contracts the coefficient tensor's leading mode axis against E and
appends the grid axis last (the layout rule of the quadrature oracle's
passes), a running sum over k in ascending order.  That is n passes of
(2c+1) multiply-adds instead of one N^n-point complex exp per mode.  In 1-d
the samples equal the mode-by-mode sum bit for bit; from 2-d on the sum runs
in another order and differs at rounding level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFunction, boundary_mass_fraction, check_positive, coordinates
from .multiindex import check_order, unit


@dataclass(frozen=True)
class GaussianComponent:
    sigma: float
    center: tuple[float, ...] = ()
    amplitude: complex = 1.0

    def __post_init__(self):
        check_positive(self.sigma, "sigma")

    def center_in(self, dim: int) -> tuple[float, ...]:
        """Pad or truncate the stored center to the requested dimension."""
        c = tuple(self.center)[:dim]
        return c + (0.0,) * (dim - len(c))


@dataclass(frozen=True)
class TestFunctionSpec:
    __test__ = False  # not a pytest class, despite the name

    id: str
    kind: str
    components: tuple[GaussianComponent, ...] = ()
    seed: int = 0
    cutoff: int = 0
    envelope_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "gaussian-mixture", "bandlimited"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "gaussian" and len(self.components) != 1:
            raise ValueError("gaussian kind takes exactly one component")
        if self.kind == "gaussian-mixture" and not self.components:
            raise ValueError("mixture needs at least one component")
        if self.kind == "bandlimited":
            check_order(self.cutoff, "cutoff")
            check_positive(self.envelope_sigma, "envelope sigma")

    def realize(self, dim: int, points: int, half_width: float) -> GridFunction:
        if self.kind in ("gaussian", "gaussian-mixture"):
            return self._realize_mixture(dim, points, half_width)
        return self._realize_bandlimited(dim, points, half_width)

    def _realize_mixture(self, dim: int, points: int, half_width: float) -> GridFunction:
        mesh = coordinates(dim, points, half_width)
        total = np.zeros((points,) * dim, dtype=np.complex128)
        for comp in self.components:
            center = comp.center_in(dim)
            expo = -sum(np.square(m - c) for m, c in zip(mesh, center)) / (4.0 * comp.sigma)
            pref = (4.0 * math.pi * comp.sigma) ** (-dim / 2.0)
            total += comp.amplitude * pref * np.exp(expo)
        return GridFunction(dim, points, half_width, total)

    def _realize_bandlimited(self, dim: int, points: int, half_width: float) -> GridFunction:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        mesh = coordinates(dim, points, half_width)
        ks = range(-self.cutoff, self.cutoff + 1)
        # Draw pair i is the coefficient (re, im) of the i-th mode k in
        # sorted order, which is the coefficient tensor's C order.
        count = len(ks) ** dim
        draws = rng.standard_normal((count, 2))
        scale = 1.0 / math.sqrt(2.0 * count)
        trig = scale * draws.view(np.complex128).reshape((len(ks),) * dim)
        # One factor table for every axis (the module docstring has the
        # passes).  Ascending k in the running sum keeps the 1-d bits of the
        # mode-by-mode sum.
        x = mesh[0].reshape(-1)
        factors = [np.exp(1j * ((math.pi * k / half_width) * x)) for k in ks]
        for _ in range(dim):
            total = np.zeros(trig.shape[1:] + (points,), dtype=np.complex128)
            for t_k, e_k in zip(trig, factors):
                total += t_k[..., None] * e_k
            trig = total
        # A fresh product, not trig *= envelope: the identity evaluators'
        # page faults hang on where setup leaves glibc's heap top, and an
        # in-place envelope is one way to move it.
        envelope = np.exp(-sum(np.square(m) for m in mesh) / (4.0 * self.envelope_sigma))
        return GridFunction(dim, points, half_width, envelope * trig)


def _gauss(id_: str, sigma: float, center=(), amplitude=1.0) -> TestFunctionSpec:
    comp = GaussianComponent(sigma, tuple(center), amplitude)
    return TestFunctionSpec(id=id_, kind="gaussian", components=(comp,))


DEFAULT_CATALOG: dict[str, TestFunctionSpec] = {
    spec.id: spec
    for spec in [
        _gauss("gauss-narrow", 0.35),
        _gauss("gauss-wide", 0.5),
        _gauss("gauss-shift", 0.4, center=(1.2,)),
        TestFunctionSpec(
            id="mixture",
            kind="gaussian-mixture",
            components=(
                GaussianComponent(0.4, (-1.0,), 1.0),
                GaussianComponent(0.35, (1.3,), 0.5 - 0.25j),
            ),
        ),
        TestFunctionSpec(
            id="bandlimited",
            kind="bandlimited",
            seed=20260814,
            cutoff=3,
            envelope_sigma=0.5,
        ),
    ]
}

def get_entry(name: str) -> TestFunctionSpec:
    try:
        return DEFAULT_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(DEFAULT_CATALOG))
        raise KeyError(f"unknown test function {name!r}; catalog has: {known}")


def realize_checked(name: str, dim: int, points: int, half_width: float,
                    seed_offset: int = 0) -> GridFunction:
    """Realize a catalog entry (bandlimited seeds shifted by seed_offset) and
    enforce the boundary-mass invariant."""
    spec = get_entry(name)
    if spec.kind == "bandlimited" and seed_offset:
        spec = replace(spec, seed=spec.seed + seed_offset)
    phi = spec.realize(dim, points, half_width)
    fraction = boundary_mass_fraction(phi)
    if fraction > 1e-12:
        raise ValueError(
            f"catalog entry {name!r} has boundary mass {fraction:.2e} on this grid"
        )
    return phi


def mollified_weight(j: int, eps: float, dim: int, points: int,
                     half_width: float) -> tuple[GridFunction, float]:
    """Samples of eta_{j,eps}(x) = x_j exp(-eps |x|^2) and its Lipschitz bound.

    The gradient bound is analytic: |grad eta| <= 2 sup_{rho>=0} rho e^{-rho}
    + 1 <= 2, independent of eps.  Grid maxima underestimate the sup and must
    not be used in its place.
    """
    check_positive(eps, "eps")
    unit(dim, j)  # the axis rule
    mesh = coordinates(dim, points, half_width)
    envelope = np.exp(-eps * sum(np.square(c) for c in mesh)).astype(np.complex128)
    return GridFunction(dim, points, half_width, mesh[j - 1] * envelope), 2.0


def lipschitz_entries(dim: int, points: int, half_width: float):
    """(label, eta samples, analytic Lipschitz bound) for the bounded-Lipschitz harnesses."""
    entries = []
    for eps in (0.05, 0.2):
        eta, bound = mollified_weight(1, eps, dim, points, half_width)
        entries.append((f"eta-1-{eps}", eta, bound))
    shape = (points,) * dim
    x1 = coordinates(dim, points, half_width)[0]
    entries.append(("sin-x1", GridFunction(dim, points, half_width,
                                           np.broadcast_to(np.sin(x1), shape)), 1.0))
    # must stay exactly 1.0: multiplying by one is bitwise exact, which is the
    # only way lhs == 0 == rhs can pass for a zero Lipschitz bound
    entries.append(("constant", GridFunction(dim, points, half_width, np.ones(shape)), 0.0))
    return entries
