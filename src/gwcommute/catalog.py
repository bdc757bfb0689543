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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .grid import GridFunction, boundary_mass_fraction, weight_multiply
from .multiindex import unit


@dataclass(frozen=True)
class GaussianComponent:
    sigma: float
    center: tuple[float, ...] = ()
    amplitude: complex = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

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
        if self.kind == "bandlimited" and (self.cutoff < 1 or self.envelope_sigma <= 0):
            raise ValueError("bandlimited needs cutoff >= 1 and an envelope")

    def realize(self, dim: int, points: int, half_width: float) -> GridFunction:
        if self.kind in ("gaussian", "gaussian-mixture"):
            return self._realize_mixture(dim, points, half_width)
        return self._realize_bandlimited(dim, points, half_width)

    def _realize_mixture(self, dim: int, points: int, half_width: float) -> GridFunction:
        template = GridFunction(dim, points, half_width, np.zeros((points,) * dim))
        mesh = template.meshgrid()
        total = np.zeros_like(mesh[0], dtype=np.complex128)
        for comp in self.components:
            center = comp.center_in(dim)
            expo = -sum(np.square(m - c) for m, c in zip(mesh, center)) / (4.0 * comp.sigma)
            pref = (4.0 * math.pi * comp.sigma) ** (-dim / 2.0)
            total = total + comp.amplitude * pref * np.exp(expo)
        return template.with_samples(total)

    def _realize_bandlimited(self, dim: int, points: int, half_width: float) -> GridFunction:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        template = GridFunction(dim, points, half_width, np.zeros((points,) * dim))
        mesh = template.meshgrid()
        modes = sorted(product(range(-self.cutoff, self.cutoff + 1), repeat=dim))
        draws = rng.standard_normal((len(modes), 2))
        scale = 1.0 / math.sqrt(2.0 * len(modes))
        trig = np.zeros_like(mesh[0], dtype=np.complex128)
        for (coeff_re, coeff_im), k_vec in zip(draws, modes):
            coeff = scale * complex(coeff_re, coeff_im)
            phase = sum(
                (math.pi * k / half_width) * m for k, m in zip(k_vec, mesh)
            )
            trig = trig + coeff * np.exp(1j * phase)
        envelope = np.exp(-sum(np.square(m) for m in mesh) / (4.0 * self.envelope_sigma))
        return template.with_samples(envelope * trig)


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
    if eps <= 0:
        raise ValueError("eps must be positive")
    e_j = unit(dim, j)
    template = GridFunction(dim, points, half_width, np.zeros((points,) * dim))
    mesh = template.meshgrid()
    radius_sq = sum(np.square(c) for c in mesh)
    ones = template.with_samples(np.exp(-eps * radius_sq))
    return weight_multiply(ones, e_j), 2.0


def lipschitz_entries(dim: int, points: int, half_width: float):
    """(label, eta samples, analytic Lipschitz bound) for the bounded-Lipschitz harnesses."""
    entries = []
    for eps in (0.05, 0.2):
        eta, bound = mollified_weight(1, eps, dim, points, half_width)
        entries.append((f"eta-1-{eps}", eta, bound))
    template = GridFunction(dim, points, half_width, np.zeros((points,) * dim))
    mesh = template.meshgrid()
    entries.append(("sin-x1", template.with_samples(np.sin(mesh[0])), 1.0))
    # must stay exactly 1.0: multiplying by one is bitwise exact, which is the
    # only way lhs == 0 == rhs can pass for a zero Lipschitz bound
    entries.append(
        ("constant", template.with_samples(np.ones((points,) * dim)), 0.0)
    )
    return entries
