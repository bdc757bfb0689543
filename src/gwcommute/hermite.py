"""Multi-variable Hermite polynomials attached to the Gaussian exp(-|x|^2/w).

Two flavors share one coefficient container:

    H_{w,a}(x) = (-1)^{|a|} exp(|x|^2/w) d^a exp(-|x|^2/w)
               = sum_{2b <= a} ((-1)^{|b|} a!)/(b! (a-2b)!) w^{-|a-b|} (2x)^{a-2b}
    h_{w,a}(x) = H_{w,a}(x/2)

All coefficients are exact (big-integer Laurent polynomials in w); numeric w
and x enter only at evaluation time.  The flavor is stored explicitly and
operations refuse to mix flavors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import laurent
from .laurent import LaurentPoly
from .multiindex import (
    MultiIndex,
    enumerate_half_dominated,
    factorial,
    unit,
    zero,
)


@dataclass(frozen=True)
class HermitePoly:
    """Exact polynomial sum_beta coeffs[beta] * x^beta with Laurent-in-w weights."""

    dim: int
    flavor: str
    coeffs: dict[MultiIndex, LaurentPoly] = field(repr=False)

    def __post_init__(self):
        if self.flavor not in ("H", "h"):
            raise ValueError(f"flavor must be 'H' or 'h', got {self.flavor!r}")
        clean = {}
        for beta, weight in self.coeffs.items():
            if beta.dim != self.dim:
                raise ValueError(f"exponent {beta} has dim {beta.dim}, expected {self.dim}")
            if not weight.is_zero():
                clean[beta] = weight
        object.__setattr__(self, "coeffs", clean)

    def __hash__(self):
        return hash((self.dim, self.flavor, frozenset(self.coeffs.items())))

    def require_compatible(self, other: "HermitePoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.flavor != other.flavor:
            raise ValueError(f"flavor mismatch: {self.flavor!r} vs {other.flavor!r}")

    def __add__(self, other: "HermitePoly") -> "HermitePoly":
        self.require_compatible(other)
        out = dict(self.coeffs)
        for beta, weight in other.coeffs.items():
            out[beta] = out.get(beta, laurent.ZERO) + weight
        return HermitePoly(self.dim, self.flavor, out)

    def __sub__(self, other: "HermitePoly") -> "HermitePoly":
        self.require_compatible(other)
        out = dict(self.coeffs)
        for beta, weight in other.coeffs.items():
            out[beta] = out.get(beta, laurent.ZERO) - weight
        return HermitePoly(self.dim, self.flavor, out)

    def scale(self, weight: LaurentPoly) -> "HermitePoly":
        return HermitePoly(
            self.dim, self.flavor, {b: w * weight for b, w in self.coeffs.items()}
        )

    def monomial_multiply(self, gamma: MultiIndex) -> "HermitePoly":
        """Exact multiplication by x^gamma."""
        if gamma.dim != self.dim:
            raise ValueError("dimension mismatch")
        return HermitePoly(
            self.dim, self.flavor, {b + gamma: w for b, w in self.coeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_terms(self) -> Iterator[tuple[MultiIndex, LaurentPoly]]:
        """Terms ordered by (order, components): deterministic for printing."""
        for beta in sorted(self.coeffs, key=lambda b: (b.order, b.components)):
            yield beta, self.coeffs[beta]

    def evaluate(self, omega: complex, x) -> complex:
        """Numeric value at (omega, x), x a length-n point.

        Direct monomial sum, compensated via math.fsum per component.
        """
        if omega == 0:
            raise ValueError("omega must be nonzero")
        coords = np.asarray(x)
        if coords.ndim == 0:
            if self.dim != 1:
                raise ValueError("scalar point only valid for dim 1")
            coords = coords.reshape(1)
        elif coords.shape[0] != self.dim:
            raise ValueError(f"point has {coords.shape[0]} coords, expected {self.dim}")
        values = []
        for beta, weight in self.sorted_terms():
            mono = 1.0
            for k, b in enumerate(beta):
                if b:
                    mono = mono * coords[k] ** b
            values.append(complex(weight(omega)) * mono)
        return complex(math.fsum(v.real for v in values),
                       math.fsum(v.imag for v in values))


def hermite_one(dim: int, flavor: str) -> HermitePoly:
    """The order-zero polynomial, identically 1."""
    return HermitePoly(dim, flavor, {zero(dim): laurent.ONE})


def hermite_closed_form(alpha: MultiIndex, flavor: str = "h") -> HermitePoly:
    """Closed-form coefficients.

    h: sum over 2b <= a of ((-1)^{|b|} a!/(b!(a-2b)!)) w^{-|a-b|} x^{a-2b};
    H: same with an extra 2^{|a-2b|} on each term.
    """
    a_fact = factorial(alpha)
    coeffs: dict[MultiIndex, LaurentPoly] = {}
    for beta in enumerate_half_dominated(alpha):
        rem = alpha - (2 * beta)
        c = a_fact // (factorial(beta) * factorial(rem))
        if beta.order % 2:
            c = -c
        if flavor == "H":
            c <<= rem.order
        w_power = -(alpha.order - beta.order)
        coeffs[rem] = coeffs.get(rem, laurent.ZERO) + LaurentPoly.monomial(c, w_power)
    return HermitePoly(alpha.dim, flavor, coeffs)


def flavor_convert(poly: HermitePoly) -> HermitePoly:
    """Transport between flavors: h_{w,a}(x) = H_{w,a}(x/2).

    Rewriting a polynomial p(x) as p(x/2) divides the x^beta coefficient by
    2^{|beta|}; going the other way multiplies.  Division is exact here
    because H-flavor coefficients carry the 2^{|a-2b|} factor.
    """
    out: dict[MultiIndex, LaurentPoly] = {}
    if poly.flavor == "H":
        for beta, weight in poly.coeffs.items():
            shift = beta.order
            halved = {k: c >> shift for k, c in weight.terms.items()}
            if any((c << shift) != weight.terms[k] for k, c in halved.items()):
                raise ValueError("coefficient not divisible by 2^|beta|")
            out[beta] = LaurentPoly(halved)
        return HermitePoly(poly.dim, "h", out)
    for beta, weight in poly.coeffs.items():
        out[beta] = weight * (1 << beta.order)
    return HermitePoly(poly.dim, "H", out)


def hermite_recurrence(alpha: MultiIndex, j: int) -> dict[str, HermitePoly]:
    """Both sides of x_j h_{w,a} = w h_{w,a+e_j} + 2 a_j h_{w,a-e_j}.

    (The second term drops when a_j = 0.)  Returns exact h-flavor
    polynomials under keys "lhs" and "rhs"; equality is testable with ==.
    """
    e_j = unit(alpha.dim, j)
    lhs = hermite_closed_form(alpha, "h").monomial_multiply(e_j)
    rhs = hermite_closed_form(alpha + e_j, "h").scale(LaurentPoly.monomial(1, 1))
    a_j = alpha[j - 1]
    if a_j >= 1:
        rhs = rhs + hermite_closed_form(alpha - e_j, "h").scale(
            LaurentPoly.constant(2 * a_j)
        )
    return {"lhs": lhs, "rhs": rhs}


def hermite_by_recurrence(alpha: MultiIndex) -> HermitePoly:
    """Generate h_{w,alpha} from h_{w,0} = 1 by the recurrence alone.

    Solving the recurrence for the top term:
        h_{w,a+e_j} = w^{-1} (x_j h_{w,a} - 2 a_j h_{w,a-e_j}).
    Independent of the closed form; used as its oracle.
    """
    cache: dict[MultiIndex, HermitePoly] = {zero(alpha.dim): hermite_one(alpha.dim, "h")}

    def build(a: MultiIndex) -> HermitePoly:
        got = cache.get(a)
        if got is not None:
            return got
        j = next(k for k, c in enumerate(a, start=1) if c > 0)
        e_j = unit(a.dim, j)
        prev = a - e_j
        poly = build(prev).monomial_multiply(e_j).scale(LaurentPoly.monomial(1, -1))
        if prev[j - 1] >= 1:
            poly = poly - build(prev - e_j).scale(
                LaurentPoly.monomial(2 * prev[j - 1], -1)
            )
        cache[a] = poly
        return poly

    return build(alpha)


def monomial_expand(alpha: MultiIndex) -> list[tuple[MultiIndex, LaurentPoly]]:
    """Expansion x^a = sum_{2b <= a} a!/(b!(a-2b)!) w^{|a-b|} h_{w,a-2b}.

    Returns (b, weight) pairs over the summation index b; the Hermite
    polynomial attached to a pair is h_{w, a-2b}.  Deterministic order
    (componentwise-ascending b, so the b = 0 leading term comes first).
    """
    a_fact = factorial(alpha)
    pairs = []
    for b in enumerate_half_dominated(alpha):
        c = a_fact // (factorial(b) * factorial(alpha - (2 * b)))
        pairs.append((b, LaurentPoly.monomial(c, alpha.order - b.order)))
    return pairs


def reconstruct_monomial(alpha: MultiIndex) -> HermitePoly:
    """Substitute closed forms into monomial_expand; must equal x^alpha exactly."""
    total = HermitePoly(alpha.dim, "h", {})
    for b, weight in monomial_expand(alpha):
        total = total + hermite_closed_form(alpha - (2 * b), "h").scale(weight)
    return total


def gaussian_log_prefactor(omega: complex, dim: int) -> complex:
    """log (4 pi w)^{-n/2} via the principal log of 4 pi w, the analytic
    continuation from w > 0 across re w > 0; angle atan2(im w, re w)."""
    theta = math.atan2(omega.imag, omega.real)
    return -0.5 * dim * (math.log(4.0 * math.pi * abs(omega)) + 1j * theta)


def gaussian_kernel_point(omega: complex, x) -> complex:
    """G_w(x) = (4 pi w)^{-n/2} exp(-|x|^2 / (4w)), principal branch."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    log_pref = gaussian_log_prefactor(omega, coords.size)
    return complex(np.exp(log_pref - float(coords @ coords) / (4.0 * omega)))


def gaussian_derivative(alpha: MultiIndex, omega: complex, x) -> complex:
    """(d^a G_w)(x) = (-2)^{-|a|} h_{w,a}(x) G_w(x)."""
    h_val = hermite_closed_form(alpha, "h").evaluate(omega, x)
    return (-2.0) ** (-alpha.order) * h_val * gaussian_kernel_point(omega, x)


def format_hermite(poly: HermitePoly) -> str:
    """Lines "beta<TAB>laurent" in the deterministic term order."""
    lines = [f"{beta.to_str()}\t{weight.format()}" for beta, weight in poly.sorted_terms()]
    return "\n".join(lines)
