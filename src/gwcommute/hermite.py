"""Multi-variable Hermite polynomials attached to the Gaussian exp(-|x|^2/w).

Two flavors share one coefficient container:

    H_{w,a}(x) = (-1)^{|a|} exp(|x|^2/w) d^a exp(-|x|^2/w)
               = sum_{2b <= a} ((-1)^{|b|} a!)/(b! (a-2b)!) w^{-|a-b|} (2x)^{a-2b}
    h_{w,a}(x) = H_{w,a}(x/2)

All coefficients are exact (big-integer Laurent polynomials in w).  The
flavor is stored explicitly and operations refuse to mix flavors.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import laurent
from .laurent import LaurentPoly
from .multiindex import MultiIndex, enumerate_half_dominated, factorial


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

    def sorted_terms(self) -> Iterator[tuple[MultiIndex, LaurentPoly]]:
        """Terms ordered by (order, components): deterministic for printing."""
        for beta in sorted(self.coeffs, key=lambda b: (b.order, b.components)):
            yield beta, self.coeffs[beta]


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


def format_hermite(poly: HermitePoly) -> str:
    """Lines "beta<TAB>laurent" in the deterministic term order."""
    lines = [f"{beta.to_str()}\t{weight.format()}" for beta, weight in poly.sorted_terms()]
    return "\n".join(lines)
