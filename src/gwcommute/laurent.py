"""Exact Laurent polynomials in one parameter w with big-integer coefficients.

Coefficients of the Hermite polynomials are integers times integer powers
(possibly negative) of the complex parameter, so this ring is all the
symbolic machinery the closed forms and recurrences need.  No floating
point enters until evaluation.
"""
from __future__ import annotations


class LaurentPoly:
    """sum_k c_k * w^k with integer c_k and integer k (k may be negative).

    Zero coefficients are never stored, so equality is plain dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in dict(terms).items():
                if c != 0:
                    clean[int(k)] = c
        self.terms = clean

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(c, k: int) -> "LaurentPoly":
        """c * w^k."""
        return LaurentPoly({k: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly({k: c * other for k, c in self.terms.items()})
        out: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __call__(self, w: complex) -> complex:
        """Evaluate at a numeric parameter (w != 0 required if negative powers occur)."""
        if any(k < 0 for k in self.terms) and w == 0:
            raise ZeroDivisionError("Laurent polynomial with negative powers at w = 0")
        return sum(c * w**k for k, c in sorted(self.terms.items()))

    def format(self) -> str:
        """Deterministic "c*w^k[+...]" rendering, exponents ascending."""
        if not self.terms:
            return "0"
        return "+".join(f"{c}*w^{k}" for k, c in sorted(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.format()})"


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
