"""Exact multi-index arithmetic and enumeration.

A multi-index is a tuple of non-negative integers indexing mixed monomials
x^alpha and mixed derivatives d^alpha.  Everything here is exact integer
arithmetic; enumeration order is graded lexicographic so that downstream
output is deterministic.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import product
from typing import Iterator


class MultiIndex:
    """Immutable tuple of non-negative integers (alpha_1, ..., alpha_n)."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(int(c) for c in components)
        if len(comps) == 0:
            raise ValueError("multi-index needs dimension >= 1")
        if any(c < 0 for c in comps):
            raise ValueError(f"negative component in multi-index {comps}")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("MultiIndex is immutable")

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        """|alpha| = sum of the components."""
        return sum(self.components)

    def __getitem__(self, j: int) -> int:
        return self.components[j]

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __hash__(self) -> int:
        return hash(self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.components == other.components

    def __le__(self, other: "MultiIndex") -> bool:
        """Componentwise partial order beta <= alpha."""
        self._check_dim(other)
        return all(a <= b for a, b in zip(self.components, other.components))

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_dim(other)
        return MultiIndex(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        """Strict difference; raises if any component would go negative."""
        self._check_dim(other)
        return MultiIndex(a - b for a, b in zip(self.components, other.components))

    def __mul__(self, scalar: int) -> "MultiIndex":
        if scalar < 0:
            raise ValueError("scalar multiple must be non-negative")
        return MultiIndex(scalar * a for a in self.components)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"MultiIndex({self.components})"

    def to_str(self) -> str:
        """Dot-separated serialization "a1.a2.....an" used in CSV output."""
        return ".".join(str(c) for c in self.components)

    @staticmethod
    def from_str(text: str) -> "MultiIndex":
        return MultiIndex(int(part) for part in text.split("."))

    def _check_dim(self, other: "MultiIndex") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def unit(n: int, j: int) -> MultiIndex:
    """Standard basis index e_j (1-based axis j) in dimension n."""
    if not 1 <= j <= n:
        raise ValueError(f"axis j={j} out of range 1..{n}")
    return MultiIndex(1 if k == j - 1 else 0 for k in range(n))


def zero(n: int) -> MultiIndex:
    return MultiIndex((0,) * n)


def factorial(alpha: MultiIndex):
    """alpha! = prod_j alpha_j!, exact."""
    return reduce(lambda acc, a: acc * math.factorial(a), alpha, 1)


def level_count(n: int, m: int) -> int:
    """Number of alpha in dimension n with |alpha| = m: (n+m-1)! / ((n-1)! m!)."""
    return math.comb(n + m - 1, m)


def enumerate_level(n: int, m: int) -> list[MultiIndex]:
    """All alpha with |alpha| = m, graded lexicographic (lex-descending within the level)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if m < 0:
        raise ValueError("total degree must be >= 0")

    def rec(dim: int, total: int):
        if dim == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in rec(dim - 1, total - head):
                yield (head,) + tail

    return [MultiIndex(t) for t in rec(n, m)]


def enumerate_up_to(n: int, m: int) -> list[MultiIndex]:
    """All alpha with |alpha| <= m, by increasing level."""
    out: list[MultiIndex] = []
    for level in range(m + 1):
        out.extend(enumerate_level(n, level))
    return out


def enumerate_dominated(alpha: MultiIndex) -> list[MultiIndex]:
    """All beta <= alpha componentwise; length prod(alpha_j + 1)."""
    ranges = [range(a + 1) for a in alpha]
    return [MultiIndex(t) for t in product(*ranges)]


def enumerate_half_dominated(alpha: MultiIndex) -> list[MultiIndex]:
    """All beta with 2*beta <= alpha componentwise; length prod(floor(alpha_j/2) + 1)."""
    ranges = [range(a // 2 + 1) for a in alpha]
    return [MultiIndex(t) for t in product(*ranges)]
