import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwcommute.multiindex import (
    MultiIndex,
    enumerate_dominated,
    enumerate_half_dominated,
    enumerate_level,
    enumerate_up_to,
    factorial,
    level_count,
    unit,
    zero,
)

indices = st.builds(
    MultiIndex, st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)
)


def test_construction_and_properties():
    a = MultiIndex([2, 0, 1])
    assert a.dim == 3
    assert a.order == 3
    assert a[0] == 2 and a[2] == 1
    assert tuple(a) == (2, 0, 1)


def test_negative_rejected():
    with pytest.raises(ValueError):
        MultiIndex([1, -1])
    with pytest.raises(ValueError):
        MultiIndex([])


def test_immutability():
    a = MultiIndex([1, 2])
    with pytest.raises(AttributeError):
        a.components = (0, 0)


def test_partial_order():
    assert MultiIndex([1, 0]) <= MultiIndex([2, 1])
    assert not MultiIndex([1, 2]) <= MultiIndex([2, 1])
    with pytest.raises(ValueError):
        MultiIndex([1]) <= MultiIndex([1, 2])


def test_arithmetic():
    a = MultiIndex([2, 1])
    b = MultiIndex([1, 1])
    assert a + b == MultiIndex([3, 2])
    assert a - b == MultiIndex([1, 0])
    assert 2 * a == MultiIndex([4, 2])
    with pytest.raises(ValueError):
        b - a  # (1,1) - (2,1) goes negative


def test_serialization_examples():
    assert MultiIndex([2, 0, 1]).to_str() == "2.0.1"
    assert MultiIndex.from_str("2.0.1") == MultiIndex([2, 0, 1])
    with pytest.raises(ValueError):
        MultiIndex.from_str("1.x")


@given(indices)
def test_serialization_round_trip(a):
    assert MultiIndex.from_str(a.to_str()) == a


def test_unit_and_zero():
    assert unit(3, 2) == MultiIndex([0, 1, 0])
    assert zero(2) == MultiIndex([0, 0])
    with pytest.raises(ValueError):
        unit(2, 3)


@given(indices)
def test_factorial_exact(a):
    expected = 1
    for c in a:
        expected *= math.factorial(c)
    assert factorial(a) == expected


def test_level_enumeration_order():
    # graded lexicographic: lex-descending within a level
    assert [t.components for t in enumerate_level(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [t.components for t in enumerate_up_to(2, 1)] == [(0, 0), (1, 0), (0, 1)]


@given(st.integers(1, 4), st.integers(0, 6))
def test_level_count_matches(n, m):
    level = enumerate_level(n, m)
    assert len(level) == level_count(n, m) == math.comb(n + m - 1, m)
    assert all(a.order == m for a in level)
    assert len(set(level)) == len(level)


@given(indices)
def test_dominated_counts(a):
    dom = enumerate_dominated(a)
    assert len(dom) == math.prod(c + 1 for c in a)
    assert all(b <= a for b in dom)
    half = enumerate_half_dominated(a)
    assert len(half) == math.prod(c // 2 + 1 for c in a)
    assert all((2 * b) <= a for b in half)
