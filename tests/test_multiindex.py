import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwcommute.commutator import (
    commutator_direct,
    evaluate_R_convolution,
    evaluate_R_theorem,
    expand_R_terms,
    identity_reports,
    lemma_B2_identity,
)
from gwcommute.estimates import (
    constant_A,
    constant_A_tilde,
    kernel_moment_bound_report,
    sup_gaussian_moment,
)
from gwcommute.grid import GridFunction, check_grid, coordinates, weight_multiply
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
from gwcommute.semigroup import convolve_weighted_kernel, spectral_derivative

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


def small_grid():
    x = coordinates(1, 16, 4.0)[0]
    return GridFunction(1, 16, 4.0, np.exp(-np.square(x)).astype(np.complex128))


# Every entry with an order n, |alpha|, m or k >= 1: (call at order 0, name).
ORDER_ENTRIES = {
    "expand_R_terms": (lambda phi: expand_R_terms(zero(1)), "|alpha|"),
    "evaluate_R_theorem": (lambda phi: evaluate_R_theorem(zero(1), 1.0, phi), "|alpha|"),
    "evaluate_R_convolution":
        (lambda phi: evaluate_R_convolution(zero(1), 1.0, phi), "|alpha|"),
    "identity_reports": (lambda phi: identity_reports(zero(1), 1.0, phi), "|alpha|"),
    "lemma_B2_identity": (lambda phi: lemma_B2_identity(zero(1), 1, 1.0, phi), "|alpha|"),
    "constant_A-m": (lambda phi: constant_A(1, 0, 2.0, 0.0), "m"),
    "constant_A-n": (lambda phi: constant_A(0, 1, 2.0, 0.0), "dim"),
    "constant_A_tilde-m": (lambda phi: constant_A_tilde(1, 0, 2.0, 0.0), "m"),
    "sup_gaussian_moment": (lambda phi: sup_gaussian_moment(0, 0.0), "k"),
    "kernel_moment_bound_report":
        (lambda phi: kernel_moment_bound_report(zero(1), 0.0, 2.0, 16, 4.0), "k"),
    "check_grid": (lambda phi: check_grid(0, 16, 4.0), "dim"),
    "enumerate_level": (lambda phi: enumerate_level(0, 1), "dim"),
}


@pytest.mark.parametrize("entry", ORDER_ENTRIES)
def test_every_order_entry_rejects_by_check_order(entry):
    call, name = ORDER_ENTRIES[entry]
    with pytest.raises(ValueError) as got:
        call(small_grid())
    assert str(got.value) == f"{name} must be >= 1, got 0"


# Every entry that takes an index of the grid's dimension: (call, name).
INDEX_ENTRIES = {
    "commutator_direct": (lambda a, phi: commutator_direct(a, 1.0, phi), "alpha"),
    "evaluate_R_theorem": (lambda a, phi: evaluate_R_theorem(a, 1.0, phi), "alpha"),
    "evaluate_R_convolution":
        (lambda a, phi: evaluate_R_convolution(a, 1.0, phi), "alpha"),
    "identity_reports": (lambda a, phi: identity_reports(a, 1.0, phi), "alpha"),
    "lemma_B2_identity": (lambda a, phi: lemma_B2_identity(a, 1, 1.0, phi), "alpha"),
    "weight_multiply": (lambda a, phi: weight_multiply(phi, a), "alpha"),
    "convolve_weighted_kernel":
        (lambda a, phi: convolve_weighted_kernel(a, 1.0, phi), "beta"),
    "spectral_derivative": (lambda a, phi: spectral_derivative(phi, a), "delta"),
}


@pytest.mark.parametrize("entry", INDEX_ENTRIES)
def test_every_index_entry_rejects_by_check_index(entry):
    call, name = INDEX_ENTRIES[entry]
    with pytest.raises(ValueError) as got:
        call(MultiIndex((1, 1)), small_grid())
    assert str(got.value) == f"{name} 1.1 does not match dim 1"
