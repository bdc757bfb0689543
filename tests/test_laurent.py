
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwcommute.laurent import ONE, ZERO, LaurentPoly

polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-(10**12), max_value=10**12),
        max_size=6,
    ),
)
# nonzero exact rationals keep evaluation an exact ring homomorphism
points = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
).filter(lambda q: q != 0)


def test_zero_coefficients_dropped():
    p = LaurentPoly({2: 0, 1: 3, 0: 0})
    assert p.terms == {1: 3}
    assert LaurentPoly({0: 0}).is_zero()
    assert ZERO.is_zero() and not ONE.is_zero()


def test_constant_and_monomial():
    assert LaurentPoly.constant(4).terms == {0: 4}
    assert LaurentPoly.monomial(-2, -3).terms == {-3: -2}


def test_format_examples():
    assert ZERO.format() == "0"
    assert LaurentPoly.monomial(1, -1).format() == "1*w^-1"
    p = LaurentPoly({2: 1, -1: -2})
    assert p.format() == "-2*w^-1+1*w^2"


def test_evaluation_examples():
    p = LaurentPoly({-2: 1, 0: -2})  # w^-2 - 2
    assert p(1.0) == -1.0
    assert p(2.0) == 0.25 - 2.0
    with pytest.raises(ZeroDivisionError):
        p(0)


def test_evaluation_at_zero_without_negative_powers():
    assert LaurentPoly({0: 5, 3: 2})(0) == 5


@given(polys, polys, points)
def test_ring_homomorphism(f, g, w):
    assert (f + g)(w) == f(w) + g(w)
    assert (f - g)(w) == f(w) - g(w)
    assert (f * g)(w) == f(w) * g(w)


@given(polys, st.integers(min_value=-50, max_value=50), points)
def test_scalar_multiply(f, c, w):
    assert (c * f)(w) == c * f(w)
    assert (f * c)(w) == f(w) * c


@given(polys, polys)
def test_equality_hash_consistency(f, g):
    if f == g:
        assert hash(f) == hash(g)
    assert f + ZERO == f
    assert f * ONE == f
    assert (f - f).is_zero()
