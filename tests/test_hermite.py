import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwcommute.hermite import (
    flavor_convert,
    format_hermite,
    gaussian_derivative,
    gaussian_kernel_point,
    hermite_by_recurrence,
    hermite_closed_form,
    hermite_one,
    hermite_recurrence,
    monomial_expand,
    reconstruct_monomial,
)
from gwcommute.laurent import LaurentPoly
from gwcommute.multiindex import MultiIndex, enumerate_level, enumerate_up_to


def L(spec):
    return LaurentPoly(spec)


def test_order_zero_is_one_both_flavors():
    for flavor in ("h", "H"):
        poly = hermite_closed_form(MultiIndex([0]), flavor)
        assert poly.coeffs == {MultiIndex([0]): LaurentPoly({0: 1})}


def test_closed_form_first_orders():
    # h_{w,(1)} = w^-1 x
    p1 = hermite_closed_form(MultiIndex([1]), "h")
    assert p1.coeffs == {MultiIndex([1]): L({-1: 1})}
    # h_{w,(2)} = w^-2 x^2 - 2 w^-1
    p2 = hermite_closed_form(MultiIndex([2]), "h")
    assert p2.coeffs == {MultiIndex([2]): L({-2: 1}), MultiIndex([0]): L({-1: -2})}
    # H flavor carries 2^{|a-2b|} on each monomial
    q2 = hermite_closed_form(MultiIndex([2]), "H")
    assert q2.coeffs == {MultiIndex([2]): L({-2: 4}), MultiIndex([0]): L({-1: -2})}


def test_support_structure():
    alpha = MultiIndex([3, 2])
    poly = hermite_closed_form(alpha, "h")
    for beta in poly.coeffs:
        assert beta <= alpha
        assert all((a - b) % 2 == 0 for a, b in zip(alpha, beta))


def test_recurrence_examples():
    # alpha=(0), j=1: x * 1 = w * (w^-1 x)
    rec = hermite_recurrence(MultiIndex([0]), 1)
    assert rec["lhs"] == rec["rhs"]
    assert rec["lhs"].coeffs == {MultiIndex([1]): L({0: 1})}
    # alpha=(1), j=1: w^-1 x^2 = (w^-1 x^2 - 2) + 2
    rec = hermite_recurrence(MultiIndex([1]), 1)
    assert rec["lhs"] == rec["rhs"]
    assert rec["lhs"].coeffs == {MultiIndex([2]): L({-1: 1})}
    # alpha=(1,0), j=2: x2 * (w^-1 x1) = w * (w^-2 x1 x2)
    rec = hermite_recurrence(MultiIndex([1, 0]), 2)
    assert rec["lhs"] == rec["rhs"]
    assert rec["lhs"].coeffs == {MultiIndex([1, 1]): L({-1: 1})}


def test_recurrence_axis_range():
    with pytest.raises(ValueError):
        hermite_recurrence(MultiIndex([1]), 2)


def test_recurrence_identity_sweep_small():
    for n in (1, 2):
        for alpha in enumerate_up_to(n, 5):
            for j in range(1, n + 1):
                rec = hermite_recurrence(alpha, j)
                assert rec["lhs"] == rec["rhs"], (alpha, j)


def test_generator_agrees_with_closed_form_small():
    for n in (1, 2):
        for alpha in enumerate_up_to(n, 5):
            assert hermite_by_recurrence(alpha) == hermite_closed_form(alpha, "h")


def test_monomial_expand_examples():
    assert monomial_expand(MultiIndex([0])) == [(MultiIndex([0]), LaurentPoly({0: 1}))]
    pairs = monomial_expand(MultiIndex([2]))
    assert pairs == [
        (MultiIndex([0]), L({2: 1})),
        (MultiIndex([1]), L({1: 2})),
    ]
    pairs = monomial_expand(MultiIndex([1, 1]))
    assert pairs == [(MultiIndex([0, 0]), L({2: 1}))]


def test_reconstruction_is_exact_small():
    for n in (1, 2):
        for alpha in enumerate_up_to(n, 5):
            rec = reconstruct_monomial(alpha)
            assert rec.coeffs == {alpha: LaurentPoly({0: 1})}, alpha


def test_flavor_transport_exact():
    for n in (1, 2):
        for alpha in enumerate_up_to(n, 5):
            h = hermite_closed_form(alpha, "h")
            H = hermite_closed_form(alpha, "H")
            assert flavor_convert(H) == h
            assert flavor_convert(h) == H


@given(
    st.integers(1, 2),
    st.integers(0, 4),
    st.complex_numbers(
        min_magnitude=0.1, max_magnitude=4, allow_nan=False, allow_infinity=False
    ),
)
@settings(max_examples=40)
def test_h_is_H_at_half_argument(n, m, omega):
    rng = np.random.default_rng(7)
    for alpha in enumerate_level(n, m):
        x = rng.uniform(-2, 2, size=n)
        h_val = hermite_closed_form(alpha, "h").evaluate(omega, x)
        H_val = hermite_closed_form(alpha, "H").evaluate(omega, x / 2.0)
        assert abs(h_val - H_val) <= 1e-9 * (1 + abs(h_val))


def test_monomial_multiply_and_algebra():
    p = hermite_closed_form(MultiIndex([1]), "h")
    shifted = p.monomial_multiply(MultiIndex([2]))
    assert shifted.coeffs == {MultiIndex([3]): L({-1: 1})}
    with pytest.raises(ValueError):
        p + hermite_closed_form(MultiIndex([1]), "H")
    with pytest.raises(ValueError):
        p + hermite_one(2, "h")


def test_gaussian_kernel_point_values():
    assert gaussian_kernel_point(1.0, [0.0]) == pytest.approx((4 * math.pi) ** -0.5)
    assert gaussian_kernel_point(1.0, [0.0, 0.0]) == pytest.approx((4 * math.pi) ** -1)
    with pytest.raises(ValueError):
        gaussian_kernel_point(0.0, [0.0])


def test_gaussian_derivative_examples():
    # alpha = 0 reduces to the kernel itself
    assert gaussian_derivative(MultiIndex([0]), 1 + 0.5j, [0.7]) == pytest.approx(
        gaussian_kernel_point(1 + 0.5j, [0.7])
    )
    # odd symmetry at the origin
    assert gaussian_derivative(MultiIndex([1]), 1.0, [0.0]) == 0
    # second derivative at the origin
    expected = -0.5 * (4 * math.pi) ** -0.5
    assert gaussian_derivative(MultiIndex([2]), 1.0, [0.0]) == pytest.approx(
        expected, rel=1e-12
    )


def _mp_kernel(omega, x):
    """G_w(x) in arbitrary precision, principal branch."""
    n = len(x)
    theta = mpmath.atan2(omega.imag, omega.real)
    log_pref = -mpmath.mpf(n) / 2 * (
        mpmath.log(4 * mpmath.pi * abs(omega)) + 1j * theta
    )
    quad = mpmath.fsum(xi**2 for xi in x)
    return mpmath.e ** (log_pref - quad / (4 * omega))


def _mp_fd_derivative(alpha, omega, x):
    """Central finite differences, one axis at a time, in high precision.

    The step is the float64-style h = 1e-4 (1 + |x|); precision soaks up the
    cancellation so only the O(h^2) truncation error remains.
    """
    step = mpmath.mpf("1e-4") * (1 + mpmath.sqrt(mpmath.fsum(xi**2 for xi in x)))

    def rec(remaining, point):
        for axis, order in enumerate(remaining):
            if order > 0:
                lower = list(remaining)
                lower[axis] -= 1
                up = list(point)
                up[axis] = up[axis] + step
                down = list(point)
                down[axis] = down[axis] - step
                return (rec(lower, up) - rec(lower, down)) / (2 * step)
        return _mp_kernel(omega, point)

    return rec(list(alpha), [mpmath.mpf(xi) for xi in x])


@pytest.mark.parametrize("omega", [1.0 + 0.0j, 1.0 + 0.9j, 0.5 - 0.3j])
def test_gaussian_derivative_against_finite_differences(omega):
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 3))
        order = int(rng.integers(1, 4))
        alpha = [0] * n
        for _ in range(order):
            alpha[int(rng.integers(0, n))] += 1
        cases.append((MultiIndex(alpha), rng.uniform(-2.0, 2.0, size=n)))
    with mpmath.workdps(40):
        mp_omega = mpmath.mpc(omega)
        for alpha, x in cases:
            got = gaussian_derivative(alpha, omega, x)
            want = _mp_fd_derivative(alpha, mp_omega, x)
            want_c = complex(want.real, want.imag)
            scale = max(abs(want_c), abs(gaussian_kernel_point(omega, x)))
            assert abs(got - want_c) <= 1e-6 * scale, (alpha, x)


def test_format_hermite_deterministic():
    text = format_hermite(hermite_closed_form(MultiIndex([2, 1]), "h"))
    lines = text.splitlines()
    assert lines[0].split("\t") == ["0.1", "-2*w^-2"]
    assert lines[1].split("\t") == ["2.1", "1*w^-3"]


def test_evaluate_rejects_zero_omega():
    with pytest.raises(ValueError):
        hermite_closed_form(MultiIndex([1]), "h").evaluate(0.0, [1.0])
