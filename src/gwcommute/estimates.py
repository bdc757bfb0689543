"""Explicit commutator-estimate constants and the inequality harnesses.

The central bound verified here: for re w > 0, theta = arg w, exponents
1 <= q <= p <= inf and 1/p + 1 = 1/r + 1/q,

    sum_{|a|=m} ||[x^a, e^{wD}] phi||_p
        <= A_{m,r}(theta) |w|^{-(n/2)(1/q-1/p)}
           ( |w|^{1/2} || |x|^{m-1} phi ||_q + |w|^{m/2} || phi ||_q )

with the fully explicit

    A_{m,r}(theta) = (n+m-1)!/((n-1)! m!)
                     (4 pi)^{-(n/2)(1-1/r)} (2/(r cos theta))^{n/(2r)}
                     { [ (4m/(e cos theta))^{1/2} + 1 ]^m - 1 }

and its radial variant A~ (same without the multiplicity factor), which
bounds the |x|^m commutator the same way.

The commutator fields do not depend on (p, q).  verify_theorem_1_2 and
verify_radial_remark therefore take a sequence of ExponentTriples: each
call builds its fields, and the right-hand side's |x|^{m-1} phi, once per
(phi, m, omega) and returns one report per triple, in order, each taking
its p-norms from those same fields.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .commutator import commutator_direct, function_commutator
from .grid import (
    GridFunction,
    check_exponent,
    lp_norm,
    radial_weight,
    weight_multiply_radial,
)
from .multiindex import MultiIndex, check_order, enumerate_level, level_count, zero
from .reporting import EstimateReport, format_exponent, format_value
from .semigroup import check_omega, check_theta, heat_commutator, weighted_kernel_grid


def _reciprocal(p: float) -> float:
    """1/p with the convention 1/inf = 0."""
    return 0.0 if check_exponent(p) == math.inf else 1.0 / p


@dataclass(frozen=True)
class ExponentTriple:
    """(p, q) with q <= p; r is derived from 1/p + 1 = 1/r + 1/q."""

    p: float
    q: float

    def __post_init__(self):
        _reciprocal(self.p)
        _reciprocal(self.q)
        if self.inv_q < self.inv_p:
            raise ValueError(f"need q <= p, got q={self.q}, p={self.p}")

    @property
    def inv_p(self) -> float:
        return _reciprocal(self.p)

    @property
    def inv_q(self) -> float:
        return _reciprocal(self.q)

    @property
    def inv_r(self) -> float:
        return 1.0 + self.inv_p - self.inv_q

    @property
    def r(self) -> float:
        inv = self.inv_r
        return math.inf if inv == 0.0 else 1.0 / inv


def _shared_factor(n: int, m: int, r: float, theta: float) -> float:
    """The theta- and r-dependent part common to A and A~."""
    check_order(m, "m")
    check_order(n, "dim")
    cos_t = math.cos(check_theta(theta))
    inv_r = _reciprocal(r)
    gauss = (4.0 * math.pi) ** (-(n / 2.0) * (1.0 - inv_r))
    if inv_r == 0.0:
        kernel_factor = 1.0
    else:
        kernel_factor = (2.0 / (r * cos_t)) ** (n / (2.0 * r))
    try:
        bracket = (math.sqrt(4.0 * m / (math.e * cos_t)) + 1.0) ** m - 1.0
    except OverflowError:
        raise ValueError(
            f"the bracket (sqrt(4m/(e cos theta)) + 1)^m - 1 of A and A~ overflows "
            f"float64 at m = {m}, theta = {theta:g}"
        ) from None
    return _check_finite(gauss * kernel_factor * bracket, "A~", n, m, theta)


def _check_finite(value: float, name: str, n: int, m: int, theta: float) -> float:
    """value, or a ValueError naming the constant when it overflowed float64."""
    if not math.isfinite(value):
        raise ValueError(f"the constant {name} overflows float64 at n = {n}, m = {m}, "
                         f"theta = {theta:g}")
    return value


def constant_A(n: int, m: int, r: float, theta: float) -> float:
    """A = #{|a| = m} A~; a ValueError when it overflows float64."""
    return _check_finite(level_count(n, m) * _shared_factor(n, m, r, theta),
                         "A = #{|a| = m} A~", n, m, theta)


def constant_A_tilde(n: int, m: int, r: float, theta: float) -> float:
    return _shared_factor(n, m, r, theta)


def sup_gaussian_moment(k: int, theta: float) -> float:
    """sup_x |x|^k exp(-(cos theta / 8)|x|^2) = (4k/(e cos theta))^{k/2}."""
    check_order(k, "k")
    cos_t = math.cos(check_theta(theta))
    return (4.0 * k / (math.e * cos_t)) ** (k / 2.0)


def _estimate_params(n: int, m: int, triple: ExponentTriple, omega: complex,
                     theta: float, testfn: str) -> tuple[tuple[str, str], ...]:
    return (
        ("n", str(n)),
        ("m", str(m)),
        ("p", format_exponent(triple.p)),
        ("q", format_exponent(triple.q)),
        ("r", format_exponent(triple.r)),
        ("omega_re", format_value(float(omega.real))),
        ("omega_im", format_value(float(omega.imag))),
        ("theta", format_value(theta)),
        ("testfn", testfn),
    )


def weighted_rhs(m: int, triple: ExponentTriple, omega: complex, phi: GridFunction,
                 weighted: GridFunction, constant: float) -> float:
    """constant * |w|^{-(n/2)(1/q-1/p)} (|w|^{1/2}||weighted||_q + |w|^{m/2}||phi||_q),
    weighted = |x|^{m-1} phi."""
    n = phi.dim
    mod = abs(omega)
    lower = lp_norm(weighted, triple.q)
    plain = lp_norm(phi, triple.q)
    scale = math.exp(-(n / 2.0) * (triple.inv_q - triple.inv_p) * math.log(mod))
    return constant * scale * (math.sqrt(mod) * lower + mod ** (m / 2.0) * plain)


def _level_reports(check: str, constant_of: Callable[..., float], m: int,
                   triples: Sequence[ExponentTriple], w: complex, phi: GridFunction,
                   fields: Sequence[GridFunction], testfn: str) -> list[EstimateReport]:
    """One report per triple: lhs is the fsum of the fields' p-norms."""
    theta = math.atan2(w.imag, w.real)
    n = phi.dim
    weighted = weight_multiply_radial(phi, m - 1)
    reports = []
    for triple in triples:
        constant = constant_of(n, m, triple.r, theta)
        reports.append(EstimateReport(
            check=check,
            lhs=math.fsum(lp_norm(field, triple.p) for field in fields),
            rhs=weighted_rhs(m, triple, w, phi, weighted, constant),
            constant=constant,
            params=_estimate_params(n, m, triple, w, theta, testfn),
        ))
    return reports


def verify_theorem_1_2(m: int, triples: Sequence[ExponentTriple], omega,
                       phi: GridFunction, testfn: str = "") -> list[EstimateReport]:
    """Sum of monomial-weight commutator p-norms against the A-bound.

    One commutator field per |alpha| = m, built once and normed for every
    triple; one report per triple, in order.
    """
    w = check_omega(omega)
    fields = [commutator_direct(alpha, w, phi) for alpha in enumerate_level(phi.dim, m)]
    return _level_reports("weighted-estimate", constant_A, m, triples, w, phi, fields,
                          testfn)


def radial_commutator(m: int, omega, phi: GridFunction) -> GridFunction:
    """[|x|^m, e^{wD}] phi."""
    return heat_commutator(radial_weight(phi, m), omega, phi)


def verify_radial_remark(m: int, triples: Sequence[ExponentTriple], omega,
                         phi: GridFunction, testfn: str = "") -> list[EstimateReport]:
    """Radial-weight commutator against the multiplicity-free A~-bound.

    One radial commutator field, built once and normed for every triple;
    one report per triple, in order.
    """
    w = check_omega(omega)
    fields = [radial_commutator(m, w, phi)]
    return _level_reports("radial-remark", constant_A_tilde, m, triples, w, phi, fields,
                          testfn)


def verify_lipschitz_commutator(eta: GridFunction, grad_bound: float,
                                triple: ExponentTriple, omega, phi: GridFunction,
                                testfn: str = "") -> EstimateReport:
    """Bounded-Lipschitz multiplier commutator against the m = 1 bound.

    grad_bound must be the analytic sup-norm of grad eta; grid maxima
    underestimate it and are not accepted.
    """
    w = check_omega(omega)
    theta = math.atan2(w.imag, w.real)
    n = phi.dim
    if grad_bound < 0:
        raise ValueError("Lipschitz constant must be >= 0")
    lhs = lp_norm(function_commutator(eta, w, phi), triple.p)
    constant = constant_A(n, 1, triple.r, theta)
    mod = abs(w)
    scale = math.exp((-(n / 2.0) * (triple.inv_q - triple.inv_p) + 0.5) * math.log(mod))
    rhs = constant * scale * grad_bound * lp_norm(phi, triple.q)
    return EstimateReport(
        check="lipschitz",
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        params=_estimate_params(n, 1, triple, w, theta, testfn),
    )


def kernel_moment_bound_report(beta: MultiIndex, theta: float, r: float,
                          points: int, half_width: float) -> EstimateReport:
    """Intermediate kernel-norm chain behind the constant:

        || x^beta G_{e^{i theta}} ||_r
            <= 2^{n/2} || G_{2 e^{i theta}} ||_r * sup_gaussian_moment(|beta|, theta).
    """
    check_theta(theta)
    n = beta.dim
    direction = complex(math.cos(theta), math.sin(theta))
    lhs = lp_norm(weighted_kernel_grid(beta, direction, points, half_width), r)
    base = lp_norm(
        weighted_kernel_grid(zero(n), 2.0 * direction, points, half_width),
        r,
    )
    rhs = 2.0 ** (n / 2.0) * base * sup_gaussian_moment(beta.order, theta)
    params = (
        ("beta", beta.to_str()),
        ("r", format_exponent(r)),
        ("theta", format_value(theta)),
    )
    return EstimateReport(check="kernel-moment-bound", lhs=lhs, rhs=rhs,
                          constant=rhs, params=params)

