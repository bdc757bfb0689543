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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .commutator import NORM_FLOOR, commutator_direct, function_commutator
from .grid import GridFunction, check_exponent, lp_norm, weight_multiply_radial
from .multiindex import MultiIndex, enumerate_level, level_count
from .parallel import ordered_map
from .reporting import EstimateReport, format_exponent, format_value
from .semigroup import apply_fourier, check_omega, check_theta, weighted_kernel_grid


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
    if m < 1:
        raise ValueError("weight order m must be >= 1")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    cos_t = math.cos(check_theta(theta))
    inv_r = _reciprocal(r)
    gauss = (4.0 * math.pi) ** (-(n / 2.0) * (1.0 - inv_r))
    if inv_r == 0.0:
        kernel_factor = 1.0
    else:
        kernel_factor = (2.0 / (r * cos_t)) ** (n / (2.0 * r))
    bracket = (math.sqrt(4.0 * m / (math.e * cos_t)) + 1.0) ** m - 1.0
    return gauss * kernel_factor * bracket


def constant_A(n: int, m: int, r: float, theta: float) -> float:
    return level_count(n, m) * _shared_factor(n, m, r, theta)


def constant_A_tilde(n: int, m: int, r: float, theta: float) -> float:
    return _shared_factor(n, m, r, theta)


def sup_gaussian_moment(k: int, theta: float) -> float:
    """sup_x |x|^k exp(-(cos theta / 8)|x|^2) = (4k/(e cos theta))^{k/2}."""
    if k < 1:
        raise ValueError("moment order k must be >= 1")
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


def weighted_rhs(m: int, triple: ExponentTriple, omega: complex,
                 phi: GridFunction, constant: float) -> float:
    """constant * |w|^{-(n/2)(1/q-1/p)} (|w|^{1/2}|||x|^{m-1}phi||_q + |w|^{m/2}||phi||_q)."""
    n = phi.dim
    mod = abs(omega)
    lower = lp_norm(weight_multiply_radial(phi, m - 1), triple.q)
    plain = lp_norm(phi, triple.q)
    scale = math.exp(-(n / 2.0) * (triple.inv_q - triple.inv_p) * math.log(mod))
    return constant * scale * (math.sqrt(mod) * lower + mod ** (m / 2.0) * plain)


def verify_theorem_1_2(m: int, triple: ExponentTriple, omega,
                       phi: GridFunction, testfn: str = "") -> EstimateReport:
    """Sum of monomial-weight commutator p-norms against the A-bound."""
    w = check_omega(omega)
    theta = math.atan2(w.imag, w.real)
    n = phi.dim
    level = enumerate_level(n, m)
    norms = ordered_map(
        lambda alpha: lp_norm(commutator_direct(alpha, w, phi), triple.p),
        level,
    )
    lhs = math.fsum(norms)
    constant = constant_A(n, m, triple.r, theta)
    rhs = weighted_rhs(m, triple, w, phi, constant)
    return EstimateReport(
        check="weighted-estimate",
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        params=_estimate_params(n, m, triple, w, theta, testfn),
    )


def radial_commutator(m: int, omega, phi: GridFunction) -> GridFunction:
    """[|x|^m, e^{wD}] phi."""
    flowed = apply_fourier(phi, omega)
    return weight_multiply_radial(flowed, m) - apply_fourier(
        weight_multiply_radial(phi, m), omega
    )


def verify_radial_remark(m: int, triple: ExponentTriple, omega,
                         phi: GridFunction, testfn: str = "") -> EstimateReport:
    """Radial-weight commutator against the multiplicity-free A~-bound."""
    w = check_omega(omega)
    theta = math.atan2(w.imag, w.real)
    n = phi.dim
    lhs = lp_norm(radial_commutator(m, w, phi), triple.p)
    constant = constant_A_tilde(n, m, triple.r, theta)
    rhs = weighted_rhs(m, triple, w, phi, constant)
    return EstimateReport(
        check="radial-remark",
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        params=_estimate_params(n, m, triple, w, theta, testfn),
    )


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
        weighted_kernel_grid(MultiIndex((0,) * n), 2.0 * direction, points, half_width),
        r,
    )
    rhs = 2.0 ** (n / 2.0) * base * sup_gaussian_moment(beta.order, theta)
    params = (
        ("n", str(n)),
        ("m", str(beta.order)),
        ("p", format_exponent(r)),
        ("q", format_exponent(r)),
        ("r", format_exponent(r)),
        ("omega_re", format_value(math.cos(theta))),
        ("omega_im", format_value(math.sin(theta))),
        ("theta", format_value(theta)),
        ("testfn", f"kernel:{beta.to_str()}"),
    )
    return EstimateReport(check="kernel-moment-bound", lhs=lhs, rhs=rhs,
                          constant=rhs, params=params)


def holder_interpolation_gap(phi: GridFunction, m: int, q: float, k: int) -> tuple[float, float]:
    """(lhs, rhs) of |||x|^k phi||_q <= |||x|^{m-1}phi||_q^{k/(m-1)} ||phi||_q^{1-k/(m-1)}.

    Valid for 0 <= k <= m-1, m >= 2.
    """
    if m < 2 or not 0 <= k <= m - 1:
        raise ValueError("need m >= 2 and 0 <= k <= m-1")
    lhs = lp_norm(weight_multiply_radial(phi, k), q)
    top = lp_norm(weight_multiply_radial(phi, m - 1), q)
    plain = lp_norm(phi, q)
    frac = k / (m - 1)
    rhs = max(top, NORM_FLOOR) ** frac * max(plain, NORM_FLOOR) ** (1.0 - frac)
    return lhs, rhs
