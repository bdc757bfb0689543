"""Three independent evaluators of [x^a, e^{w*Laplacian}] phi.

    commutator_direct        x^a e^{wD}phi - e^{wD}(x^a phi), both flows through
                             one multiplier (semigroup.heat_commutator)
    evaluate_R_theorem       the explicit representation
                             R_a(w)phi = sum_{b+g=a, b!=0} sum_{2k<=b}
                                 a!/(g! k! (b-2k)!) w^{|k|} (-2w d)^{b-2k}
                                 e^{wD}(x^g phi)
                             as Fourier multipliers, axis by axis, each
                             axis's symbol summed from expand_R_terms' 1-d
                             term list: one one-axis transform per (axis,
                             g_j) and per carried part, one inverse at the
                             end; 88 one-axis transforms per 2-d input and
                             w over the 14 alpha with 1 <= |alpha| <= 4
    evaluate_R_convolution   the regrouped convolution form
                             sum_{b+g=a, b!=0} a!/(b! g!) (x^b G_w) * (x^g phi)
                             by exact-kernel quadrature, no DFT; the sum is
                             applied axis by axis with two accumulators
                             (every b_j so far zero / some b_j nonzero),
                             each axis's binomial sum folded into one
                             matrix: at most 4 passes per alpha in 2-d, 40
                             over the same 14 alpha, one per alpha in 1-d

Agreement of all three on generic inputs is the point of this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

import numpy as np

from .grid import (
    NORM_FLOOR,
    GridFunction,
    lp_norm,
    monomial_weight,
    rel_l2_error,
    weight_multiply,
)
from .multiindex import (
    MultiIndex,
    check_index,
    check_order,
    enumerate_dominated,
    enumerate_half_dominated,
    factorial,
    unit,
)
from .reporting import EstimateReport, format_value
from .semigroup import (
    _binomial_pass,
    _toeplitz_pass,
    check_omega,
    check_oracle_grid,
    frequencies,
    heat_commutator,
)

IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class CommutatorTerm:
    """One summand of R_a(w): coefficient w^{|kappa|} (-2w d)^delta e^{wD}(x^gamma .).

    coefficient = a!/(gamma! kappa! delta!) > 0; the sign and the powers of 2
    enter only through (-2w)^{|delta|} at evaluation time.
    """

    gamma: MultiIndex
    kappa: MultiIndex
    delta: MultiIndex
    coefficient: int

    def __post_init__(self):
        if self.coefficient <= 0:
            raise ValueError("term coefficient must be a positive integer")
        beta = self.beta
        if beta.order == 0:
            raise ValueError("beta = delta + 2 kappa must be nonzero")

    @property
    def beta(self) -> MultiIndex:
        return self.delta + (2 * self.kappa)

    def scale(self, omega: complex) -> complex:
        """coefficient w^{|kappa|} prod_j (-2w)^{delta_j}; _axis_symbols sums these."""
        value = complex(self.coefficient) * omega**self.kappa.order
        for d in self.delta:
            value = value * (-2.0 * omega) ** d
        return value


def expand_R_terms(alpha: MultiIndex) -> list[CommutatorTerm]:
    """Complete, duplicate-free term list of R_alpha, deterministic order."""
    check_order(alpha.order, "|alpha|")
    a_fact = factorial(alpha)
    terms = []
    for beta in enumerate_dominated(alpha):
        if beta.order == 0:
            continue
        gamma = alpha - beta
        for kappa in enumerate_half_dominated(beta):
            delta = beta - (2 * kappa)
            coeff = a_fact // (factorial(gamma) * factorial(kappa) * factorial(delta))
            terms.append(CommutatorTerm(gamma, kappa, delta, coeff))
    return terms


def commutator_direct(alpha: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """[x^a, e^{wD}] phi by its definition; the brute-force reference."""
    return heat_commutator(monomial_weight(phi, alpha), omega, phi)


def evaluate_R_theorem(alpha: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """R_alpha(w) phi as Fourier multipliers, one axis at a time.

    The terms sharing gamma add up to P_gamma(xi) e^{-w |xi|^2} on
    FFT(x^gamma phi), and P_gamma(xi) = prod_j p_{a_j, g_j}(xi_j), each
    p_{a,g} summed from expand_R_terms((a,)) (see _axis_symbols) and
    p_{a, a} = 1, so the sum over gamma != alpha factorises over the axes.
    Two parts run through them: Z, where every beta_j so far is 0 (it
    starts as phi), and S, where some beta_j so far is nonzero (it starts
    empty).  With F_j the DFT along axis j and a = a_j, axis j maps them to

        S' = F_j(x_j^a S) + sum_{g=a-1..0} p_{a,g}(xi_j) F_j(x_j^g (S + Z))
        Z' = F_j(x_j^a Z)

    Finished axes stay in frequency space.  Z' is formed only while a later
    axis has a_k > 0.  At the end S takes the heat factors e^{-w xi_j^2}
    and one inverse transform over all axes.  That is at most
    |alpha| + 2n - 2 one-axis forward transforms and n inverse ones,
    against n per distinct gamma and n: 8 for alpha = (2, 2) instead of 18,
    and 88 instead of 138 over the 14 alpha with 1 <= |alpha| <= 4.  In 1-d
    it is the gamma-grouped sum itself, the groups added in expand_R_terms
    order, so its bits are those of one fftn per gamma and one ifftn.
    """
    w = check_omega(omega)
    check_order(alpha.order, "|alpha|")
    check_index(alpha, phi.dim)
    xi = frequencies(phi.points, phi.half_width)
    ixi = 1j * xi
    x = phi.axis()
    zeros, some = phi.samples, None
    for axis, a in enumerate(alpha):
        shape = (-1,) + (1,) * (phi.dim - 1 - axis)
        x_j = x.reshape(shape)

        # F_j(x_j^g u) by fftn over one axis, not fft: a count of fftn/ifftn
        # calls per axis transformed (benchmarks/tracer.py keeps one) sees all.
        def transform(u, g):
            return np.fft.fftn(x_j**g * u if g else u, axes=[axis])

        total = None if some is None else transform(some, a)
        if a:
            # S has been transformed into total, so S + Z may take its buffer.
            if some is None:
                either = zeros
            else:
                some += zeros
                either = some
            for g, symbol in _axis_symbols(a, w, ixi):
                part = symbol.reshape(shape) * transform(either, g)
                if total is None:
                    total = part
                else:
                    total += part
        if any(alpha[axis + 1:]):
            zeros = transform(zeros, a)
        some = total
    heat = np.exp(-w * np.square(xi))
    for axis in range(phi.dim):
        some *= heat.reshape((-1,) + (1,) * (phi.dim - 1 - axis))
    return phi.with_samples(np.fft.ifftn(some, out=some))


def _axis_symbols(a: int, w: complex,
                  ixi: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(g, p_{a,g}(xi)) for g = a-1..0: the terms of R_(a), grouped by gamma.

    p_{a,g}(xi) = sum_{2k<=a-g} a!/(g! k! d!) w^k (-2w)^d (i xi)^d, d = a-g-2k,
    is one axis's factor of P_gamma.  A group adds its terms in
    expand_R_terms order (k rising, so the first has d >= 1); a d = 0 term
    adds its bare scale.
    """
    for (g,), group in groupby(expand_R_terms(MultiIndex((a,))), lambda t: t.gamma):
        first, *rest = (t.scale(w) * ixi**t.delta[0] if t.delta[0] else t.scale(w)
                        for t in group)
        yield g, sum(rest, first)


def convolution_pairs(alpha: MultiIndex) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """(beta, gamma, a!/(b!g!)) for beta + gamma = alpha, beta != 0."""
    a_fact = factorial(alpha)
    pairs = []
    for beta in enumerate_dominated(alpha):
        if beta.order == 0:
            continue
        gamma = alpha - beta
        pairs.append((beta, gamma, a_fact // (factorial(beta) * factorial(gamma))))
    return pairs


def evaluate_R_convolution(alpha: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """R_alpha(w) phi as exact-kernel quadrature convolutions, axis by axis.

    a!/(b!g!) = prod_j C(a_j, b_j), and x_k^{g_k} commutes with a Toeplitz
    pass along axis j != k, so the pair sum factorises over the axes.  Two
    accumulators run through the axes: Z, the part where every b_j so far
    is 0 (it starts as phi), and S, the part where some b_j so far is
    nonzero (it starts empty).  With a = a_j, T_0 the axis-j pass of g_w
    and M_a the one-pass sum_{b=1..a} C(a, b) T_b x_j^{a-b} (see
    semigroup._binomial_pass), axis j maps them to

        S' = x_j^a T_0 S + M_a Z
        Z' = T_0 (x_j^a Z)

    and the result is h^n S.  S takes the whole binomial sum over b_j,
    b_j = 0 included, and that sum is one weight: with d = x_i - x_k,
    sum_{b=0..a} C(a, b) d^b x_k^{a-b} = (d + x_k)^a = x_i^a, so
    T_0 x_j^a + M_a = x_j^a T_0.  Z takes b_j >= 1 only, since its b_j = 0
    term is Z'; that sum is M_a, built by Horner in d, because the same
    identity would form it as x_j^a T_0 Z - T_0 (x_j^a Z), which cancels.

    Each pass moves its axis last (see semigroup), so axis j leads when
    its passes run and its weight x_j^a then lies along the last axis.  Z'
    is formed only while a later axis has a_k > 0, the only place it is
    read.  That takes at most 3n - 2 passes, against n per (b, g) pair: 4
    for alpha = (2, 2) instead of 16, and one in 1-d.
    """
    w = check_omega(omega)
    check_order(alpha.order, "|alpha|")
    check_index(alpha, phi.dim)
    check_oracle_grid(phi.dim, phi.points)
    x, h = phi.axis(), phi.spacing
    x_0 = x.reshape((-1,) + (1,) * (phi.dim - 1))
    zeros, some = phi.samples, None
    for j, a in enumerate(alpha):
        if some is None:
            some = _binomial_pass(zeros, a, w, x, h) if a else None
        else:
            some = _toeplitz_pass(some, 0, w, h)
            if a:
                some *= x**a
                some += _binomial_pass(zeros, a, w, x, h)
        zeros = (_toeplitz_pass(x_0**a * zeros if a else zeros, 0, w, h)
                 if any(alpha[j + 1:]) else None)
    return phi.with_samples(phi.cell_volume * some)


def function_commutator(eta: GridFunction, omega, phi: GridFunction) -> GridFunction:
    """[eta, e^{wD}] phi for a bounded multiplier eta given on the same grid."""
    eta.require_conformable(phi)
    return heat_commutator(eta.samples, omega, phi)


def _omega_params(omega: complex) -> list[tuple[str, str]]:
    return [
        ("omega_re", format_value(float(omega.real))),
        ("omega_im", format_value(float(omega.imag))),
    ]


def identity_reports(
    alpha: MultiIndex,
    omega,
    phi: GridFunction,
    testfn: str = "",
    tol: float = IDENTITY_TOL,
) -> list[EstimateReport]:
    """Pairwise relative-L2 discrepancies of the three evaluators.

    All pairs are denominated by ||direct||_2 (floored), so a zero input
    passes trivially and near-zero outputs cannot inflate the ratio.
    """
    w = check_omega(omega)
    direct = commutator_direct(alpha, w, phi)
    theorem = evaluate_R_theorem(alpha, w, phi)
    convolution = evaluate_R_convolution(alpha, w, phi)
    denom = max(lp_norm(direct, 2.0), NORM_FLOOR)
    pairs = [
        ("direct-vs-theorem", direct - theorem),
        ("direct-vs-convolution", direct - convolution),
        ("theorem-vs-convolution", theorem - convolution),
    ]
    reports = []
    for name, residual in pairs:
        rel = lp_norm(residual, 2.0) / denom
        params = [("alpha", alpha.to_str())] + _omega_params(w)
        params += [("pair", name), ("testfn", testfn)]
        reports.append(
            EstimateReport(check="identity", lhs=rel, rhs=tol, params=tuple(params))
        )
    return reports


def lemma_B2_identity(
    alpha: MultiIndex,
    j: int,
    omega,
    phi: GridFunction,
    testfn: str = "",
    tol: float = IDENTITY_TOL,
) -> EstimateReport:
    """Check x_j R_a(w) phi = R_{a+e_j}(w) phi - R_{e_j}(w)(x^a phi).

    Both sides through evaluate_R_convolution; reported as a relative-L2
    discrepancy row.
    """
    check_order(alpha.order, "|alpha|")
    w = check_omega(omega)
    e_j = unit(alpha.dim, j)
    lhs = weight_multiply(evaluate_R_convolution(alpha, w, phi), e_j)
    rhs = evaluate_R_convolution(alpha + e_j, w, phi) - evaluate_R_convolution(
        e_j, w, weight_multiply(phi, alpha)
    )
    rel = rel_l2_error(rhs, lhs)
    params = [("alpha", alpha.to_str()), ("j", str(j))] + _omega_params(w)
    params += [("pair", "shift-identity"), ("testfn", testfn)]
    return EstimateReport(check="shift-identity", lhs=rel, rhs=tol, params=tuple(params))
