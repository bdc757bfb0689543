"""Three independent evaluators of [x^a, e^{w*Laplacian}] phi.

    commutator_direct        x^a e^{wD}phi - e^{wD}(x^a phi), spectral semigroup
    evaluate_R_theorem       the explicit representation
                             R_a(w)phi = sum_{b+g=a, b!=0} sum_{2k<=b}
                                 a!/(g! k! (b-2k)!) w^{|k|} (-2w d)^{b-2k}
                                 e^{wD}(x^g phi)
                             as Fourier multipliers: one forward
                             transform per distinct gamma and one
                             inverse transform
    evaluate_R_convolution   the regrouped convolution form
                             sum_{b+g=a, b!=0} a!/(b! g!) (x^b G_w) * (x^g phi)
                             by exact-kernel quadrature, no DFT; the sum is
                             applied axis by axis with two accumulators
                             (every b_j so far zero / some b_j nonzero),
                             |alpha| + 2 Toeplitz passes or fewer in 2-d
                             instead of two per (b, g) pair

Agreement of all three on generic inputs is the point of this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import groupby

import numpy as np

from .grid import GridFunction, lp_norm, weight_multiply
from .multiindex import (
    MultiIndex,
    enumerate_dominated,
    enumerate_half_dominated,
    factorial,
    unit,
)
from .reporting import EstimateReport, format_value
from .semigroup import (
    _toeplitz_pass,
    apply_fourier,
    check_omega,
    check_oracle_grid,
    derivative_multiplier,
    heat_multiplier,
)

IDENTITY_TOL = 1e-6
NORM_FLOOR = 1e-30


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
        """coefficient * w^{|kappa|} * prod_j (-2w)^{delta_j}."""
        value = complex(self.coefficient) * omega**self.kappa.order
        for d in self.delta:
            value = value * (-2.0 * omega) ** d
        return value


def expand_R_terms(alpha: MultiIndex) -> list[CommutatorTerm]:
    """Complete, duplicate-free term list of R_alpha, deterministic order."""
    if alpha.order < 1:
        raise ValueError("R_alpha requires |alpha| >= 1")
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
    flowed = apply_fourier(phi, omega)
    return weight_multiply(flowed, alpha) - apply_fourier(weight_multiply(phi, alpha), omega)


def evaluate_R_theorem(alpha: MultiIndex, omega, phi: GridFunction) -> GridFunction:
    """R_alpha(w) phi as one sum of spectra, one inverse transform.

    Each term is scale * (i xi)^delta exp(-w |xi|^2) applied to x^gamma phi.
    The terms sharing gamma add up to the multiplier P_gamma(xi) on
    FFT(x^gamma phi); the group spectra are added into one running sum in
    expand_R_terms order, then the heat multiplier and the inverse transform
    are applied once.
    """
    w = complex(omega)

    def group_spectrum(gamma: MultiIndex, terms) -> np.ndarray:
        symbol = reduce(np.add, [t.scale(w) * derivative_multiplier(phi, t.delta)
                                 for t in terms])
        return symbol * np.fft.fftn(weight_multiply(phi, gamma).samples)

    spectrum = reduce(np.add, (group_spectrum(gamma, terms) for gamma, terms
                               in groupby(expand_R_terms(alpha), key=lambda t: t.gamma)))
    spectrum *= heat_multiplier(phi, w)
    return phi.with_samples(np.fft.ifftn(spectrum))


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
    nonzero (it starts empty).  With a = a_j and T_b the axis-j pass of
    t^b g_w(t), axis j maps them to

        S' = T_0 (x_j^a S) + sum_{b=1..a} C(a, b) T_b (x_j^{a-b} (S + Z))
        Z' = T_0 (x_j^a Z)

    and the result is h^n S.  Z' is formed only while a later axis has
    a_k > 0, the only place it is read.  The b = 0 term is never formed, so
    nothing cancels.  That takes at most |alpha| + 2n - 2 passes, against
    n per (b, g) pair: 6 for alpha = (2, 2) instead of 16, and |alpha| in
    1-d.
    """
    w = check_omega(omega)
    if alpha.order < 1:
        raise ValueError("R_alpha requires |alpha| >= 1")
    if alpha.dim != phi.dim:
        raise ValueError(f"weight dim {alpha.dim} != grid dim {phi.dim}")
    check_oracle_grid(phi.dim, phi.points)
    zeros, some = phi.samples, None
    for axis, a in enumerate(alpha):
        total = None if some is None else _axis_pass(some, axis, 0, a, w, phi)
        either = (zeros if some is None else some + zeros) if a else None
        # Past this point S is read only through S + Z, and Z only for Z';
        # dropping them before the passes below keeps fewer fields alive at
        # once (test_convolution_peak_memory_within_pair_sum pins the peak).
        some = None
        zeros = _axis_pass(zeros, axis, 0, a, w, phi) if any(alpha[axis + 1:]) else None
        for b in range(1, a + 1):
            total = _add_scaled(total, math.comb(a, b),
                                _axis_pass(either, axis, b, a - b, w, phi))
        some = total
    return phi.with_samples(phi.cell_volume * some)


def _add_scaled(total: np.ndarray | None, coeff: int, term: np.ndarray) -> np.ndarray:
    """total + coeff * term, in the memory of the fresh term and of total."""
    term *= coeff
    if total is None:
        return term
    total += term
    return total


def _axis_pass(u: np.ndarray, axis: int, b: int, power: int, w: complex,
               phi: GridFunction) -> np.ndarray:
    """T_b (x_axis^power u): one Toeplitz pass of evaluate_R_convolution."""
    if power:
        x = phi.axis().reshape((-1,) + (1,) * (phi.dim - 1 - axis))
        u = x**power * u
    return _toeplitz_pass(u, axis, b, w, phi.spacing)


def function_commutator(eta: GridFunction, omega, phi: GridFunction) -> GridFunction:
    """[eta, e^{wD}] phi for a bounded multiplier eta given on the same grid."""
    eta.require_conformable(phi)
    flowed = apply_fourier(phi, omega)
    weighted = phi.with_samples(eta.samples * phi.samples)
    return flowed.with_samples(eta.samples * flowed.samples) - apply_fourier(weighted, omega)


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
    w = complex(omega)
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
    if alpha.order < 1:
        raise ValueError("shift identity requires |alpha| >= 1")
    w = complex(omega)
    e_j = unit(alpha.dim, j)
    lhs = weight_multiply(evaluate_R_convolution(alpha, w, phi), e_j)
    rhs = evaluate_R_convolution(alpha + e_j, w, phi) - evaluate_R_convolution(
        e_j, w, weight_multiply(phi, alpha)
    )
    rel = lp_norm(lhs - rhs, 2.0) / max(lp_norm(lhs, 2.0), NORM_FLOOR)
    params = [("alpha", alpha.to_str()), ("j", str(j))] + _omega_params(w)
    params += [("pair", "shift-identity"), ("testfn", testfn)]
    return EstimateReport(check="shift-identity", lhs=rel, rhs=tol, params=tuple(params))
