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
                             by exact-kernel quadrature, no DFT

Agreement of all three on generic inputs is the point of this module.
"""
from __future__ import annotations

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
    apply_fourier,
    convolve_weighted_kernel,
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

    @property
    def omega_power(self) -> int:
        return self.kappa.order

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
    """R_alpha(w) phi as sum of exact-kernel quadrature convolutions."""
    w = complex(omega)
    return reduce(lambda total, term: total + term, (
        complex(coeff) * convolve_weighted_kernel(beta, w, weight_multiply(phi, gamma))
        for beta, gamma, coeff in convolution_pairs(alpha)
    ))


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
