"""Reference implementations the tests compare the library against.

None of these has a caller in the library or the benchmark, so they live
beside the tests (the file is not collected: its name does not match
test_*.py).  They are:

- the Hermite paper checks: the order-zero polynomial, exact products by
  x^gamma and by a Laurent weight, numeric evaluation, the transport
  between the two flavors, both sides of the recurrence, h_{w,a} generated
  by the recurrence alone, and x^a rebuilt from monomial_expand;
- the Gaussian kernel G_w and its derivatives at one point, through the
  Hermite closed form;
- the full |xi|^2 grid the multiplier tests compare heat_multiplier
  against;
- a sampler that builds a GridFunction from a numpy-vectorized callable.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from gwcommute import laurent
from gwcommute.grid import GridFunction, coordinates
from gwcommute.hermite import HermitePoly, hermite_closed_form, monomial_expand
from gwcommute.laurent import LaurentPoly
from gwcommute.multiindex import MultiIndex, unit, zero
from gwcommute.semigroup import frequencies, gaussian_log_prefactor


# Hermite polynomials ----------------------------------------------------------

def hermite_one(dim: int, flavor: str) -> HermitePoly:
    """The order-zero polynomial, identically 1."""
    return HermitePoly(dim, flavor, {zero(dim): laurent.ONE})


def monomial_multiply(poly: HermitePoly, gamma: MultiIndex) -> HermitePoly:
    """Exact multiplication by x^gamma."""
    if gamma.dim != poly.dim:
        raise ValueError("dimension mismatch")
    return HermitePoly(poly.dim, poly.flavor, {b + gamma: w for b, w in poly.coeffs.items()})


def scale(poly: HermitePoly, weight: LaurentPoly) -> HermitePoly:
    """Exact multiplication of every coefficient by weight."""
    return HermitePoly(poly.dim, poly.flavor, {b: w * weight for b, w in poly.coeffs.items()})


def evaluate(poly: HermitePoly, omega: complex, x) -> complex:
    """Numeric value of poly at (omega, x), x a length-n point.

    Direct monomial sum, compensated via math.fsum per component.
    """
    if omega == 0:
        raise ValueError("omega must be nonzero")
    coords = np.asarray(x)
    if coords.ndim == 0:
        if poly.dim != 1:
            raise ValueError("scalar point only valid for dim 1")
        coords = coords.reshape(1)
    elif coords.shape[0] != poly.dim:
        raise ValueError(f"point has {coords.shape[0]} coords, expected {poly.dim}")
    values = []
    for beta, weight in poly.sorted_terms():
        mono = 1.0
        for k, b in enumerate(beta):
            if b:
                mono = mono * coords[k] ** b
        values.append(complex(weight(omega)) * mono)
    return complex(math.fsum(v.real for v in values),
                   math.fsum(v.imag for v in values))


def flavor_convert(poly: HermitePoly) -> HermitePoly:
    """Transport between flavors: h_{w,a}(x) = H_{w,a}(x/2).

    Rewriting a polynomial p(x) as p(x/2) divides the x^beta coefficient by
    2^{|beta|}; going the other way multiplies.  Division is exact here
    because H-flavor coefficients carry the 2^{|a-2b|} factor.
    """
    out: dict[MultiIndex, LaurentPoly] = {}
    if poly.flavor == "H":
        for beta, weight in poly.coeffs.items():
            shift = beta.order
            halved = {k: c >> shift for k, c in weight.terms.items()}
            if any((c << shift) != weight.terms[k] for k, c in halved.items()):
                raise ValueError("coefficient not divisible by 2^|beta|")
            out[beta] = LaurentPoly(halved)
        return HermitePoly(poly.dim, "h", out)
    for beta, weight in poly.coeffs.items():
        out[beta] = weight * (1 << beta.order)
    return HermitePoly(poly.dim, "H", out)


def hermite_recurrence(alpha: MultiIndex, j: int) -> dict[str, HermitePoly]:
    """Both sides of x_j h_{w,a} = w h_{w,a+e_j} + 2 a_j h_{w,a-e_j}.

    (The second term drops when a_j = 0.)  Returns exact h-flavor
    polynomials under keys "lhs" and "rhs"; equality is testable with ==.
    """
    e_j = unit(alpha.dim, j)
    lhs = monomial_multiply(hermite_closed_form(alpha, "h"), e_j)
    rhs = scale(hermite_closed_form(alpha + e_j, "h"), LaurentPoly.monomial(1, 1))
    a_j = alpha[j - 1]
    if a_j >= 1:
        rhs = rhs + scale(hermite_closed_form(alpha - e_j, "h"),
                          LaurentPoly.constant(2 * a_j))
    return {"lhs": lhs, "rhs": rhs}


def hermite_by_recurrence(alpha: MultiIndex) -> HermitePoly:
    """Generate h_{w,alpha} from h_{w,0} = 1 by the recurrence alone.

    Solving the recurrence for the top term:
        h_{w,a+e_j} = w^{-1} (x_j h_{w,a} - 2 a_j h_{w,a-e_j}).
    Independent of the closed form; used as its oracle.
    """
    cache: dict[MultiIndex, HermitePoly] = {zero(alpha.dim): hermite_one(alpha.dim, "h")}

    def build(a: MultiIndex) -> HermitePoly:
        got = cache.get(a)
        if got is not None:
            return got
        j = next(k for k, c in enumerate(a, start=1) if c > 0)
        e_j = unit(a.dim, j)
        prev = a - e_j
        poly = scale(monomial_multiply(build(prev), e_j), LaurentPoly.monomial(1, -1))
        if prev[j - 1] >= 1:
            poly = poly - scale(build(prev - e_j),
                                LaurentPoly.monomial(2 * prev[j - 1], -1))
        cache[a] = poly
        return poly

    return build(alpha)


def reconstruct_monomial(alpha: MultiIndex) -> HermitePoly:
    """Substitute closed forms into monomial_expand; must equal x^alpha exactly."""
    total = HermitePoly(alpha.dim, "h", {})
    for b, weight in monomial_expand(alpha):
        total = total + scale(hermite_closed_form(alpha - (2 * b), "h"), weight)
    return total


# The Gaussian kernel at a point -----------------------------------------------

def gaussian_kernel_point(omega: complex, x) -> complex:
    """G_w(x) = (4 pi w)^{-n/2} exp(-|x|^2 / (4w)), principal branch."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    coords = np.atleast_1d(np.asarray(x, dtype=float))
    log_pref = gaussian_log_prefactor(omega, coords.size)
    return complex(np.exp(log_pref - float(coords @ coords) / (4.0 * omega)))


def gaussian_derivative(alpha: MultiIndex, omega: complex, x) -> complex:
    """(d^a G_w)(x) = (-2)^{-|a|} h_{w,a}(x) G_w(x)."""
    h_val = evaluate(hermite_closed_form(alpha, "h"), omega, x)
    return (-2.0) ** (-alpha.order) * h_val * gaussian_kernel_point(omega, x)


# Grids ------------------------------------------------------------------------

def xi_squared(phi: GridFunction) -> np.ndarray:
    """|xi|^2 on the full frequency grid of phi, FFT order.

    The axes are added in order, as heat_multiplier adds them, so the sums
    are bit for bit the ones it gathers from its representatives.
    """
    xi_sq = np.square(frequencies(phi.points, phi.half_width))
    return reduce(np.add.outer, [xi_sq] * phi.dim)


def from_callable(fn, dim: int, points: int, half_width: float) -> GridFunction:
    """Sample fn(x_1, ..., x_n) (numpy-vectorized) on the grid."""
    values = fn(*coordinates(dim, points, half_width))
    samples = np.broadcast_to(values, (points,) * dim).astype(np.complex128)
    return GridFunction(dim, points, half_width, samples)
