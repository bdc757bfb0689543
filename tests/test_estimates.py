import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gwcommute.catalog import realize_checked
from gwcommute.estimates import (
    ExponentTriple,
    constant_A,
    constant_A_tilde,
    radial_commutator,
    kernel_moment_bound_report,
    sup_gaussian_moment,
    verify_lipschitz_commutator,
    verify_radial_remark,
    verify_theorem_1_2,
    weighted_rhs,
)
from gwcommute.grid import NORM_FLOOR, lp_norm, rel_l2_error, weight_multiply_radial
from gwcommute.multiindex import MultiIndex

from oracles import from_callable

INF = math.inf


def gaussian_grid(omega, points=512, half_width=16.0):
    return from_callable(
        lambda x: (4 * math.pi * omega) ** -0.5 * np.exp(-(x**2) / (4 * omega)),
        1,
        points,
        half_width,
    )


def test_exponent_triple_table():
    cases = {
        (1.0, 1.0): 1.0,
        (2.0, 1.0): 2.0,
        (INF, 1.0): INF,
        (2.0, 2.0): 1.0,
        (INF, 2.0): 2.0,
        (INF, INF): 1.0,
        (3.0, 2.0): 1.2,
    }
    for (p, q), r in cases.items():
        assert ExponentTriple(p, q).r == pytest.approx(r), (p, q)
    with pytest.raises(ValueError):
        ExponentTriple(1.0, 2.0)
    with pytest.raises(ValueError):
        ExponentTriple(0.5, 0.5)


def log_constant_A(n, m, r, theta):
    """Independent reimplementation of the constant, assembled in log space."""
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    log_gauss = -(n / 2.0) * (1.0 - inv_r) * math.log(4 * math.pi)
    if inv_r == 0.0:
        log_kernel = 0.0
    else:
        log_kernel = (n / (2.0 * r)) * math.log(2.0 / (r * math.cos(theta)))
    bracket = (math.sqrt(4.0 * m / (math.e * math.cos(theta))) + 1.0) ** m - 1.0
    return math.comb(n + m - 1, m) * math.exp(log_gauss + log_kernel) * bracket


def test_constant_A_reference_value():
    want = math.sqrt(2.0) * math.sqrt(4.0 / math.e)
    assert constant_A(1, 1, 1.0, 0.0) == pytest.approx(want, rel=1e-12)
    assert constant_A(1, 1, 1.0, 0.0) == pytest.approx(1.7155277699214138, rel=1e-12)


def test_constant_A_matches_log_reimplementation():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for r in (1.0, 1.5, 2.0, INF):
                for theta in (0.0, 0.3, 0.9, 1.2, -0.7):
                    assert constant_A(n, m, r, theta) == pytest.approx(
                        log_constant_A(n, m, r, theta), rel=1e-12
                    ), (n, m, r, theta)


def test_constant_symmetry_and_monotonicity():
    for n in (1, 2):
        for m in (1, 2, 3):
            for r in (1.0, 2.0, INF):
                thetas = [0.0, 0.2, 0.5, 0.8, 1.1, 1.4]
                values = [constant_A(n, m, r, t) for t in thetas]
                for t, v in zip(thetas, values):
                    assert constant_A(n, m, r, -t) == v
                assert all(a < b for a, b in zip(values, values[1:]))


def test_constant_rejects_bad_angle():
    for theta in (math.pi / 2, -math.pi / 2, 2.0):
        with pytest.raises(ValueError):
            constant_A(1, 1, 1.0, theta)
    with pytest.raises(ValueError):
        constant_A(1, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        constant_A(0, 1, 1.0, 0.0)


def test_tilde_ratio_is_multiplicity():
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4):
            a = constant_A(n, m, 2.0, 0.4)
            tilde = constant_A_tilde(n, m, 2.0, 0.4)
            assert a == pytest.approx(math.comb(n + m - 1, m) * tilde, rel=1e-14)
    # n = 1: no multiplicity, the two coincide
    assert constant_A(1, 3, 1.0, 0.2) == constant_A_tilde(1, 3, 1.0, 0.2)


def test_sup_gaussian_moment_against_numeric_max():
    for k in (1, 2, 3, 5):
        for theta in (0.0, 0.6, 1.2):
            cos_t = math.cos(theta)
            res = minimize_scalar(
                lambda x: -(x**k) * math.exp(-(cos_t / 8.0) * x * x),
                bounds=(0.0, 50.0 / math.sqrt(cos_t)),
                method="bounded",
                options={"xatol": 1e-12},
            )
            assert sup_gaussian_moment(k, theta) == pytest.approx(
                -res.fun, rel=1e-10
            ), (k, theta)
    with pytest.raises(ValueError):
        sup_gaussian_moment(0, 0.0)


def test_theorem_bound_closed_form_example():
    # m=1, p=q=1, w=1, phi = G_0.5: lhs = (2/3) sqrt(6/pi), rhs = 2 A(1,1,1,0)
    phi = gaussian_grid(0.5)
    rep = verify_theorem_1_2(1, [ExponentTriple(1.0, 1.0)], 1.0, phi, testfn="gauss")[0]
    assert rep.passed and rep.margin > 0
    # L^1 norm of the odd commutator sees the |.| kink: rectangle rule is
    # O(h^2) there, so the closed form only pins the grid value to ~1e-4
    assert rep.lhs == pytest.approx((2.0 / 3.0) * math.sqrt(6.0 / math.pi), rel=2e-4)
    assert rep.rhs == pytest.approx(2.0 * constant_A(1, 1, 1.0, 0.0), rel=1e-12)
    assert rep.param("p") == "1" and rep.param("testfn") == "gauss"


def test_theorem_bound_zero_input():
    zero = gaussian_grid(0.5) * 0.0
    rep = verify_theorem_1_2(2, [ExponentTriple(2.0, 1.0)], 1.0 + 0.5j, zero)[0]
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_theorem_bound_sweep_holds():
    mix = 0.8 * gaussian_grid(0.35) + (0.2 - 0.4j) * gaussian_grid(0.6)
    for m in (1, 2):
        for p, q in ((1.0, 1.0), (2.0, 1.0), (INF, 1.0), (2.0, 2.0), (INF, INF)):
            for omega in (1.0, 1.0 + 0.9j, 0.25, 4.0):
                rep = verify_theorem_1_2(m, [ExponentTriple(p, q)], omega, mix)[0]
                assert rep.passed, (m, p, q, omega, rep.lhs, rep.rhs)


def test_margin_is_dilation_invariant():
    # phi_lam(x) = phi(x/lam) realized exactly by rescaling the box;
    # omega -> lam^2 omega.  The lhs/rhs ratio must be unchanged.
    samples = (
        0.8 * gaussian_grid(0.35).samples + (0.2 - 0.4j) * gaussian_grid(0.6).samples
    )
    base = gaussian_grid(0.5).with_samples(samples)
    triple = ExponentTriple(2.0, 1.0)
    rep0 = verify_theorem_1_2(1, [triple], 1.0 + 0.5j, base)[0]
    ratio0 = rep0.lhs / rep0.rhs
    for lam in (0.25, 4.0):
        from gwcommute.grid import GridFunction

        dilated = GridFunction(1, base.points, base.half_width * lam, samples)
        rep = verify_theorem_1_2(1, [triple], lam * lam * (1.0 + 0.5j), dilated)[0]
        assert rep.lhs / rep.rhs == pytest.approx(ratio0, rel=1e-12), lam


PQ_PAIRS = ((1.0, 1.0), (2.0, 1.0), (INF, 1.0), (2.0, 2.0), (INF, INF))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("verify", [verify_theorem_1_2, verify_radial_remark])
def test_multi_triple_reports_match_one_triple_calls(verify, dim):
    # the fields are built once per call and normed per triple: each report
    # must equal, float for float, the report of a call with its triple alone
    phi = realize_checked("mixture" if dim == 1 else "bandlimited", dim,
                          512 if dim == 1 else 64, 16.0)
    triples = [ExponentTriple(p, q) for p, q in PQ_PAIRS]
    for m in (1, 2):
        for omega in (1.0, 1.0 + 0.9j):
            reports = verify(m, triples, omega, phi, testfn="t")
            alone = [verify(m, [triple], omega, phi, testfn="t")[0] for triple in triples]
            assert reports == alone, (m, omega)
            assert [r.param("p") for r in reports] == ["1", "2", "inf", "2", "inf"]


def test_weighted_rhs_formula_spot_value():
    phi = gaussian_grid(0.5)
    triple = ExponentTriple(2.0, 1.0)
    got = weighted_rhs(2, triple, 4.0, phi, weight_multiply_radial(phi, 1), 10.0)
    lower = lp_norm(weight_multiply_radial(phi, 1), 1.0)
    plain = lp_norm(phi, 1.0)
    want = 10.0 * 4.0 ** (-0.25) * (2.0 * lower + 4.0 * plain)
    assert got == pytest.approx(want, rel=1e-13)


def test_radial_remark_m2():
    # for n = 1, |x|^2 = x^2: the radial commutator coincides with the
    # monomial one and the multiplicity-free bound must still hold
    phi = gaussian_grid(0.5)
    from gwcommute.commutator import commutator_direct

    rad = radial_commutator(2, 1.0 + 0.3j, phi)
    mono = commutator_direct(MultiIndex([2]), 1.0 + 0.3j, phi)
    assert rel_l2_error(rad, mono) <= 1e-13
    for p, q in ((1.0, 1.0), (2.0, 1.0)):
        rep = verify_radial_remark(2, [ExponentTriple(p, q)], 1.0 + 0.3j, phi)[0]
        assert rep.passed and rep.check == "radial-remark"


def test_lipschitz_commutator_bound():
    phi = gaussian_grid(0.5)
    eta = phi.with_samples(np.sin(phi.axis()).astype(np.complex128))
    for omega in (1.0, 0.5 + 0.4j, 2.0 - 1.0j):
        rep = verify_lipschitz_commutator(
            eta, 1.0, ExponentTriple(1.0, 1.0), omega, phi, testfn="sin-x1"
        )
        assert rep.passed, (omega, rep.lhs, rep.rhs)
    with pytest.raises(ValueError):
        verify_lipschitz_commutator(eta, -1.0, ExponentTriple(1.0, 1.0), 1.0, phi)


@pytest.mark.parametrize("bound", [math.nan, math.inf])
def test_lipschitz_bound_must_be_finite(bound):
    phi = gaussian_grid(0.5)
    eta = phi.with_samples(np.sin(phi.axis()).astype(np.complex128))
    with pytest.raises(ValueError, match=f"Lipschitz constant must be finite and >= 0, got {bound!r}"):
        verify_lipschitz_commutator(eta, bound, ExponentTriple(1.0, 1.0), 1.0, phi)


def test_lipschitz_constant_eta_gives_zero_lhs():
    phi = gaussian_grid(0.5)
    # eta == 1.0 exactly: multiplying by one is bitwise exact, so the two
    # semigroup applications cancel identically and lhs == 0 == rhs passes
    ones = phi.with_samples(np.ones(phi.points, dtype=np.complex128))
    rep = verify_lipschitz_commutator(ones, 0.0, ExponentTriple(2.0, 1.0), 1.0, phi)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed
    # any other constant picks up FFT roundoff: still zero for all practical
    # purposes, but no longer bitwise
    other = phi.with_samples(np.full(phi.points, 2.5, dtype=np.complex128))
    rep2 = verify_lipschitz_commutator(other, 0.0, ExponentTriple(2.0, 1.0), 1.0, phi)
    assert rep2.lhs <= 1e-14


def test_kernel_moment_bound_sweep():
    for b in (1, 2, 3, 4):
        for r in (1.0, 2.0, INF):
            for theta in (0.0, 0.6, 1.2):
                rep = kernel_moment_bound_report(MultiIndex([b]), theta, r, 2048, 16.0)
                assert rep.passed, (b, r, theta, rep.lhs, rep.rhs)
    rep2 = kernel_moment_bound_report(MultiIndex([2, 1]), 0.4, 2.0, 128, 12.0)
    assert rep2.passed


def holder_interpolation_gap(phi, m: int, q: float, k: int) -> tuple[float, float]:
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


def test_holder_interpolation():
    mix = 0.8 * gaussian_grid(0.35) + (0.2 - 0.4j) * gaussian_grid(0.6)
    for q in (1.0, 2.0, INF):
        for m, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
            lhs, rhs = holder_interpolation_gap(mix, m, q, k)
            assert lhs <= rhs * (1 + 1e-9), (q, m, k)
    # k = 0 is the trivial endpoint: equality
    lhs, rhs = holder_interpolation_gap(mix, 3, 2.0, 0)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        holder_interpolation_gap(mix, 1, 2.0, 0)
    with pytest.raises(ValueError):
        holder_interpolation_gap(mix, 3, 2.0, 3)
