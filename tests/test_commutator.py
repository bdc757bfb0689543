import math
from functools import reduce

import numpy as np
import pytest

from gwcommute.catalog import realize_checked
from gwcommute.commutator import (
    CommutatorTerm,
    commutator_direct,
    convolution_pairs,
    evaluate_R_convolution,
    evaluate_R_theorem,
    expand_R_terms,
    function_commutator,
    identity_reports,
    lemma_B2_identity,
)
from gwcommute.grid import GridFunction, from_callable, lp_norm, rel_l2_error, weight_multiply
from gwcommute.hermite import hermite_closed_form
from gwcommute.laurent import LaurentPoly
from gwcommute.multiindex import MultiIndex, enumerate_up_to, factorial
from gwcommute.semigroup import frequencies, kernel, xi_squared


def gaussian_grid(omega, points=512, half_width=16.0):
    return from_callable(
        lambda x: (4 * math.pi * omega) ** -0.5 * np.exp(-(x**2) / (4 * omega)),
        1,
        points,
        half_width,
    )


def evaluate_R_theorem_fused(alpha, omega, phi):
    """The theorem evaluator's spectral sum written out term by term.

    P_gamma = sum of scale * prod_j (i xi_j)^{delta_j} over the terms with
    that gamma (outer products of the 1-d factors; a delta = 0 term adds its
    scalar) multiplies FFT(x^gamma phi).  The group spectra are added in
    expand_R_terms order, then exp(-w |xi|^2) and one inverse FFT.
    """
    w = complex(omega)
    ixi = 1j * frequencies(phi.points, phi.half_width)
    symbols = {}
    for term in expand_R_terms(alpha):
        if term.delta.order:
            part = term.scale(w) * reduce(np.multiply.outer, [ixi**d for d in term.delta])
        else:
            part = term.scale(w)
        if term.gamma in symbols:
            symbols[term.gamma] = symbols[term.gamma] + part
        else:
            symbols[term.gamma] = part
    total = None
    for gamma, symbol in symbols.items():
        spectrum = symbol * np.fft.fftn(weight_multiply(phi, gamma).samples)
        total = spectrum if total is None else total + spectrum
    total = total * np.exp(-w * xi_squared(phi))
    return phi.with_samples(np.fft.ifftn(total))


def random_grid(dim, points, half_width=16.0, seed=7):
    rng = np.random.default_rng(seed)
    shape = (points,) * dim
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return GridFunction(dim, points, half_width, samples)


def term_tuple(t):
    return (tuple(t.gamma), tuple(t.kappa), tuple(t.delta), t.coefficient)


def test_expand_degree_one():
    terms = expand_R_terms(MultiIndex([1]))
    assert [term_tuple(t) for t in terms] == [((0,), (0,), (1,), 1)]
    assert terms[0].beta == MultiIndex([1])


def test_expand_alpha_two():
    terms = expand_R_terms(MultiIndex([2]))
    assert sorted(term_tuple(t) for t in terms) == sorted(
        [
            ((1,), (0,), (1,), 2),  # 2 (-2w d) e^{wD}(x phi)
            ((0,), (0,), (2,), 1),  # (-2w d)^2 e^{wD} phi
            ((0,), (1,), (0,), 2),  # +2w e^{wD} phi
        ]
    )


def test_expand_alpha_one_one():
    terms = expand_R_terms(MultiIndex([1, 1]))
    assert sorted(term_tuple(t) for t in terms) == sorted(
        [
            ((1, 0), (0, 0), (0, 1), 1),
            ((0, 1), (0, 0), (1, 0), 1),
            ((0, 0), (0, 0), (1, 1), 1),
        ]
    )


def test_expand_rejects_zero_alpha():
    with pytest.raises(ValueError):
        expand_R_terms(MultiIndex([0, 0]))


def test_term_validation_and_scale():
    with pytest.raises(ValueError):
        CommutatorTerm(MultiIndex([0]), MultiIndex([0]), MultiIndex([0]), 1)
    with pytest.raises(ValueError):
        CommutatorTerm(MultiIndex([0]), MultiIndex([0]), MultiIndex([1]), 0)
    t = CommutatorTerm(MultiIndex([0]), MultiIndex([1]), MultiIndex([0]), 2)
    assert t.scale(0.5 + 0.5j) == 2 * (0.5 + 0.5j)
    t2 = CommutatorTerm(MultiIndex([0]), MultiIndex([0]), MultiIndex([2]), 1)
    assert t2.scale(1j) == (-2j) ** 2


def test_convolution_pairs_alpha_two():
    pairs = convolution_pairs(MultiIndex([2]))
    assert sorted((tuple(b), tuple(g), c) for b, g, c in pairs) == [
        ((1,), (1,), 2),
        ((2,), (0,), 1),
    ]


def test_coefficient_checksums_exact():
    """Expansion coefficients against the binomial/monomial-expansion algebra.

    (a) sum of a!/(b!g!) over b+g=a, b != 0 is 2^|a| - 1 exactly;
    (b) within each (b, g) group the kappa-sum rebuilds a!/(b!g!) x^b from
        Hermite polynomials with exact big-integer cancellation.
    """
    for n in (1, 2, 3):
        top = 8 if n == 1 else (6 if n == 2 else 4)
        for alpha in enumerate_up_to(n, top):
            if alpha.order == 0:
                continue
            pairs = convolution_pairs(alpha)
            assert sum(c for _, _, c in pairs) == 2**alpha.order - 1

            groups = {}
            for t in expand_R_terms(alpha):
                groups.setdefault((t.beta, t.gamma), []).append(t)
            assert set(groups) == {(b, g) for b, g, _ in pairs}
            for (beta, gamma), ts in groups.items():
                total = None
                for t in ts:
                    weight = LaurentPoly(
                        {t.kappa.order + t.delta.order: t.coefficient}
                    )
                    part = hermite_closed_form(t.delta, "h").scale(weight)
                    total = part if total is None else total + part
                want = factorial(alpha) // (factorial(beta) * factorial(gamma))
                assert total.coeffs == {beta: LaurentPoly({0: want})}, (alpha, beta)


def test_degree_one_reduction_is_bitwise():
    phi = gaussian_grid(0.5)
    w = 1.0 + 0.25j
    got = evaluate_R_theorem(MultiIndex([1]), w, phi)
    xi = frequencies(phi.points, phi.half_width)
    spectrum = ((-2.0 * w) * (1j * xi)) * np.fft.fftn(phi.samples)
    ref = np.fft.ifftn(spectrum * np.exp(-w * xi_squared(phi)))
    assert np.array_equal(got.samples, ref)


@pytest.mark.parametrize("dim, points", [(1, 512), (2, 64)])
def test_theorem_grouped_by_gamma_is_bit_identical(dim, points):
    phi = random_grid(dim, points)
    for alpha in enumerate_up_to(dim, 4):
        if alpha.order == 0:
            continue
        for w in (1.0, 1.0 + 0.99j, 2.0 - 1.0j):
            got = evaluate_R_theorem(alpha, w, phi)
            ref = evaluate_R_theorem_fused(alpha, w, phi)
            assert np.array_equal(got.samples, ref.samples), (alpha, w)


@pytest.mark.parametrize("name", ["gauss-wide", "mixture", "bandlimited"])
def test_theorem_matches_convolution_oracle_to_rounding(name):
    # One inverse transform after the multipliers: no round trip through
    # physical space for (i xi)^delta to amplify (|xi|^4 ~ 6e6 here).
    phi = realize_checked(name, 1, 512, 16.0)
    alpha = MultiIndex([4])
    theorem = evaluate_R_theorem(alpha, 1.0, phi)
    convolution = evaluate_R_convolution(alpha, 1.0, phi)
    assert rel_l2_error(theorem, convolution) <= 1e-13


def test_theorem_same_bits_with_one_or_two_workers(monkeypatch):
    phi = random_grid(2, 64)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GW_THREADS", threads)
        outputs.append([evaluate_R_theorem(alpha, 1.0 + 0.5j, phi).samples
                        for alpha in (MultiIndex((2, 2)), MultiIndex((3, 1)))])
    for one, two in zip(*outputs):
        assert np.array_equal(one, two)


def test_fft_counts_per_evaluator(monkeypatch):
    # The oracle must stay free of the DFT; the theorem evaluator takes one
    # forward transform per distinct gamma (8 for alpha = (2,2)) and one
    # inverse transform.
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    phi = random_grid(2, 32)
    alpha = MultiIndex((2, 2))
    for evaluator, expected in ((commutator_direct, 4), (evaluate_R_theorem, 9),
                                (evaluate_R_convolution, 0)):
        calls.clear()
        evaluator(alpha, 1.0 + 0.5j, phi)
        assert len(calls) == expected, evaluator.__name__


def test_direct_on_zero_input():
    zero = gaussian_grid(0.5) * 0.0
    out = commutator_direct(MultiIndex([2]), 1.0, zero)
    assert lp_norm(out, 2.0) == 0.0


def test_direct_degree_one_gaussian_reference():
    # [x, e^{D}] G_0.5 = -2 d/dx G_1.5 = (x / 1.5) G_1.5
    phi = gaussian_grid(0.5)
    out = commutator_direct(MultiIndex([1]), 1.0, phi)
    xs = phi.axis()
    ref = out.with_samples(
        (xs / 1.5) * np.array([kernel(1.5, [x]) for x in xs])
    )
    assert rel_l2_error(out, ref) <= 1e-8


def test_direct_bilinearity():
    phi = gaussian_grid(0.4)
    psi = gaussian_grid(0.8)
    a, b = 1.5 - 0.5j, 0.25j
    w = 0.9 + 0.3j
    lhs = commutator_direct(MultiIndex([2]), w, a * phi + b * psi)
    rhs = a * commutator_direct(MultiIndex([2]), w, phi) + b * commutator_direct(
        MultiIndex([2]), w, psi
    )
    assert rel_l2_error(lhs, rhs) <= 1e-12


def test_convolution_degree_one_gaussian_reference():
    # R_{e_1}(w) G_s = (x G_w) * G_s = x (w/(w+s)) G_{w+s}
    w, s = 1.0 + 0.5j, 0.5
    phi = gaussian_grid(s)
    out = evaluate_R_convolution(MultiIndex([1]), w, phi)
    xs = phi.axis()
    ref = out.with_samples(
        xs * (w / (w + s)) * np.array([kernel(w + s, [x]) for x in xs])
    )
    assert rel_l2_error(out, ref) <= 1e-7


def test_three_evaluators_agree_spot_checks():
    mix = 0.8 * gaussian_grid(0.35) + (0.2 - 0.4j) * gaussian_grid(0.6)
    for alpha in (MultiIndex([1]), MultiIndex([2]), MultiIndex([3]), MultiIndex([4])):
        for w in (1.0, 1.0 + 0.99j):
            reports = identity_reports(alpha, w, mix, testfn="mix")
            assert len(reports) == 3
            for rep in reports:
                assert rep.passed, (alpha, w, rep.param("pair"), rep.lhs)
                assert rep.lhs <= 1e-6


def test_identity_reports_zero_input_pass():
    zero = gaussian_grid(0.5) * 0.0
    for rep in identity_reports(MultiIndex([2]), 1.0, zero):
        assert rep.lhs == 0.0 and rep.passed


def test_function_commutator_matches_monomial_weight():
    phi = gaussian_grid(0.5)
    eta = phi.with_samples(phi.axis().astype(np.complex128))
    w = 0.8 + 0.2j
    via_eta = function_commutator(eta, w, phi)
    via_alpha = commutator_direct(MultiIndex([1]), w, phi)
    assert np.array_equal(via_eta.samples, via_alpha.samples)


def test_function_commutator_constant_eta_vanishes():
    phi = gaussian_grid(0.5)
    eta = phi.with_samples(np.full(phi.points, 3.0, dtype=np.complex128))
    out = function_commutator(eta, 1.0, phi)
    assert lp_norm(out, 2.0) <= 1e-14 * lp_norm(phi, 2.0)


def test_shift_identity_rows():
    phi = gaussian_grid(0.4)
    for alpha in (MultiIndex([1]), MultiIndex([2])):
        for w in (1.0, 0.7 + 0.6j):
            rep = lemma_B2_identity(alpha, 1, w, phi, testfn="gauss")
            assert rep.passed and rep.lhs <= 1e-6, (alpha, w, rep.lhs)
    with pytest.raises(ValueError):
        lemma_B2_identity(MultiIndex([0]), 1, 1.0, phi)
