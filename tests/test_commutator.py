import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from gwcommute import commutator, semigroup
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
from gwcommute.grid import GridFunction, lp_norm, rel_l2_error, weight_multiply
from gwcommute.hermite import hermite_closed_form
from gwcommute.laurent import LaurentPoly
from gwcommute.multiindex import MultiIndex, enumerate_up_to, factorial
from gwcommute.semigroup import convolve_weighted_kernel, frequencies

from oracles import evaluate, from_callable, gaussian_kernel_point, xi_squared

SWEEP_OMEGAS = (1.0, 0.25, 1.0 + 0.99j, 2.0 - 1.0j)  # acceptance-03's four omegas


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


def test_theorem_symbol_is_the_papers_hermite_polynomial():
    """p_{a,g}(xi) = C(a, g) H_{w, a-g}(i xi) at w = -1/omega, exactly.

    The 1-d terms of R_(a) with gamma = g give p_{a,g} the coefficient
    coefficient * (-2)^d of omega^{k+d} (i xi)^d.  H's c w^m becomes
    c (-1)^m omega^{-m} under the substitution.
    """
    for a in range(1, 9):
        theorem = {}
        for t in expand_R_terms(MultiIndex([a])):
            d = t.delta[0]
            weights = theorem.setdefault(t.gamma[0], {})
            weights[d] = weights.get(d, LaurentPoly()) + LaurentPoly(
                {t.kappa[0] + d: t.coefficient * (-2) ** d})
        assert set(theorem) == set(range(a))
        for g, symbol in theorem.items():
            hermite = hermite_closed_form(MultiIndex([a - g]), "H")
            want = {
                d: LaurentPoly({-m: math.comb(a, g) * c * (-1) ** m
                                for m, c in weight.terms.items()})
                for (d,), weight in hermite.coeffs.items()
            }
            assert symbol == want, (a, g)


def test_axis_symbols_match_hermite_evaluation():
    # The symbols the theorem evaluator multiplies by, against the paper's
    # polynomial summed with math.fsum: the worst error here is 5.4e-16.
    xi = np.linspace(-3.0, 3.0, 7)
    for a in range(1, 6):
        for w in SWEEP_OMEGAS:
            w = complex(w)
            symbols = dict(commutator._axis_symbols(a, w, 1j * xi))
            assert list(symbols) == list(range(a - 1, -1, -1))
            for g, got in symbols.items():
                hermite = hermite_closed_form(MultiIndex([a - g]), "H")
                want = np.array([math.comb(a, g) * evaluate(hermite, -1 / w, [1j * x])
                                 for x in xi])
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (a, g, w)


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
    # In 1-d the per-axis evaluator forms the same group spectra and adds
    # them in the same order: the bits agree.  In 2-d it transforms one axis
    # at a time, multiplies by the factors of P_gamma and of the heat
    # multiplier separately and sums in another order; the largest change
    # measured here is 4.7e-16 over the 42 2-d cases, and 2e-15 leaves a
    # factor of 4.  A wrong symbol or a missing part moves it by order one.
    phi = random_grid(dim, points)
    for alpha in enumerate_up_to(dim, 4):
        if alpha.order == 0:
            continue
        for w in (1.0, 1.0 + 0.99j, 2.0 - 1.0j):
            got = evaluate_R_theorem(alpha, w, phi)
            ref = evaluate_R_theorem_fused(alpha, w, phi)
            if dim == 1:
                assert np.array_equal(got.samples, ref.samples), (alpha, w)
            else:
                assert rel_l2_error(got, ref) <= 2e-15, (alpha, w)


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


def count_fft(monkeypatch, names=("fft", "ifft", "fftn", "ifftn")):
    """Patch np.fft so each call appends its number of one-axis transforms
    (a call without axes transforms every axis of its input)."""
    calls = []
    for name in names:
        original = getattr(np.fft, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            axes = kwargs.get("axes")
            if _name in ("fft", "ifft"):
                calls.append(1)
            else:
                calls.append(np.ndim(a) if axes is None else len(axes))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_fft_counts_per_evaluator(monkeypatch):
    # The theorem evaluator takes one one-axis transform per (axis, g_j)
    # and carried part, and an inverse over both axes: 8 for alpha = (2,2),
    # as many as the direct evaluator's two fftn and two ifftn.
    calls = count_fft(monkeypatch)
    phi = random_grid(2, 32)
    alpha = MultiIndex((2, 2))
    for evaluator, expected in ((commutator_direct, 8), (evaluate_R_theorem, 8)):
        calls.clear()
        evaluator(alpha, 1.0 + 0.5j, phi)
        assert sum(calls) == expected, evaluator.__name__


def test_convolution_oracle_is_dft_free(monkeypatch):
    # No np.fft function at all, and the ufunc buffer size the binomial
    # pass shrinks while it builds its matrix is restored afterwards.
    calls = count_fft(monkeypatch, [n for n in np.fft.__all__ if callable(getattr(np.fft, n))])
    bufsize = np.getbufsize()
    for alpha in (MultiIndex((4,)), MultiIndex((2, 2)), MultiIndex((1, 0, 1))):
        evaluate_R_convolution(alpha, 1.0 + 0.5j, random_grid(alpha.dim, 16))
    assert calls == []
    assert np.getbufsize() == bufsize


def count_passes(monkeypatch):
    """Patch both oracle passes, in semigroup and where commutator imports them."""
    calls = []
    for name in ("_toeplitz_pass", "_binomial_pass"):
        original = getattr(semigroup, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(commutator, name, counted)
        monkeypatch.setattr(semigroup, name, counted)
    return calls


def test_sweep_pass_and_transform_totals_2d(monkeypatch):
    # The 14 alpha with 1 <= |alpha| <= 4 of one 2-d (phi, w) of the
    # acceptance-03 sweep: 40 oracle passes, at most 4 per alpha, and 88
    # one-axis transforms in the theorem evaluator, where one fftn per
    # distinct gamma and one ifftn would make 138.
    passes = count_passes(monkeypatch)
    transforms = count_fft(monkeypatch)
    phi = random_grid(2, 16)
    alphas = [a for a in enumerate_up_to(2, 4) if a.order >= 1]
    assert len(alphas) == 14
    for alpha in alphas:
        evaluate_R_convolution(alpha, 1.0 + 0.5j, phi)
        evaluate_R_theorem(alpha, 1.0 + 0.5j, phi)
    assert (len(passes), sum(transforms)) == (40, 88)


def convolution_pair_sum(alpha, omega, phi):
    """sum_{b+g=a, b!=0} a!/(b!g!) (x^b G_w) * (x^g phi), one quadrature
    convolution per (b, g) pair: the reference for the per-axis oracle."""
    return reduce(operator.add, (
        complex(coeff) * convolve_weighted_kernel(beta, omega, weight_multiply(phi, gamma))
        for beta, gamma, coeff in convolution_pairs(alpha)
    ))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_convolution_matches_pair_sum(dim):
    # The per-axis scheme folds each axis's binomial sum into one matrix
    # built by Horner in d = x_i - x_k, where the pair sum applies one
    # Toeplitz matrix per (b, g) and adds up to 2^|alpha| - 1 = 15 terms.
    # The largest change measured here is 3.2e-16 over the 16 1-d cases,
    # 5.2e-16 over the 56 2-d cases and 3.5e-16 over the 76 3-d cases
    # (about 2 ulps), and 2e-15 leaves a factor of 4.  A wrong coefficient
    # or a missing pass moves the result by order one.
    phi = random_grid(dim, 64 if dim < 3 else 16)
    for alpha in enumerate_up_to(dim, 4 if dim < 3 else 3):
        if alpha.order == 0:
            continue
        for w in SWEEP_OMEGAS:
            got = evaluate_R_convolution(alpha, w, phi)
            ref = convolution_pair_sum(alpha, w, phi)
            assert rel_l2_error(got, ref) <= 2e-15, (alpha, w)


@pytest.mark.parametrize("alpha, passes, pair_passes", [
    ((2, 2), 4, 16), ((4, 0), 2, 8), ((0, 4), 2, 8), ((4,), 1, 4), ((1, 0, 1), 6, 9),
])
def test_convolution_toeplitz_pass_count(alpha, passes, pair_passes, monkeypatch):
    calls = count_passes(monkeypatch)
    alpha = MultiIndex(alpha)
    phi = random_grid(alpha.dim, 32)
    evaluate_R_convolution(alpha, 1.0 + 0.5j, phi)
    assert len(calls) == passes
    calls.clear()
    convolution_pair_sum(alpha, 1.0 + 0.5j, phi)
    assert len(calls) == pair_passes


def traced_peak(evaluator, alpha, omega, phi):
    """Bytes allocated above the starting level while evaluator runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        evaluator(alpha, omega, phi)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("omega", [1.0 + 0.99j, 0.25])
@pytest.mark.parametrize("alpha, points", [((4,), 512), ((2, 2), 256)])
def test_convolution_peak_memory_within_pair_sum(alpha, points, omega):
    # Each Toeplitz matrix is built for one pass and dropped: 4 MiB at
    # N = 512, as much as a 2-d field at N = 256.  Keeping them for a whole
    # call would raise the sweep's peak RSS; this pins that it does not.
    # In 2-d at most four N^2 complex fields are alive at once: S, the
    # weighted x^a Z in its pass, that pass's matrix and its product.  A
    # real w has a float64 matrix (half a field) and copies each product
    # transposed, so 4.5 fields.  Measured: 4.02 MiB at w = 1+0.99i and
    # 4.51 MiB at w = 0.25; the bound adds half a field (0.5 MiB) to each.
    # One more N^2 field alive, such as S + Z formed on its own, measures
    # 5.02 and 5.51 MiB and fails it.
    alpha = MultiIndex(alpha)
    phi = random_grid(alpha.dim, points)
    used = traced_peak(evaluate_R_convolution, alpha, omega, phi)
    assert used <= traced_peak(convolution_pair_sum, alpha, omega, phi)
    if alpha.dim == 2:
        fields = 4.0 if complex(omega).imag else 4.5
        assert used <= (fields + 0.5) * phi.samples.nbytes, used


@pytest.mark.parametrize("omega", [1.0 + 0.99j, 0.25])
@pytest.mark.parametrize("alpha", [(2, 2), (1, 3)])
def test_theorem_peak_memory(alpha, omega):
    # The theorem evaluator, not the oracle, sets the identity harness's
    # memory peak.  Measured at N = 256 for both alpha and both w: 6.14 MiB,
    # six N^2 complex fields (1 MiB each) and the N-long symbols; the bound
    # adds half a field.  Forming S + Z as a field of its own, not in S's
    # buffer once S is transformed, measures 7.14 MiB and fails it.
    alpha = MultiIndex(alpha)
    phi = random_grid(alpha.dim, 256)
    used = traced_peak(evaluate_R_theorem, alpha, omega, phi)
    assert used <= 6.5 * phi.samples.nbytes, used


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
        (xs / 1.5) * np.array([gaussian_kernel_point(1.5, [x]) for x in xs])
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
        xs * (w / (w + s)) * np.array([gaussian_kernel_point(w + s, [x]) for x in xs])
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
