"""Acceptance gate: ten criteria, one test each, pinned tolerances.

Each test prints one scoreboard line "ACCEPTANCE NN <name>: PASS|FAIL"
(visible with pytest -s, or in captured output on failure) before asserting,
so a red run still shows which criteria survived.
"""
import math
import time
import warnings

import numpy as np

from gwcommute.catalog import (
    GaussianComponent,
    TestFunctionSpec,
    get_entry,
    lipschitz_entries,
)
from gwcommute.cgl import (
    CGLConfig,
    decay_records,
    fit_loglog_slope,
    ratio_bounded,
    simulate,
    weighted_records,
)
from gwcommute.commutator import identity_reports, lemma_B2_identity
from gwcommute.estimates import (
    ExponentTriple,
    constant_A,
    kernel_moment_bound_report,
    verify_lipschitz_commutator,
    verify_theorem_1_2,
)
from gwcommute.grid import rel_l2_error
from gwcommute.hermite import hermite_closed_form
from gwcommute.laurent import LaurentPoly
from gwcommute.multiindex import MultiIndex, enumerate_up_to, zero
from gwcommute.semigroup import apply_fourier, convolve_weighted_kernel, weighted_kernel_grid

from oracles import hermite_by_recurrence, reconstruct_monomial


def scoreboard(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def small_gaussian(eps: float, sigma: float, points: int = 2048,
                   half_width: float = 64.0):
    comp = GaussianComponent(sigma=sigma, amplitude=eps)
    spec = TestFunctionSpec(id="u0", kind="gaussian", components=(comp,))
    return spec.realize(1, points, half_width)


# 1 -------------------------------------------------------------------------

def test_01_monomial_reconstruction_exact():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in (1, 2, 3):
        for alpha in enumerate_up_to(n, 8):
            got = reconstruct_monomial(alpha)
            ok = ok and got.coeffs == {alpha: LaurentPoly({0: 1})}
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    scoreboard(1, "monomial reconstruction exact", ok,
               f"{checked} indices in {elapsed:.2f}s")


# 2 -------------------------------------------------------------------------

def test_02_recurrence_matches_closed_form():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in (1, 2, 3):
        for alpha in enumerate_up_to(n, 8):
            ok = ok and hermite_by_recurrence(alpha) == hermite_closed_form(alpha, "h")
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    scoreboard(2, "recurrence vs closed form", ok,
               f"{checked} indices in {elapsed:.2f}s")


# 3 -------------------------------------------------------------------------

IDENTITY_OMEGAS = (1.0 + 0.0j, 0.25 + 0.0j, 1.0 + 0.99j, 2.0 - 1.0j)
FAMILIES = ("gauss-wide", "mixture", "bandlimited")


def test_03_three_way_identity_sweep():
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    ok = True
    for dim, points in ((1, 512), (2, 256)):
        fields = {name: get_entry(name).realize(dim, points, 16.0)
                  for name in FAMILIES}
        alphas = [a for a in enumerate_up_to(dim, 4) if a.order >= 1]
        for name in FAMILIES:
            for alpha in alphas:
                for omega in IDENTITY_OMEGAS:
                    reports = identity_reports(alpha, omega, fields[name],
                                               testfn=name)
                    cases += 1
                    worst = max(worst, max(r.lhs for r in reports))
                    ok = ok and all(r.passed for r in reports)
    elapsed = time.perf_counter() - start
    ok = ok and cases >= 100 and elapsed < 300.0
    scoreboard(3, "three-way identity sweep", ok,
               f"{cases} cases, worst rel {worst:.2e}, {elapsed:.1f}s")


# 4 -------------------------------------------------------------------------

def test_04_gaussian_semigroup_oracle():
    sigma = 0.5
    start_kernel = weighted_kernel_grid(zero(1), sigma, 512, 16.0)
    worst = 0.0
    for omega in (1.0 + 0.0j, 1.0 + 0.9j):
        target = weighted_kernel_grid(zero(1), sigma + omega, 512, 16.0)
        flows = (apply_fourier(start_kernel, omega),
                 convolve_weighted_kernel(zero(1), omega, start_kernel))
        for flowed in flows:
            worst = max(worst, rel_l2_error(flowed, target))
    scoreboard(4, "Gaussian semigroup oracle", worst <= 1e-8,
               f"worst rel {worst:.2e}")


# 5 -------------------------------------------------------------------------

M_VALUES = (1, 2)
PQ_PAIRS = ((1.0, 1.0), (2.0, 1.0), (math.inf, 1.0), (2.0, 2.0),
            (math.inf, math.inf))
ESTIMATE_OMEGAS = (1.0 + 0.0j, 1.0 + 0.9j, 0.25 + 0.0j, 4.0 + 0.0j)


def _random_mixture(rng: np.random.Generator, index: int) -> TestFunctionSpec:
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        amp = complex(rng.uniform(0.2, 1.0) * (-1) ** int(rng.integers(2)),
                      rng.uniform(-0.5, 0.5))
        parts.append(GaussianComponent(
            sigma=float(rng.uniform(0.3, 0.8)),
            center=(float(rng.uniform(-2.0, 2.0)),),
            amplitude=amp,
        ))
    return TestFunctionSpec(id=f"mix-{index}", kind="gaussian-mixture",
                            components=tuple(parts))


def test_05_weighted_estimate_sweep():
    start = time.perf_counter()
    reports = []
    for name in ("gauss-wide", "mixture"):
        phi = get_entry(name).realize(1, 512, 16.0)
        for m in M_VALUES:
            for p, q in PQ_PAIRS:
                triple = ExponentTriple(p, q)
                for omega in ESTIMATE_OMEGAS:
                    reports.append(verify_theorem_1_2(m, [triple], omega, phi,
                                                      testfn=name)[0])
    rng = np.random.default_rng(20260814)
    combos = [(m, pq, omega) for m in M_VALUES for pq in PQ_PAIRS
              for omega in ESTIMATE_OMEGAS]
    for i in range(100):
        phi = _random_mixture(rng, i).realize(1, 512, 16.0)
        m, (p, q), omega = combos[i % len(combos)]
        reports.append(verify_theorem_1_2(m, [ExponentTriple(p, q)], omega, phi,
                                          testfn=f"mix-{i}")[0])
    chain = [
        kernel_moment_bound_report(MultiIndex((b,)), theta, r, 2048, 16.0)
        for b in range(1, 5)
        for r in (1.0, 2.0, math.inf)
        for theta in (0.0, 0.6, 1.2)
    ]
    elapsed = time.perf_counter() - start
    failures = [r for r in reports + chain if not r.passed]
    ok = not failures and elapsed < 300.0
    scoreboard(5, "weighted estimate sweep", ok,
               f"{len(reports)} estimates + {len(chain)} chain rows, "
               f"{len(failures)} failures, {elapsed:.1f}s")


# 6 -------------------------------------------------------------------------

def test_06_constants():
    reference = math.sqrt(2.0) * math.sqrt(4.0 / math.e)
    value = constant_A(1, 1, 1.0, 0.0)
    ok = abs(value - reference) <= 1e-12 * reference

    thetas = np.linspace(0.0, 1.57, 80)
    for n, m, r in ((1, 1, 1.0), (2, 3, 2.0), (3, 2, math.inf)):
        values = [constant_A(n, m, r, t) for t in thetas]
        ok = ok and all(constant_A(n, m, r, -t) == constant_A(n, m, r, t)
                        for t in thetas)
        ok = ok and all(b > a for a, b in zip(values, values[1:]))
    scoreboard(6, "closed-form constants", ok,
               f"A(1,1,1,0) = {value!r}")


# 7 -------------------------------------------------------------------------

def test_07_index_shift_identity():
    reports = []
    for name in ("gauss-wide", "mixture"):
        phi = get_entry(name).realize(1, 512, 16.0)
        for order in (1, 2, 3):
            for omega in (1.0 + 0.0j, 0.7 + 0.6j, 0.25 + 0.0j):
                reports.append(lemma_B2_identity(MultiIndex((order,)), 1,
                                                 omega, phi, testfn=name))
    phi2 = get_entry("bandlimited").realize(2, 128, 16.0)
    for alpha in (MultiIndex((1, 1)), MultiIndex((2, 0))):
        for j in (1, 2):
            reports.append(lemma_B2_identity(alpha, j, 1.0 + 0.5j, phi2,
                                             testfn="bandlimited"))
    worst = max(r.lhs for r in reports)
    ok = len(reports) >= 20 and all(r.passed for r in reports) and worst <= 1e-6
    scoreboard(7, "index-shift identity", ok,
               f"{len(reports)} cases, worst rel {worst:.2e}")


# 8 -------------------------------------------------------------------------

def test_08_lipschitz_commutator_catalog():
    entries = lipschitz_entries(1, 512, 16.0)
    phi = get_entry("gauss-wide").realize(1, 512, 16.0)
    reports = []
    mollified = 0
    for label, eta, bound in entries:
        if label.startswith("eta-1-"):
            mollified += 1
            assert bound == 2.0
        for p, q in ((1.0, 1.0), (2.0, 1.0), (math.inf, math.inf)):
            for omega in (1.0 + 0.0j, 1.0 + 0.9j, 0.25 + 0.0j):
                reports.append(
                    verify_lipschitz_commutator(eta, bound, ExponentTriple(p, q),
                                                omega, phi, testfn=label)
                )
    failures = [r for r in reports if not r.passed]
    ok = mollified == 2 and not failures
    scoreboard(8, "Lipschitz commutator catalog", ok,
               f"{len(reports)} rows over {len(entries)} multipliers, "
               f"{len(failures)} failures")


# 9 -------------------------------------------------------------------------

def test_09_cgl_linear_oracle():
    cfg = CGLConfig(nu=1.0, lam=0.0, p_exponent=4.0,
                    u0=small_gaussian(0.01, 1.0), dt=0.01, horizon=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run = simulate(cfg)
    rel = rel_l2_error(run.states[run.times.index(10.0)], small_gaussian(0.01, 11.0))
    mass = np.array([rec.value for rec in decay_records(run) if rec.r == 1.0])
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    ok = rel <= 1e-7 and drift <= 1e-8
    scoreboard(9, "linear heat-flow oracle", ok,
               f"rel L2 {rel:.2e}, mass record drift {drift:.2e}")


# 10 ------------------------------------------------------------------------

def test_10_cgl_weighted_growth_slopes():
    start = time.perf_counter()
    cfg = CGLConfig(nu=1.0, lam=-1.0, p_exponent=4.0,
                    u0=small_gaussian(0.01, 1.0), dt=0.01, horizon=100.0)
    with warnings.catch_warnings():
        # the diffusive tail reaches the box collar long before t = 100;
        # the boundary monitor warning is expected at this horizon
        warnings.simplefilter("ignore", RuntimeWarning)
        run = simulate(cfg)
    ok = True
    slopes = []
    for m in (1, 2):
        records = weighted_records(run, m, 1.0)
        slope = fit_loglog_slope(records, 25.0, 100.0)
        slopes.append(slope)
        ok = ok and abs(slope - m / 2.0) <= 0.1
        ok = ok and ratio_bounded(records, factor=3.0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    scoreboard(10, "weighted growth slopes", ok,
               f"slopes {slopes[0]:.3f}/{slopes[1]:.3f} vs 0.5/1.0, "
               f"{elapsed:.1f}s")
