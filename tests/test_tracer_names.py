"""The benchmark tracer wraps library names by string; each must still exist.

``benchmarks/tracer.py`` looks its names up with ``getattr`` and no default,
so a renamed or deleted name would otherwise show only as a crash of a
traced benchmark run.  The tests at the end run the tracer in-process on
one identity case per dimension and on a few CGL steps, and pin what it
counts: one-axis transforms, evaluator calls and stepper calls.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("gw_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()

# tracer.install() wraps parallel.ordered_map with parallel.worker_count
PARALLEL = [("gwcommute.parallel", "ordered_map"), ("gwcommute.parallel", "worker_count")]
NAMES = ([(mod, attr) for mod, attr, _ in tracer._FUNCTIONS]
         + [(mod, attr) for mod, attr, _ in tracer._COUNTED_HELPERS]
         + PARALLEL)


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls, attr",
                         [entry[:3] for entry in tracer._METHODS],
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in tracer._METHODS])
def test_traced_method_exists(module, cls, attr):
    # the tracer patches the class's own attribute, not an inherited one
    assert attr in vars(getattr(importlib.import_module(module), cls))


def traced_metrics(run):
    """Run under a freshly installed Tracer; its per-layer metrics."""
    from gwcommute import commutator

    fftn, direct = np.fft.fftn, commutator.commutator_direct
    probe = tracer.Tracer()
    probe.install()
    try:
        run()
    finally:
        probe.uninstall()
    assert np.fft.fftn is fftn
    assert commutator.commutator_direct is direct
    return probe.metrics(wall_s=1.0, span_cost_s=0.0)


@pytest.mark.parametrize("dim, points, alpha, transforms", [
    (1, 64, (2,), 7),      # direct 2 + 2, theorem 2 forward + 1 inverse
    (2, 32, (2, 1), 15),   # direct 2 x (2 + 2), theorem 5 forward + 2 inverse
])
def test_traced_identity_case_counts(dim, points, alpha, transforms):
    from gwcommute.catalog import realize_checked
    from gwcommute.commutator import identity_reports
    from gwcommute.multiindex import MultiIndex

    phi = realize_checked("gauss-wide", dim, points, 16.0)
    metrics = traced_metrics(lambda: identity_reports(MultiIndex(alpha), 1.0 - 0.5j, phi))
    assert metrics["fft.calls"] == transforms
    assert metrics["commutator.commutator_direct.calls"] == 1
    assert metrics["commutator.evaluate_R_theorem.calls"] == 1
    assert metrics["commutator.evaluate_R_convolution.calls"] == 1
    # one 1-d term list per axis with a_j > 0: 3 terms for a_j = 2, 1 for 1
    assert metrics["commutator.evaluate_R_theorem.terms"] == {(2,): 3, (2, 1): 4}[alpha]
    # both flows of the direct commutator go through semigroup.heat_commutator
    assert metrics["semigroup.apply_fourier.calls"] == 0


def test_traced_cgl_step_counts():
    from gwcommute.cgl import CGLConfig, simulate
    from gwcommute.grid import GridFunction

    steps = 5
    x = GridFunction(1, 512, 32.0, np.zeros(512)).axis()
    u0 = GridFunction(1, 512, 32.0, 0.01 * np.exp(-x**2 / 4.0) / np.sqrt(4 * np.pi))
    # the transform of u0, the predictor and the forcing of each step, and
    # the one kept snapshot.  The tracer wraps fftn/ifftn only, so it sees
    # none of the rfftn/irfftn that a real problem (real nu) steps with.
    for nu, transforms in ((1.0 + 0.3j, 1 + 2 * steps + 1), (1.0, 0)):
        cfg = CGLConfig(nu=nu, lam=-1.0, p_exponent=4.0, u0=u0, dt=0.05,
                        horizon=steps * 0.05)
        runs = []
        metrics = traced_metrics(lambda: runs.append(simulate(cfg)))
        # the horizon is under one snapshot interval
        assert len(runs[0].states) - 1 == 1  # u0 is kept as given
        assert metrics["cgl.advance.calls"] == steps
        assert metrics["fft.calls"] == transforms, nu
