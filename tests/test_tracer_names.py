"""The benchmark tracer wraps library names by string; each must still exist.

``benchmarks/tracer.py`` looks its names up with ``getattr`` and no default,
so a renamed or deleted name would otherwise show only as a crash of a
traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

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
