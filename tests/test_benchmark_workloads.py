"""The benchmark's workloads still run against the library, in-process.

``benchmarks/workloads.py`` calls the library through its public API:
``identity_reports(..., testfn=, tol=)``, ``CGLConfig(...)``,
``weighted_records``, ``ratio_bounded``, ``cli.main(["suite", ...])`` and
more.  A change that broke one of those calls would otherwise show only
as a failed benchmark run.  Each test here loads the module read-only,
runs one workload's setup and body and expects every check to pass:
identity-sweep on every 36th of its cases, cgl-growth whole, and
estimate-suite for its minimum number of invocations, byte for byte alike.
"""
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("gw_benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def run_body(workload, inputs):
    """(items, checks) of one body run; no check may fail."""
    checks = workloads.Checks()
    items = workload.body(inputs, checks)
    assert checks.failures == []
    assert checks.attempted >= 1 and items >= 1
    return items, checks


def test_identity_sweep_runs_on_a_slice_of_its_cases(tmp_path):
    workload = workloads.WORKLOADS["identity-sweep"]
    cases = workload.setup(0, tmp_path)
    assert len(cases) == 216
    items, checks = run_body(workload, cases[::36])
    assert items == 6
    assert checks.attempted == 6 * workloads.IDENTITY_PAIRS


def test_cgl_growth_runs_whole(tmp_path):
    workload = workloads.WORKLOADS["cgl-growth"]
    cfg = workload.setup(0, tmp_path)
    items, checks = run_body(workload, cfg)
    assert items == round(cfg.horizon / cfg.dt)
    assert checks.attempted == workloads.CGL_CHECKS


def test_estimate_suite_runs_alike_each_invocation(tmp_path):
    workload = workloads.WORKLOADS["estimate-suite"]
    digests = []
    for rep in range(workload.min_reps):
        work_dir = tmp_path / str(rep)
        work_dir.mkdir()
        inputs = workload.setup(0, work_dir)
        items, checks = run_body(workload, inputs)
        assert items == workloads.ESTIMATE_ROWS
        assert checks.digests
        digests.append(checks.digests)
    assert all(d == digests[0] for d in digests)
