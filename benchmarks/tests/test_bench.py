"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q benchmarks/tests

The traced-repeat test runs every workload traced twice and takes about
two minutes on two cores.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_carry_units_and_workloads_exist():
    for metrics in (END_TO_END, PER_LAYER):
        names = [name for name, _ in metrics]
        assert len(names) == len(set(names))
        for name, unit in metrics:
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_exception_counts_as_failed_check():
    checks = Checks()
    with checks.group("ok", expected=1):
        checks.record("fine", True)
    with checks.group("broken", expected=3):
        checks.record("first", True)
        raise RuntimeError("injected")
    assert (checks.attempted, checks.failed) == (4, 2)
    assert all("injected" in f for f in checks.failures)


def test_fail_frac_counts_injected_failing_rows(tmp_path, monkeypatch):
    from gwcommute import reporting

    workload = WORKLOADS["estimate-suite"]
    invocation = workload.setup(7, tmp_path)
    clean = Checks()
    assert workload.body(invocation, clean) == 721
    assert clean.failed == 0 and clean.attempted == 678

    # every inequality row now fails its pass test: the suite exits 1
    monkeypatch.setattr(reporting, "PASS_SLACK", -2.0)
    injected = Checks()
    (tmp_path / "again").mkdir()
    invocation = workload.setup(7, tmp_path / "again")
    workload.body(invocation, injected)
    assert injected.attempted == clean.attempted
    assert injected.failed > 600
    assert any("exit code 1" in f for f in injected.failures)


def test_one_run_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "estimate-suite", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    for name, unit in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert "fail_frac = 0 1" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "cgl-growth", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [
        last_json(run_bench("--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", "1"))["metrics"]
        for seed in (0, 5)
    ]
    assert [name for name, _ in PER_LAYER] == list(runs[0])
    for name in ("fft.calls", "commutator.evaluate_R_theorem.terms", "cgl.advance.calls"):
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    fft_calls = runs[0]["fft.calls"]["value"]
    if workload == "identity-sweep":
        assert fft_calls == 9984
    elif workload == "cgl-growth":
        assert fft_calls == 50_000
        assert runs[0]["cgl.advance.calls"]["value"] == 10_000
        for name in ("semigroup.convolve_weighted_kernel.calls",
                     "semigroup.apply_fourier.calls"):
            assert runs[0][name]["value"] == 0, name


def test_tracer_counts_survive_thread_switches():
    import threading

    import numpy as np
    from tracer import Tracer

    tracer = Tracer()
    traced = tracer.wrap("fft", lambda a: a)
    arr = np.zeros((2, 2))
    threads, calls = 8, 2000

    def hammer():
        for _ in range(calls):
            traced(arr)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in pool)
    assert tracer.counters["fft.calls"] == 2 * threads * calls
    assert tracer.counters["fft.points"] == 4 * threads * calls
    assert len(tracer.spans) == threads * calls
