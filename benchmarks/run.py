"""Benchmark runner for gw-commute.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is identity-sweep, cgl-growth, estimate-suite, or "all" for the three
in turn.  Every repetition runs in a fresh child process (child.py) with
BLAS pinned to one thread and GW_THREADS=1.  A run repeats the workload
body, one child per repetition, while the next repetition still fits in S
seconds (at least the workload's minimum); each body child first times a
fixed numpy FFT loop as a host-noise probe.  Untraced runs also start
SETUP_REPS children that only set up, for more setup_s samples.  wall_s,
items_per_s and cpu_s average over the whole run (total body time over
repetitions); the other metrics are medians over the children.

With --trace 0 the metrics are the end-to-end ones (END_TO_END); with
--trace 1 every repetition is traced and the metrics are the per-layer
ones (tracer.PER_LAYER).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  attempted and failed count
correctness checks, so fail_frac = failed / attempted.

Exit codes: 0 with a result (correct or not); 2 without one, when the
program cannot be set up (for example, no gwcommute sources next to the
benchmark).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from math import fsum
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".bench_work"

# One thread everywhere.  BLAS pinned: otherwise each pool worker runs a
# multi-threaded tensordot and the box is oversubscribed.  GW_THREADS=1:
# with the default pool of cpu_count() workers, identity-sweep's wall time
# follows how much of the second core the host lends (see NOTES.md).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "GW_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads; children inherit it

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [(m["name"], m["unit"]) for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
SETUP_REPS = 9
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The program could not be set up or a child died: no result."""


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _commit(),
        "threads": THREAD_ENV,
    }


def spawn(name: str, seed: int, mode: str, trace: int, work_dir: Path,
          deadline: float) -> dict:
    work_dir.mkdir(parents=True)
    spawn_t = time.monotonic()
    argv = [sys.executable, str(CHILD), name, str(seed), mode, str(trace),
            repr(spawn_t), str(work_dir)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawn_t))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} {mode} child timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise BenchError(f"{name} {mode} child exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the result object and extras."""
    workload = WORKLOADS[name]
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    work = WORK_ROOT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    setups, reps = [], []
    setups_left = 0 if trace else SETUP_REPS

    def setup_only():
        nonlocal setups_left
        setups.append(spawn(name, seed, "setup", trace, work / f"setup{setups_left}",
                            deadline)["setup_s"])
        setups_left -= 1

    try:
        # setup-only children go one before each repetition and the rest
        # after the last, so their median spans the run, not its start
        last = 0.0
        while (len(reps) < workload.min_reps
               or time.monotonic() - t0 + last <= seconds):
            start = time.monotonic()
            if setups_left:
                setup_only()
            reps.append(spawn(name, seed, "body", trace, work / f"body{len(reps)}",
                              deadline))
            last = time.monotonic() - start
        while setups_left:
            setup_only()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    failed = sum(r["failed"] for r in reps)
    if reps[0]["digests"]:
        # invocations within a run must write byte-identical artifacts
        for r in reps[1:]:
            attempted += 1
            if r["digests"] != reps[0]["digests"]:
                failed += 1
                failures.append("artifacts differ between invocations")

    probe_ms = median([r["probe_ms"] for r in reps])
    if trace:
        metrics = {m: median([r["layers"][m] for r in reps])
                   for m, _ in PER_LAYER if m != "machine.fft_probe_ms"}
        metrics["machine.fft_probe_ms"] = probe_ms
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": median(setups + [r["setup_s"] for r in reps]),
            # time averages, not medians: the host's speed switches within
            # seconds, and the median of a run's repetitions jumps between
            # its fast and slow spells where the mean moves smoothly
            "wall_s": fsum(r["wall_s"] for r in reps) / len(reps),
            "items_per_s": (sum(r["items"] for r in reps)
                            / fsum(r["wall_s"] for r in reps)),
            "cpu_s": fsum(r["cpu_s"] for r in reps) / len(reps),
            "peak_rss_mib": median([r["peak_rss_mib"] for r in reps]),
        }
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "extra": {"reps": len(reps), "setups": len(setups), "items": reps[0]["items"],
                  "item": workload.item,
                  "fft_probe_ms": probe_ms, "failures": failures[:5]},
    }


def _print_summary(name: str, result: dict) -> None:
    extra = result["extra"]
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name}: {extra['items']} {extra['item']}s, "
          f"{extra['reps']} repetitions, {extra['setups']} setup-only children")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  fail_frac = {frac:.6g} 1 ({result['failed']} of "
          f"{result['attempted']} checks failed)")
    if "machine.fft_probe_ms" not in result["metrics"]:
        print(f"  machine.fft_probe_ms = {extra['fft_probe_ms']:.6g} ms")
    for failure in extra["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "gwcommute" / "__init__.py").is_file():
        print(f"error: no gwcommute sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment()))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _print_summary(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": e for n, r in results.items()
                   for m, e in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
