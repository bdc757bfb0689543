"""One benchmark repetition in a fresh process: set up, run the body, report.

    python3 child.py WORKLOAD SEED MODE TRACE SPAWN_T WORK_DIR

MODE is "setup" (stop once the inputs are ready) or "body", which also runs
and times the workload body and then times a host-noise probe.  SPAWN_T is
the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, imports and input construction.  The last line
on stdout is one JSON object; run.py starts this script and reads it.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_work"


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def fft_probe_ms() -> float:
    """Median time of a fixed numpy FFT loop that is not the program.

    Timed in the child right after the body, because the host's speed
    differs between cores: a probe taken in another process does not track
    it.  After the body and its peak RSS, so that it changes neither.
    4096 points keep every buffer below glibc's mmap threshold; at 16384
    the probe timed page faults, and ran twice as fast in a process that
    had already freed a large array.
    """
    import numpy as np

    x = np.exp(1j * np.linspace(0.0, 100.0, 1 << 12))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(80):
            np.fft.ifft(np.fft.fft(x))
        times.append(time.perf_counter() - start)
    return 1e3 * sorted(times)[len(times) // 2]


def main(argv: list[str]) -> int:
    name, seed, mode, trace, spawn_t, work_dir = argv
    sys.path.insert(0, str(SRC))
    import gwcommute

    if Path(gwcommute.__file__).resolve().parent != (SRC / "gwcommute").resolve():
        print(f"gwcommute imported from {gwcommute.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[name]
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.setup(int(seed), Path(work_dir))
    result = {"setup_s": time.monotonic() - float(spawn_t)}
    if mode == "body":
        checks = Checks()
        cpu0, start = _cpu_s(), time.perf_counter()
        items = workload.body(inputs, checks)
        wall = time.perf_counter() - start
        result.update(
            wall_s=wall,
            cpu_s=_cpu_s() - cpu0,
            items=items,
            attempted=checks.attempted,
            failed=checks.failed,
            failures=checks.failures[:5],
            digests=checks.digests,
        )
        if tracer is not None:
            from tracer import span_cost

            tracer.uninstall()
            result["layers"] = tracer.metrics(wall, span_cost())
            SPANS_DIR.mkdir(exist_ok=True)
            tracer.write_spans(SPANS_DIR / f"spans-{name}.jsonl")
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "body":
        result["probe_ms"] = fft_probe_ms()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
