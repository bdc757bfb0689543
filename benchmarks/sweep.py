"""Repeat run.py over ten seeds and summarize each metric by median and quartiles.

    python3 benchmarks/sweep.py [--first-seed N] [--out FILE]

Runs every workload of BENCHMARK.json untraced, RUNS rounds of
run_seconds each.  Workloads alternate within each round (round k uses
seed first_seed + k), so a slow spell of the host lands on every workload
instead of one.  For each workload and metric it prints the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median.  --out writes the same as JSON, with every run's values
and the host-noise probe (machine.fft_probe_ms) that each run printed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
PROBE_LINE = "  machine.fft_probe_ms = "


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    runs = {w["name"]: [] for w in BENCHMARK["workloads"]}
    for k in range(RUNS):
        seed = args.first_seed + k
        for w in runs:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["probe_ms"] = next(float(ln[len(PROBE_LINE):].split()[0])
                                      for ln in lines if ln.startswith(PROBE_LINE))
            runs[w].append(result)
            values = " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items())
            print(f"[{k + 1}/{RUNS}] {w} seed {seed} correct={result['correct']} {values} "
                  f"probe={result['probe_ms']:.4g}", flush=True)
    summary = {}
    for w, results in runs.items():
        metrics = results[0]["metrics"]
        summary[w] = {
            "runs": len(results),
            "seeds": [r["seed"] for r in results],
            "all_correct": all(r["correct"] for r in results),
            "metrics": {
                m: {"unit": metrics[m]["unit"],
                    **summarize([r["metrics"][m]["value"] for r in results])}
                for m in metrics
            },
            "fft_probe_ms": summarize([r["probe_ms"] for r in results]),
        }
        print(f"{w}: {len(results)} runs, all correct: {summary[w]['all_correct']}")
        for m, s in summary[w]["metrics"].items():
            print(f"  {m:45s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
