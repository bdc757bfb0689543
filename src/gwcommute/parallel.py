"""Deterministic fan-out over independent work items.

The identity and estimate harness runners in cli map over their cases
here; the library functions they call run sequentially, and a runner
with a single case (verify-identity, verify-estimate) runs it in the
calling thread.  Results always come back in submission order, so
parallel runs are byte-identical to sequential ones.  GW_THREADS caps
the worker count.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .config import ConfigError, parse_int


def worker_count(n_items: int) -> int:
    cap = os.environ.get("GW_THREADS", "").strip()
    limit = parse_int(cap, "GW_THREADS") if cap else (os.cpu_count() or 1)
    if limit < 1:
        raise ConfigError(f"GW_THREADS must be >= 1, got {cap!r}")
    return max(1, min(limit, n_items))


def ordered_map(fn, items):
    """Map fn over items, preserving order; threads only when it can help."""
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
