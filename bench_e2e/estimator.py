"""The noise protocol: per-step floor, percentile rule, host probe.

This host's speed drifts ~1.6x on a 5-20 s timescale (see README,
"Host drift"), so a per-process median of whole sweeps is useless.  The
estimator here times every step individually in each of R rounds, with
the configs interleaved inside a round so each config's samples span
the whole run, and sums each step's *fastest* round:

    floor_s = sum over steps of min over rounds of wall(step, round)

A slow phase that covers some rounds costs nothing as long as each step
saw one fast round; a real regression slows every round and moves the
floor.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Sequence

import numpy as np

__all__ = ["floor_s", "summarize", "supported_percentile", "tail",
           "iqr_share", "host_probe_ms"]

#: a failed step is recorded as +inf so it never becomes a floor
FAILED = math.inf


def floor_s(samples: Sequence[Sequence[float]]) -> float:
    """``samples[round][step]`` seconds -> sum of per-step minima."""
    if not samples:
        raise ValueError("no rounds were measured")
    steps = len(samples[0])
    if any(len(row) != steps for row in samples):
        raise ValueError("every round must time the same steps")
    return sum(min(row[s] for row in samples) for s in range(steps))


def summarize(samples: Sequence[Sequence[float]]) -> dict:
    """The floor plus the round-sum median and IQR kept as context."""
    sums = sorted(sum(row) for row in samples)
    out = {"rounds": len(samples), "floor_s": floor_s(samples),
           "median_s": statistics.median(sums)}
    if len(sums) >= 2:
        q1, _, q3 = statistics.quantiles(sums, n=4)
        out["iqr_s"] = q3 - q1
    return out


def supported_percentile(n: int, levels=(99.9, 99.0, 95.0, 90.0, 75.0)):
    """Highest level with at least ten samples beyond it (else None).

    choosing-metrics section 1: a tail percentile is only reported when
    ten observations lie above it — p99 needs 1000 samples, p95 200.
    """
    for q in levels:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            return q
    return None


def tail(values: Sequence[float], q: float) -> float:
    """``q``-th percentile, refusing levels the sample cannot support."""
    best = supported_percentile(len(values))
    if best is None or q > best:
        limit = f"at most p{best:g}" if best else "no tail percentile"
        raise ValueError(f"p{q:g} needs ten samples beyond it; "
                         f"{len(values)} samples support {limit}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the driver holds to a bound."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def host_probe_ms() -> float:
    """A fixed pure-Python workload, timed: the host-speed thermometer."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i & 0xFF
    return (time.perf_counter() - t0) * 1e3
