"""``--compare A B``: per-(metric, workload) ratios against the bounds.

``A`` and ``B`` are row files (one JSON row per line, as ``--out`` and
``results/history.jsonl`` are written).  Several rows of one workload in
a file are treated as repeated runs: the medians are compared, and where
A's own run-to-run spread exceeds the metric's bound the pair is
reported *unresolved*, not unchanged (choosing-metrics section 6.5).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from . import spec
from .estimator import iqr_share

__all__ = ["worse_by", "compare_files"]


def worse_by(metric: spec.Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative: better)."""
    delta = base - new if metric.better == "higher" else new - base
    return delta / base


def load(path: str) -> dict:
    """``(workload, metric) -> [values]`` over every row of the file."""
    values = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                for name, metric in row["metrics"].items():
                    values[row["workload"], name].append(metric["value"])
    return values


def verdict(metric: spec.Metric, a: list, b: list) -> str:
    if not metric.bound:
        return ""                       # per-layer: a ratio, no judgement
    if len(a) >= 2 and iqr_share(a) > metric.bound:
        return (f"unresolved (A/A spread {iqr_share(a):.1%} > bound "
                f"{metric.bound:.0%})")
    worse = worse_by(metric, statistics.median(a), statistics.median(b))
    text = "WORSE" if worse > metric.bound else "ok"
    if len(a) < 2:
        text += " (one A row: A/A spread unknown)"
    return f"{text} ({worse:+.1%} vs bound {metric.bound:.0%})"


def compare_files(path_a: str, path_b: str) -> int:
    a, b = load(path_a), load(path_b)
    metrics = {m.name: m for m in spec.END_TO_END + spec.PER_LAYER}
    regressed = 0
    print(f"{'workload':<15} {'metric':<38} {'A median':>12} "
          f"{'B median':>12} {'B/A':>7}  verdict")
    for (workload, name) in sorted(a.keys() & b.keys()):
        med_a = statistics.median(a[workload, name])
        med_b = statistics.median(b[workload, name])
        ratio = med_b / med_a if med_a else float("nan")
        text = verdict(metrics[name], a[workload, name], b[workload, name]) \
            if name in metrics else ""
        regressed += text.startswith("WORSE")
        print(f"{workload:<15} {name:<38} {med_a:>12.6g} {med_b:>12.6g} "
              f"{ratio:>7.3f}  {text}")
    return 1 if regressed else 0
