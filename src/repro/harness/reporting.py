"""Table/figure formatting and result persistence for the benchmarks."""

from __future__ import annotations

import json
import os
from typing import Any, Optional, Sequence

__all__ = ["format_table", "save_results", "results_dir", "ascii_series",
           "format_batch_histogram", "format_adaptive_policy",
           "format_latency", "format_level_histogram", "engine_provenance",
           "host_provenance", "peak_rss_mb"]


def peak_rss_mb() -> float:
    """Process peak resident-set size in MiB (0.0 when unavailable).

    The OS high-water mark since process start — ``ru_maxrss`` is KiB on
    Linux, bytes on macOS.  Sticky by construction: it never decreases
    within a process, so paired in-process comparisons should rely on
    the engine's ``RunStats.peak_live_bytes`` estimate and treat this as
    the absolute footprint stamp for bench provenance.
    """
    try:
        import resource
        import sys
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            return peak / 2**20
        return peak / 1024.0
    except Exception:  # noqa: BLE001 - platforms without resource
        return 0.0


def host_provenance() -> dict:
    """Provenance stamp for bench rows: what host produced them.

    Wall-clock numbers are meaningless without the core count: the
    same throughput row reads differently on a 2-CPU bench host and an
    8-CPU one.  Returns::

        {"cpu_count": os.cpu_count(), "platform": ..., "python": ...}

    Benchmarks embed this in their JSON payloads (``save_bench_json``
    does it automatically) so recorded baselines are interpretable
    across bench hosts.
    """
    import platform

    return {"cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version()}


def engine_provenance(engine: Optional[str] = None) -> dict:
    """Provenance stamp for bench rows: which backend produced them.

    Resolves ``engine`` (default ``"event"``) through
    ``resolve_executor`` — so a typo fails loudly instead of silently
    mislabeling a baseline — and returns::

        {"engine": <name>, "executor": <class name>,
         "registered_executors": [...]}

    Benchmarks embed this in their JSON payloads (``save_bench_json``
    does it automatically) so recorded baselines say which clock
    produced them.
    """
    from repro.runtime.scheduler import available_executors, resolve_executor

    name = engine or "event"
    return {"engine": name,
            "executor": resolve_executor(name).__name__,
            "registered_executors": available_executors()}


def results_dir() -> str:
    """``results/`` at the repository root (created on demand)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.path.join(here, "..", "..", ".."))
    path = os.path.join(root, "results")
    os.makedirs(path, exist_ok=True)
    return path


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned text table (the benches print these)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.1f}" if abs(value) >= 10 else f"{value:.2f}"
        return str(value)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows
              else len(h)
              for i, h in enumerate(headers)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def save_results(name: str, payload: dict) -> str:
    """Persist a bench's results as JSON under results/."""
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
    return path


def format_batch_histogram(stats, max_types: int = 12,
                           bar_width: int = 30) -> str:
    """Render a run's per-signature batch-width histograms, by op type.

    ``stats`` is a :class:`~repro.runtime.stats.RunStats` whose
    ``batch_width_hist`` was filled by a batching engine.  One block per
    op type (most-fused first): width buckets with counts and a bar scaled
    to the op type's most common width.  This is the inspection surface
    for the adaptive flush policy — a healthy signature shows mass at
    wide buckets, a starved one collapses to the minimum size.
    """
    merged = stats.width_histogram_by_type()
    if not merged:
        return "batch-width histogram: (no fused batches)"
    lines = ["batch-width histogram (members per fused call, by op type)"]
    by_mass = sorted(merged.items(),
                     key=lambda kv: -sum(w * c for w, c in kv[1].items()))
    for op_type, hist in by_mass[:max_types]:
        total = sum(hist.values())
        peak = max(hist.values())
        mean = sum(w * c for w, c in hist.items()) / total
        lines.append(f"  {op_type}  (flushes={total}, mean width={mean:.1f})")
        for width in sorted(hist):
            count = hist[width]
            bar = "#" * max(1, round(bar_width * count / peak))
            lines.append(f"    w={width:<4d} {count:>6d}  {bar}")
    if len(by_mass) > max_types:
        lines.append(f"  ... {len(by_mass) - max_types} more op types")
    return "\n".join(lines)


def format_level_histogram(stats, max_levels: int = 16,
                           bar_width: int = 30) -> str:
    """Render a run's compiled level-plan counters and width histogram.

    ``stats`` is a :class:`~repro.runtime.stats.RunStats` whose
    ``level_plan_hits``/``level_plan_fallbacks`` and ``level_width_hist``
    were filled by the compiled fast path
    (:mod:`repro.runtime.level_plan`).  One row per schedule block — a
    frame class's segment at one depth or height — heaviest first:
    fused-dispatch width buckets with counts and a bar scaled to the
    block's most common width.  Healthy compiled sweeps show widths
    near the forest's node count per depth / height; fallbacks are
    listed with their reasons (an ineligible definition, or a profile
    that does not match it).
    """
    hits, fallbacks = stats.level_plan_hits, stats.level_plan_fallbacks
    if not (hits or fallbacks):
        return "level-plan: (no profiled admissions)"
    lines = [f"level-plan: hits={hits}  fallbacks={fallbacks}"]
    for reason, count in sorted(
            getattr(stats, "level_plan_fallback_reasons", {}).items()):
        lines.append(f"  fallback x{count}: {reason}")
    probes = (getattr(stats, "level_plan_cache_hits", 0)
              + getattr(stats, "level_plan_cache_misses", 0))
    if probes:
        lines.append(
            f"  instantiation memo: hit rate="
            f"{stats.level_plan_cache_hit_rate:.2f} "
            f"(hits={stats.level_plan_cache_hits}, "
            f"misses={stats.level_plan_cache_misses}, "
            f"evictions={stats.level_plan_evictions})  "
            f"compile={stats.level_plan_compile_ms:.1f} ms")
    if not stats.level_width_hist:
        lines.append("  (no compiled dispatches recorded)")
        return "\n".join(lines)
    by_mass = sorted(stats.level_width_hist.items(),
                     key=lambda kv: -sum(w * c for w, c in kv[1].items()))
    for level, hist in by_mass[:max_levels]:
        total = sum(hist.values())
        peak = max(hist.values())
        mean = sum(w * c for w, c in hist.items()) / total
        lines.append(f"  level {level}  (dispatches={total}, "
                     f"mean width={mean:.1f})")
        for width in sorted(hist):
            count = hist[width]
            bar = "#" * max(1, round(bar_width * count / peak))
            lines.append(f"    w={width:<4d} {count:>6d}  {bar}")
    if len(by_mass) > max_levels:
        lines.append(f"  ... {len(by_mass) - max_levels} more levels")
    return "\n".join(lines)


def format_adaptive_policy(policy, max_rows: int = 16) -> str:
    """Render an AdaptiveBatchPolicy's tuned per-signature state.

    Shows, for the most-flushed signatures, the width EMA the policy has
    converged to and the per-signature minimum size it derived —
    ``snapshot()`` keys are batch signatures whose first element is the
    op type.
    """
    from repro.runtime.batching import AdaptiveBatchPolicy

    if not isinstance(policy, AdaptiveBatchPolicy):
        return f"policy: fixed (min={policy.min_batch})"
    rows = sorted(policy.snapshot().items(),
                  key=lambda kv: -kv[1]["flushes"])
    lines = ["adaptive flush policy (per-signature tuned state)"]
    if not rows:
        lines.append("  (no flushes observed yet)")
    for signature, state in rows[:max_rows]:
        op_type = signature[0] if isinstance(signature, tuple) else signature
        lines.append(
            f"  {op_type:<22} flushes={state['flushes']:<6d} "
            f"width_ema={state['width_ema']:6.1f}  "
            f"min={state['min_batch']}")
    if len(rows) > max_rows:
        lines.append(f"  ... {len(rows) - max_rows} more signatures")
    return "\n".join(lines)


def format_latency(stats, title: str = "request latency") -> str:
    """Render a serving run's per-request latency distribution.

    ``stats`` is a :class:`~repro.runtime.stats.RunStats` filled by a
    :class:`~repro.runtime.server.RecursiveServer` session: one row per
    component (time-in-queue, time-in-engine, end-to-end) with
    p50/p95/p99/mean/max in milliseconds.  The queue row is the admission
    signal — a wave-synchronized server piles queue time onto every
    request admitted behind a wave tail, a continuous server keeps it near
    the arrival jitter.
    """
    summary = stats.latency_summary()
    if not summary:
        return f"{title}: (no requests completed)"
    lines = [f"{title} (ms): {summary['requests']} requests, "
             f"{summary['rejected']} rejected"]
    header = f"  {'component':<10}" + "".join(
        f"{c:>9}" for c in ("p50", "p95", "p99", "mean", "max"))
    lines.append(header)
    for component in ("queue", "engine", "total"):
        row = summary[component]
        lines.append(f"  {component:<10}" + "".join(
            f"{row[k] * 1e3:9.3f}"
            for k in ("p50", "p95", "p99", "mean", "max")))
    return "\n".join(lines)


def ascii_series(title: str, series: dict[str, dict], width: int = 60,
                 height: int = 12) -> str:
    """Very small ASCII plot: one char per series, x sorted numerically."""
    lines = [title]
    all_x = sorted({x for s in series.values() for x in s})
    all_y = [y for s in series.values() for y in s.values()]
    if not all_y:
        return title + " (no data)"
    y_max = max(all_y) or 1.0
    for name, points in series.items():
        scaled = {x: points.get(x) for x in all_x}
        bars = []
        for x in all_x:
            y = scaled.get(x)
            bars.append("." if y is None
                        else str(min(9, int(round(9 * y / y_max)))))
        lines.append(f"  {name:<12} {''.join(bars)}")
    lines.append(f"  (scale: 9 = {y_max:.3g})")
    return "\n".join(lines)
