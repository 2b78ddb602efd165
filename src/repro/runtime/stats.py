"""Execution statistics collected by the engines.

Besides per-op and per-batch accounting, :class:`RunStats` tracks
*per-request* latency for the serving path
(:mod:`repro.runtime.server`): every completed request contributes a
``(time-in-queue, time-in-engine)`` sample, and
:meth:`RunStats.latency_summary` reduces the samples to p50/p95/p99
percentiles for the queue, engine and total components.  Times are
engine-clock seconds — virtual seconds under the event engine, wall-clock
seconds under workerpool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunStats", "percentile"]

#: the percentile levels latency_summary reports ("p99.9" needs the
#: long-tail soak sample sizes to be meaningful; short runs clamp to max)
LATENCY_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def _percentile_sorted(data: list, q: float) -> float:
    """``q``-th percentile of an already-sorted non-empty sample."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lower = int(rank)
    frac = rank - lower
    if frac == 0.0:
        return data[lower]
    return data[lower] + frac * (data[lower + 1] - data[lower])


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    Matches numpy's default (``method="linear"``): for ``n`` sorted samples
    the rank of percentile ``q`` is ``(q / 100) * (n - 1)``, interpolating
    between the neighbouring order statistics.  Pure-python so the serving
    percentile math is unit-testable against hand-computed values.
    """
    return _percentile_sorted(sorted(float(v) for v in values), q)


def _component_summary(samples: list) -> dict:
    data = sorted(float(v) for v in samples)   # one sort per component
    out = {f"p{int(q) if q == int(q) else q}": _percentile_sorted(data, q)
           for q in LATENCY_PERCENTILES}
    out["mean"] = sum(data) / len(data)
    out["max"] = data[-1]
    return out


@dataclass
class RunStats:
    """Statistics for one ``Session.run`` call.

    ``virtual_time`` is the simulated makespan in seconds under the engine's
    cost model and worker count; ``wall_time`` is host wall-clock time.
    """

    virtual_time: float = 0.0
    wall_time: float = 0.0
    ops_executed: int = 0
    frames_created: int = 0
    max_concurrency: int = 0
    max_frame_depth: int = 0
    per_type_count: dict = field(default_factory=dict)
    per_type_time: dict = field(default_factory=dict)
    cache_stores: int = 0
    cache_lookups: int = 0
    #: fused micro-batch kernel calls (dynamic cross-instance batching)
    batches: int = 0
    #: operations that executed as members of a fused batch
    batched_ops: int = 0
    #: largest fused batch observed
    max_batch: int = 0
    #: fused kernel calls keyed by op type
    batch_count_by_type: dict = field(default_factory=dict)
    #: per-signature flush-width histograms: signature -> {width: count}.
    #: A signature is the coalescer bucketing key (op type, batch attrs,
    #: input shapes/dtypes); ``None`` signatures fall back to the op type.
    #: This is the observability surface for the adaptive flush policy —
    #: see :func:`repro.harness.reporting.format_batch_histogram`.
    batch_width_hist: dict = field(default_factory=dict)
    #: roots admitted through the compiled level-plan fast path
    #: (:mod:`repro.runtime.level_plan`)
    level_plan_hits: int = 0
    #: roots that carried a shape profile but fell back to dynamic
    #: execution (ineligible graph shape, depth cap, stale plan)
    level_plan_fallbacks: int = 0
    #: why: reason -> count, from the template compile (a property of
    #: the definition) and from admission-time mismatches (profile child
    #: count vs call sites, fetch outside the root plan, ``max_depth``)
    level_plan_fallback_reasons: dict = field(default_factory=dict)
    #: compiled-sweep steps that had no columnar form to run (no stacked
    #: or keyed kernel, members disagreeing on shape, a kernel declining)
    #: and looped their scalar kernel over rows: op type -> steps
    level_row_loop_steps: dict = field(default_factory=dict)
    #: framework dispatches of compiled sweeps (one per block: a class
    #: segment at one depth or height) and the kernel calls they made
    level_blocks: int = 0
    level_kernel_calls: int = 0
    #: always 0: partial compilation (a dynamic spine with compiled
    #: sub-forests) is gone — a profile with holes is one fallback.
    #: Kept only because ``bench_e2e/harness.py`` reads both as
    #: attributes; they leave with that benchmark's next revision.
    level_plan_partial_roots: int = 0
    level_plan_subtree_runs: int = 0
    #: forests whose instantiation was found in the memo (one probe per
    #: flushed forest / one-shot run; only one-run forests are kept)
    level_plan_cache_hits: int = 0
    #: forests that had to be instantiated (every merged forest is)
    level_plan_cache_misses: int = 0
    #: wall-clock milliseconds spent compiling templates and
    #: instantiating forests
    level_plan_compile_ms: float = 0.0
    #: instantiations evicted by the LRU cap
    level_plan_evictions: int = 0
    #: per-level fused-dispatch width histograms for compiled sweeps:
    #: level index -> {width: count}.  The compiled-path analogue of
    #: ``batch_width_hist`` — see
    #: :func:`repro.harness.reporting.format_level_histogram`.
    level_width_hist: dict = field(default_factory=dict)
    #: high-water mark of the engine's live-bytes estimate — slot output
    #: values currently held by in-flight frames/sweeps plus gradient
    #: bytes retained by the accumulators.  Maintained only when the
    #: engine has a ``memory_budget`` or ``track_live_bytes=True``.
    peak_live_bytes: int = 0
    #: process peak RSS (MiB) sampled at reporting time — see
    #: :func:`repro.harness.reporting.peak_rss_mb`.  Unlike the
    #: live-bytes estimate this is sticky: the OS high-water mark never
    #: decreases within a process.
    peak_rss_mb: float = 0.0
    #: requests completed through a serving session
    requests: int = 0
    #: requests rejected by admission control (queue-depth cap, or the
    #: cost-predicted shedding path)
    rejected_requests: int = 0
    #: requests cancelled by the client while queued or in flight
    cancelled_requests: int = 0
    #: requests dropped by deadline enforcement (queued or in flight)
    timed_out_requests: int = 0
    #: deadline-carrying requests that did not complete by their
    #: deadline: every timed-out request plus every late completion.
    #: ``goodput_requests`` = completions inside their deadline.
    deadline_misses: int = 0
    #: per-request time spent waiting in the server's request queue
    queue_times: list = field(default_factory=list)
    #: per-request time spent executing in the engine (admit -> complete)
    engine_times: list = field(default_factory=list)
    #: cap on retained latency samples — beyond it note_request reservoir-
    #: samples (deterministically), so a long-lived server's stats stay
    #: bounded while the percentiles remain representative.  Benchmarks
    #: and tests stay far below the cap and keep exact samples.
    max_latency_samples: int = 65536

    def note_request(self, queue_time: float, engine_time: float) -> None:
        """Record one served request's queue-time/engine-time split.

        Bounded: once ``max_latency_samples`` pairs are retained, new
        samples displace a pseudo-random (deterministic, Algorithm-R
        style) slot with probability ``cap / requests``, keeping memory
        constant for open-ended serving sessions.
        """
        self.requests += 1
        if len(self.queue_times) < self.max_latency_samples:
            self.queue_times.append(queue_time)
            self.engine_times.append(engine_time)
            return
        # Knuth multiplicative hash of the request counter: a
        # deterministic stand-in for Algorithm R's random draw
        slot = ((self.requests * 2654435761) & 0x7FFFFFFF) % self.requests
        if slot < self.max_latency_samples:
            self.queue_times[slot] = queue_time
            self.engine_times[slot] = engine_time

    def note_ticket(self, ticket) -> None:
        """Record one completed request straight from its ticket timeline.

        ``ticket`` is any object with the
        :class:`~repro.runtime.server.RequestTicket` timeline surface
        (``queue_time`` = arrival → admit, ``engine_time`` = admit →
        complete).  This is the single point where the ticket timeline
        feeds the latency samples — the server and the serving harness
        both plumb per-request accounting through it instead of
        extracting the component times themselves.

        Deadline accounting rides along: a ticket carrying a
        ``deadline`` that completed past it counts as a deadline miss
        (late completions and timed-out requests together make up
        ``deadline_misses``).
        """
        self.note_request(ticket.queue_time, ticket.engine_time)
        deadline = getattr(ticket, "deadline", None)
        if deadline is not None and ticket.complete_time > deadline:
            self.deadline_misses += 1

    def note_rejected(self) -> None:
        """Record one request shed at admission (cap or predicted cost).

        Rejected requests contribute *no* latency samples: the latency
        distribution describes served requests only.
        """
        self.rejected_requests += 1

    def note_cancelled(self) -> None:
        """Record one client-cancelled request (no latency sample)."""
        self.cancelled_requests += 1

    def note_timed_out(self) -> None:
        """Record one request dropped by deadline enforcement.

        Counts as a deadline miss; contributes no latency sample.
        """
        self.timed_out_requests += 1
        self.deadline_misses += 1

    @property
    def goodput_requests(self) -> int:
        """Completions that made their deadline (deadline-free requests
        count: an absent SLO cannot be missed)."""
        return self.requests - (self.deadline_misses
                                - self.timed_out_requests)

    @property
    def request_latencies(self) -> list:
        """End-to-end latency (queue + engine) per completed request."""
        return [q + e for q, e in zip(self.queue_times, self.engine_times)]

    def latency_summary(self) -> dict:
        """p50/p95/p99/mean/max for queue, engine and total latency.

        Returns ``{"requests": n, "queue": {...}, "engine": {...},
        "total": {...}}`` (empty dict when no requests completed); each
        component maps ``p50``/``p95``/``p99``/``mean``/``max`` to
        engine-clock seconds.
        """
        if not self.requests:
            return {}
        return {"requests": self.requests,
                "rejected": self.rejected_requests,
                "cancelled": self.cancelled_requests,
                "timed_out": self.timed_out_requests,
                "deadline_misses": self.deadline_misses,
                "goodput": self.goodput_requests,
                "queue": _component_summary(self.queue_times),
                "engine": _component_summary(self.engine_times),
                "total": _component_summary(self.request_latencies)}

    def note_op(self, op_type: str, cost: float) -> None:
        # hot path (once per scalar instance): try/except beats .get once
        # the op type has been seen, which is every call but the first
        self.ops_executed += 1
        try:
            self.per_type_count[op_type] += 1
            self.per_type_time[op_type] += cost
        except KeyError:
            self.per_type_count[op_type] = 1
            self.per_type_time[op_type] = cost

    def note_batch(self, op_type: str, size: int, cost: float,
                   signature=None) -> None:
        """Record one fused kernel call executing ``size`` operations."""
        self.ops_executed += size
        self.per_type_count[op_type] = (self.per_type_count.get(op_type, 0)
                                        + size)
        self.per_type_time[op_type] = (self.per_type_time.get(op_type, 0.0)
                                       + cost)
        self.batches += 1
        self.batched_ops += size
        self.max_batch = max(self.max_batch, size)
        self.batch_count_by_type[op_type] = (
            self.batch_count_by_type.get(op_type, 0) + 1)
        hist = self.batch_width_hist.setdefault(
            signature if signature is not None else op_type, {})
        hist[size] = hist.get(size, 0) + 1

    def width_histogram_by_type(self) -> dict:
        """Aggregate the per-signature histograms by op type.

        Signature keys are tuples whose first element is the op type;
        plain-string keys (op type fallback) aggregate under themselves.
        Returns ``{op_type: {width: count}}``.
        """
        merged: dict = {}
        for key, hist in self.batch_width_hist.items():
            op_type = key[0] if isinstance(key, tuple) else key
            into = merged.setdefault(op_type, {})
            for width, count in hist.items():
                into[width] = into.get(width, 0) + count
        return merged

    @property
    def batch_efficiency(self) -> float:
        """Mean members per fused kernel call (0.0 when nothing batched)."""
        return self.batched_ops / self.batches if self.batches else 0.0

    @property
    def level_plan_cache_hit_rate(self) -> float:
        """Instantiation-memo hit rate: how often a flushed forest had
        been seen before (0.0 before any probe)."""
        probes = self.level_plan_cache_hits + self.level_plan_cache_misses
        return self.level_plan_cache_hits / probes if probes else 0.0

    def merge(self, other: "RunStats") -> None:
        """Accumulate another run's stats into this one (harness use)."""
        self.virtual_time += other.virtual_time
        self.wall_time += other.wall_time
        self.ops_executed += other.ops_executed
        self.frames_created += other.frames_created
        self.max_concurrency = max(self.max_concurrency,
                                   other.max_concurrency)
        self.max_frame_depth = max(self.max_frame_depth,
                                   other.max_frame_depth)
        self.requests += other.requests
        self.rejected_requests += other.rejected_requests
        self.cancelled_requests += other.cancelled_requests
        self.timed_out_requests += other.timed_out_requests
        self.deadline_misses += other.deadline_misses
        self.queue_times.extend(other.queue_times)
        self.engine_times.extend(other.engine_times)
        if len(self.queue_times) > self.max_latency_samples:
            # re-establish the retention bound (evenly-strided
            # downsample, pairs kept aligned) so note_request's
            # reservoir replacement stays reachable for every slot
            step = len(self.queue_times) / self.max_latency_samples
            keep = [int(i * step) for i in range(self.max_latency_samples)]
            self.queue_times = [self.queue_times[i] for i in keep]
            self.engine_times = [self.engine_times[i] for i in keep]
        self.batches += other.batches
        self.batched_ops += other.batched_ops
        self.max_batch = max(self.max_batch, other.max_batch)
        for k, v in other.batch_count_by_type.items():
            self.batch_count_by_type[k] = (self.batch_count_by_type.get(k, 0)
                                           + v)
        for sig, hist in other.batch_width_hist.items():
            into = self.batch_width_hist.setdefault(sig, {})
            for width, count in hist.items():
                into[width] = into.get(width, 0) + count
        self.level_plan_hits += other.level_plan_hits
        self.level_plan_fallbacks += other.level_plan_fallbacks
        for k, v in other.level_plan_fallback_reasons.items():
            self.level_plan_fallback_reasons[k] = (
                self.level_plan_fallback_reasons.get(k, 0) + v)
        for k, v in other.level_row_loop_steps.items():
            self.level_row_loop_steps[k] = (
                self.level_row_loop_steps.get(k, 0) + v)
        self.level_blocks += other.level_blocks
        self.level_kernel_calls += other.level_kernel_calls
        self.level_plan_cache_hits += other.level_plan_cache_hits
        self.level_plan_cache_misses += other.level_plan_cache_misses
        self.level_plan_compile_ms += other.level_plan_compile_ms
        self.level_plan_evictions += other.level_plan_evictions
        self.peak_live_bytes = max(self.peak_live_bytes,
                                   other.peak_live_bytes)
        self.peak_rss_mb = max(self.peak_rss_mb, other.peak_rss_mb)
        for level, hist in other.level_width_hist.items():
            into = self.level_width_hist.setdefault(level, {})
            for width, count in hist.items():
                into[width] = into.get(width, 0) + count
        for k, v in other.per_type_count.items():
            self.per_type_count[k] = self.per_type_count.get(k, 0) + v
        for k, v in other.per_type_time.items():
            self.per_type_time[k] = self.per_type_time.get(k, 0.0) + v

    def summary(self) -> str:
        lines = [
            f"virtual_time={self.virtual_time * 1e3:.3f} ms  "
            f"wall_time={self.wall_time * 1e3:.3f} ms",
            f"ops={self.ops_executed}  frames={self.frames_created}  "
            f"max_concurrency={self.max_concurrency}  "
            f"max_depth={self.max_frame_depth}",
        ]
        if self.batches:
            lines.append(
                f"batches={self.batches}  batched_ops={self.batched_ops}  "
                f"mean_batch={self.batch_efficiency:.1f}  "
                f"max_batch={self.max_batch}")
        if self.peak_live_bytes:
            lines.append(
                f"peak_live_bytes={self.peak_live_bytes}"
                f" ({self.peak_live_bytes / 2**20:.1f} MiB)")
        if self.level_plan_hits or self.level_plan_fallbacks:
            fused = sum(count for hist in self.level_width_hist.values()
                        for count in hist.values())
            lines.append(
                f"level_plan_hits={self.level_plan_hits}  "
                f"level_plan_fallbacks={self.level_plan_fallbacks}  "
                f"level_dispatches={fused}  "
                f"level_blocks={self.level_blocks}  "
                f"level_kernel_calls={self.level_kernel_calls}")
            for reason, count in sorted(
                    self.level_plan_fallback_reasons.items()):
                lines.append(f"  level_fallback x{count}: {reason}")
            if self.level_row_loop_steps:
                lines.append("level_row_loop_steps: " + "  ".join(
                    f"{t}={n}" for t, n
                    in sorted(self.level_row_loop_steps.items())))
        if self.level_plan_cache_hits or self.level_plan_cache_misses:
            lines.append(
                f"level_compile_cache hit_rate="
                f"{self.level_plan_cache_hit_rate:.3f} "
                f"(hits={self.level_plan_cache_hits} "
                f"misses={self.level_plan_cache_misses} "
                f"evictions={self.level_plan_evictions})  "
                f"compile={self.level_plan_compile_ms:.2f} ms")
        if self.requests:
            lat = self.latency_summary()["total"]
            lines.append(
                f"requests={self.requests}  rejected="
                f"{self.rejected_requests}  "
                f"latency p50={lat['p50'] * 1e3:.3f} ms  "
                f"p95={lat['p95'] * 1e3:.3f} ms  "
                f"p99={lat['p99'] * 1e3:.3f} ms")
            if (self.cancelled_requests or self.timed_out_requests
                    or self.deadline_misses):
                lines.append(
                    f"cancelled={self.cancelled_requests}  "
                    f"timed_out={self.timed_out_requests}  "
                    f"deadline_misses={self.deadline_misses}  "
                    f"goodput={self.goodput_requests}")
        top = sorted(self.per_type_time.items(), key=lambda kv: -kv[1])[:8]
        for op_type, t in top:
            lines.append(f"  {op_type:<22} n={self.per_type_count[op_type]:<7}"
                         f" t={t * 1e3:.3f} ms")
        return "\n".join(lines)
