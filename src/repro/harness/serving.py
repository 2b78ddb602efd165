"""Serving drivers: streaming (continuous-batching) and wave-synchronized.

The "millions of users" scenario.  The recursive programming model gives
serving for free: a request is one root ``InvokeOp`` instance of the
model's recursive graph, and concurrent requests' inner operations
interleave in one ready queue where the cross-instance micro-batching
scheduler (``batching=True``) fuses same-shape work from unrelated trees.

**Wave vs. continuous admission.**  The original driver ran rigid
*waves*: admit N requests, wait for all N to finish, admit the next N.
Every wave tail starves the coalescer — while the last straggler tree
finishes, the ready queue empties, fused batch widths collapse, and
workers idle even though new requests are already queued.  The streaming
driver (:func:`serve_stream`) instead runs an open-loop request stream
through a :class:`~repro.runtime.server.RecursiveServer`, which admits a
queued request the moment an in-flight slot frees (*continuous
batching*): new instances' ops fuse with in-flight ones immediately, so
the engine never sees a wave tail.

The knobs (see :class:`~repro.runtime.server.RecursiveServer`):

* ``max_in_flight`` — admission control: concurrent root instances in
  the engine.  Equal concurrency is what makes wave vs. continuous a
  fair comparison.
* ``queue_cap`` — backpressure: requests arriving onto a full queue are
  rejected (counted, surfaced via ``ServingResult.rejected``).
* ``arrival_rate`` — open-loop Poisson arrivals (requests per engine
  second); ``None`` means a burst backlog (all requests arrive at t=0).
* ``admission`` — ``"continuous"`` or ``"wave"`` (the legacy baseline).

Determinism: request streams are seeded (:func:`poisson_request_stream`)
and the event engine is a deterministic simulator, so a fixed seed gives
bit-identical per-request results *and* identical virtual-time latency
distributions run over run.  Per-request outputs are keyed by request id
in ``ServingResult.request_logits`` and are bit-identical to a one-shot
``Session.run`` of the same tree.

:func:`serve_concurrent` / :func:`compare_batching` are kept as thin
compatibility wrappers (wave-synchronized, burst arrivals) over the same
server; ``benchmarks/bench_serving.py`` records the wave-vs-continuous
baseline into ``BENCH_serving.json``.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.data.batching import batch_trees
from repro.runtime.batching import BatchPolicy, QueueAwareBatchPolicy
from repro.runtime.cost_model import CostModel
from repro.runtime.session import Session
from repro.runtime.stats import RunStats

__all__ = ["ServingResult", "SoakResult", "RequestStream",
           "poisson_request_stream", "burst_request_stream", "serve_stream",
           "compare_admission", "serve_concurrent", "compare_batching",
           "run_soak"]


# -- request streams -----------------------------------------------------------


@dataclass(frozen=True)
class RequestStream:
    """A deterministic open-loop request arrival plan.

    ``arrivals`` is a time-sorted tuple of ``(arrival_time, tree_index)``
    pairs: under the event engine the times are virtual seconds at which
    the request enters the server queue; under workerpool they are
    wall-clock offsets the driver replays with real sleeps.
    """

    arrivals: tuple
    seed: int
    rate: Optional[float] = None   # requests/second; None = burst at t=0

    @property
    def num_requests(self) -> int:
        return len(self.arrivals)


def poisson_request_stream(num_requests: int, rate: float, pool_size: int,
                           seed: int = 0) -> RequestStream:
    """Seeded Poisson-process arrivals over a pool of ``pool_size`` trees.

    Inter-arrival gaps are exponential with mean ``1/rate``; tree indices
    are uniform over the pool.  Both are drawn from one
    ``np.random.default_rng(seed)``, so the stream — and therefore every
    serving benchmark driven by it — is reproducible run-to-run.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive (requests per second)")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_requests)
    times = np.cumsum(gaps) - gaps[0]   # first request arrives at t=0
    indices = rng.integers(0, pool_size, size=num_requests)
    return RequestStream(arrivals=tuple(zip(times.tolist(),
                                            (int(i) for i in indices))),
                         seed=seed, rate=rate)


def burst_request_stream(num_requests: int, pool_size: int,
                         seed: int = 0) -> RequestStream:
    """All requests arrive at t=0 (a closed backlog)."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, pool_size, size=num_requests)
    return RequestStream(arrivals=tuple((0.0, int(i)) for i in indices),
                         seed=seed, rate=None)


# -- results -------------------------------------------------------------------


@dataclass
class ServingResult:
    """Aggregate + per-request statistics of one serving run."""

    mode: str                 # admission mode: "continuous" | "wave"
    concurrency: int          # max_in_flight admission cap
    instances: int            # requests served to completion
    virtual_seconds: float    # engine-clock makespan of the session
    batching: bool
    stats: RunStats = field(default_factory=RunStats)
    #: per-request root logits keyed by request id (submission order);
    #: each value is the ``[1, classes]`` output of that request's tree
    request_logits: dict = field(default_factory=dict)
    #: per-request end-to-end latency keyed by request id (completed
    #: requests only — dropped requests produce no latency sample)
    request_latencies: dict = field(default_factory=dict)
    rejected: int = 0         # requests shed at admission
    cancelled: int = 0        # requests cancelled by the client
    timed_out: int = 0        # requests dropped by deadline enforcement
    deadline_misses: int = 0  # timed-out + completed-after-deadline
    goodput: int = 0          # completions that met their deadline
    waves: int = 0            # wave count (legacy wave driver only)

    @classmethod
    def from_server(cls, server, *, mode: str, concurrency: int,
                    batching: bool) -> "ServingResult":
        """Collect one drained server session's per-request bookkeeping.

        The single place the harness reads tickets back: per-request
        logits keyed by request id, shed/cancel/miss counts, and the
        session-cumulative stats (whose latency samples the server
        recorded per ticket via
        :meth:`~repro.runtime.stats.RunStats.note_ticket`).  With
        ``keep_tickets=False`` the ticket list is empty (a long-lived
        server drops completed requests), so ``request_logits`` is empty
        while the counters and latency reservoir remain exact.
        """
        stats = server.stats
        request_logits = {t.request_id: t.value for t in server.tickets
                          if t.error is None and t.value is not None}
        request_latencies = {t.request_id: t.latency for t in server.tickets
                             if t.latency is not None}
        return cls(mode=mode, concurrency=concurrency,
                   instances=server.completed,
                   virtual_seconds=stats.virtual_time,
                   batching=batching, stats=stats,
                   request_logits=request_logits,
                   request_latencies=request_latencies,
                   rejected=server.rejected,
                   cancelled=server.cancelled,
                   timed_out=server.timed_out,
                   deadline_misses=stats.deadline_misses,
                   goodput=stats.goodput_requests)

    @property
    def throughput(self) -> float:
        """Served instances per engine-clock second."""
        return self.instances / self.virtual_seconds

    @property
    def goodput_rate(self) -> float:
        """Deadline-meeting completions per engine-clock second."""
        return self.goodput / self.virtual_seconds

    @property
    def logits(self) -> Optional[np.ndarray]:
        """All served requests' root logits stacked in request-id order.

        Row ``k`` is the logits of the ``k``-th *served* request (rejected
        requests have no output and are skipped); use
        ``request_logits`` for explicit per-request keying.
        """
        if not self.request_logits:
            return None
        return np.concatenate([self.request_logits[rid]
                               for rid in sorted(self.request_logits)],
                              axis=0)

    def latency_summary(self) -> dict:
        """p50/p95/p99 queue/engine/total latency (see RunStats)."""
        return self.stats.latency_summary()

    def summary(self) -> str:
        mode = "batched" if self.batching else "unbatched"
        dropped = ""
        if self.rejected:
            dropped += f" rejected={self.rejected}"
        if self.timed_out:
            dropped += f" timed_out={self.timed_out}"
        if self.cancelled:
            dropped += f" cancelled={self.cancelled}"
        if self.deadline_misses:
            dropped += (f" misses={self.deadline_misses}"
                        f" goodput={self.goodput}")
        lines = [f"serving[{mode}/{self.mode}] "
                 f"max_in_flight={self.concurrency} "
                 f"requests={self.instances}" + dropped
                 + f": {self.throughput:.1f} instances/s"]
        if self.stats.batches:
            lines.append(f"  fused kernels={self.stats.batches}  "
                         f"mean batch={self.stats.batch_efficiency:.1f}  "
                         f"max batch={self.stats.max_batch}")
        latency = self.latency_summary()
        if latency:
            total = latency["total"]
            queue = latency["queue"]
            lines.append(f"  latency p50={total['p50'] * 1e3:.3f} ms  "
                         f"p95={total['p95'] * 1e3:.3f} ms  "
                         f"p99={total['p99'] * 1e3:.3f} ms  "
                         f"(queue p95={queue['p95'] * 1e3:.3f} ms)")
        return "\n".join(lines)


# -- the streaming driver ------------------------------------------------------


def serve_stream(model, trees: Sequence, *,
                 num_requests: Optional[int] = None,
                 arrival_rate: Optional[float] = None,
                 stream: Optional[RequestStream] = None,
                 max_in_flight: int = 16,
                 queue_cap: Optional[int] = None,
                 admission: str = "continuous",
                 order: str = "edf", shedding: str = "cap",
                 queue_cost_cap: Optional[float] = None,
                 capacity_factor: Optional[float] = None,
                 deadline_slack: Union[None, float, Callable] = None,
                 enforce_deadlines: bool = True,
                 tenants: Optional[Sequence[str]] = None,
                 tenant_weights: Optional[dict] = None,
                 size_hints: bool = True,
                 keep_tickets: bool = True,
                 batching: bool = False,
                 batch_policy: Optional[BatchPolicy] = None,
                 num_workers: int = 36,
                 cost_model: Optional[CostModel] = None,
                 engine: str = "event", scheduler: str = "fifo",
                 seed: int = 0) -> ServingResult:
    """Serve an open-loop request stream through a streaming server.

    Each request is one tree served as a root instance of the model's
    per-request recursive graph (``build_recursive(1)``) — all requests
    share one graph, so their inner ops carry identical batch signatures
    and fuse across requests.  Provide either ``stream`` or
    ``num_requests`` (+ optional ``arrival_rate``; ``None`` = burst).

    SLO knobs (all forwarded to the server — see
    :class:`~repro.runtime.server.RecursiveServer`): ``order`` /
    ``shedding`` / ``queue_cost_cap`` / ``capacity_factor`` /
    ``tenant_weights`` / ``enforce_deadlines`` / ``keep_tickets``.
    ``deadline_slack`` attaches a deadline to every request — a float is
    a uniform arrival-relative timeout in engine seconds, a callable
    receives the request's tree and returns its slack (e.g. proportional
    to ``tree.num_nodes``).  ``tenants`` assigns requests to fair-queue
    lanes round-robin over the given names.  ``size_hints`` passes each
    tree's node count to the server's admission-time cost prediction.

    When ``batching`` is enabled and no explicit ``batch_policy`` is
    given, the queue-aware policy is installed: per-signature minimum
    batch sizes adapt on both engines.  Returns a
    :class:`ServingResult` with per-request logits and latency
    percentiles.
    """
    pool = list(trees)
    if stream is None:
        if num_requests is None:
            raise ValueError("provide either stream= or num_requests=")
        if arrival_rate is not None:
            stream = poisson_request_stream(num_requests, arrival_rate,
                                            len(pool), seed)
        else:
            stream = burst_request_stream(num_requests, len(pool), seed)
    if batching and batch_policy is None:
        batch_policy = QueueAwareBatchPolicy()

    built = model.build_recursive(1)
    session = Session(built.graph, model.runtime, num_workers=num_workers,
                      cost_model=cost_model, record=False,
                      scheduler=scheduler, engine=engine, batching=batching,
                      batch_policy=batch_policy)
    feeds = {idx: built.feed_dict(batch_trees([pool[idx]]))
             for idx in {i for _, i in stream.arrivals}}

    def slo_kwargs(rid, idx):
        kwargs = {}
        if deadline_slack is not None:
            slack = (deadline_slack(pool[idx]) if callable(deadline_slack)
                     else deadline_slack)
            kwargs["timeout"] = slack
        if tenants:
            kwargs["tenant"] = tenants[rid % len(tenants)]
        if size_hints:
            kwargs["size_hint"] = pool[idx].num_nodes
        return kwargs

    with session.serve(max_in_flight=max_in_flight, queue_cap=queue_cap,
                       admission=admission, order=order, shedding=shedding,
                       queue_cost_cap=queue_cost_cap,
                       capacity_factor=capacity_factor,
                       tenant_weights=tenant_weights,
                       enforce_deadlines=enforce_deadlines,
                       keep_tickets=keep_tickets) as server:
        if engine == "event":
            for rid, (when, idx) in enumerate(stream.arrivals):
                server.submit(built.root_logits, feeds[idx], at=when,
                              **slo_kwargs(rid, idx))
        else:
            start = time.perf_counter()
            for rid, (when, idx) in enumerate(stream.arrivals):
                delay = when - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
                server.submit(built.root_logits, feeds[idx],
                              **slo_kwargs(rid, idx))
        server.drain()
    # read results after close(): wall-clock backends stamp the session
    # clock (stats.virtual_time) in end_serving
    return ServingResult.from_server(server, mode=admission,
                                     concurrency=max_in_flight,
                                     batching=batching)


def compare_admission(model, trees: Sequence, *,
                      stream: Optional[RequestStream] = None,
                      **kwargs) -> tuple[ServingResult, ServingResult]:
    """Serve one identical request stream wave-synchronized then
    continuously; returns ``(wave, continuous)``.

    Equal concurrency (same ``max_in_flight``), equal stream — the
    throughput ratio isolates the wave-tail starvation that continuous
    admission removes, and the per-request logits of the two runs must
    agree bit-for-bit.
    """
    kwargs.pop("admission", None)
    pool = list(trees)
    if stream is None:
        stream = poisson_request_stream(
            kwargs.pop("num_requests", 32),
            kwargs.pop("arrival_rate", None) or 1e9,
            len(pool), kwargs.get("seed", 0))
    wave = serve_stream(model, pool, stream=stream, admission="wave",
                        **kwargs)
    continuous = serve_stream(model, pool, stream=stream,
                              admission="continuous", **kwargs)
    return wave, continuous


# -- legacy wave drivers (compat wrappers over the server) ---------------------


def _sample_wave_indices(pool_size: int, concurrency: int, waves: int,
                         seed: int) -> list:
    """The legacy wave sampler: ``concurrency`` seeded draws per wave."""
    rng = np.random.default_rng(seed)
    replace = pool_size < concurrency
    indices: list[int] = []
    for _ in range(waves):
        indices.extend(int(i) for i in
                       rng.choice(pool_size, size=concurrency,
                                  replace=replace))
    return indices


def serve_concurrent(model, trees: Sequence, concurrency: int, *,
                     batching: bool = False,
                     batch_policy: Optional[BatchPolicy] = None,
                     num_workers: int = 36,
                     cost_model: Optional[CostModel] = None,
                     engine: str = "event", scheduler: str = "fifo",
                     waves: int = 1, seed: int = 0,
                     admission: str = "wave") -> ServingResult:
    """Serve ``waves`` waves of ``concurrency`` trees each (compat API).

    Thin wrapper over :func:`serve_stream`: the whole request backlog
    arrives at t=0 and is admitted wave-synchronized (``concurrency``
    requests at a time, next wave only when the engine is empty) — the
    legacy behaviour, now measured with per-request latency accounting.
    Pass ``admission="continuous"`` to serve the identical backlog with
    in-flight admission instead.
    """
    pool = list(trees)
    indices = _sample_wave_indices(len(pool), concurrency, waves, seed)
    stream = RequestStream(arrivals=tuple((0.0, i) for i in indices),
                           seed=seed, rate=None)
    result = serve_stream(model, pool, stream=stream,
                          max_in_flight=concurrency, admission=admission,
                          batching=batching, batch_policy=batch_policy,
                          num_workers=num_workers, cost_model=cost_model,
                          engine=engine, scheduler=scheduler, seed=seed)
    result.waves = waves
    return result


def compare_batching(model, trees: Sequence, concurrency: int,
                     **kwargs) -> tuple[ServingResult, ServingResult]:
    """Serve identical waves unbatched then batched (compat API).

    Returns ``(unbatched, batched)``; the two results carry identical
    request streams, so their per-request logits must agree bit-for-bit
    and the throughput ratio is the micro-batching speedup.
    """
    kwargs.pop("batching", None)
    unbatched = serve_concurrent(model, trees, concurrency,
                                 batching=False, **kwargs)
    batched = serve_concurrent(model, trees, concurrency,
                               batching=True, **kwargs)
    return unbatched, batched


# -- sustained soak ------------------------------------------------------------


def _rss_kb() -> Optional[int]:
    """Current resident set size in KiB (Linux; None elsewhere)."""
    try:
        with open("/proc/self/statm") as f:
            resident_pages = int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return resident_pages * os.sysconf("SC_PAGESIZE") // 1024


@dataclass
class SoakResult:
    """One sustained-soak serving run: SLO counters + memory profile.

    ``rss_samples_kb`` holds one post-GC resident-set sample per
    submission chunk; a healthy long-lived server plateaus (later
    samples stop growing) because with ``keep_tickets=False`` completed
    requests — tickets, feeds, values — are dropped as they finish and
    the stats reservoir is bounded.
    """

    requests: int
    completed: int
    rejected: int
    timed_out: int
    cancelled: int
    deadline_misses: int
    goodput: int
    virtual_seconds: float
    wall_seconds: float
    chunk: int
    latency: dict
    rss_samples_kb: list = field(default_factory=list)

    @property
    def rss_growth(self) -> Optional[float]:
        """Late-half RSS growth ratio: max(last half) / max(first half).

        ~1.0 means the plateau held; use a small tolerance when
        asserting (the allocator may still be warming early on).
        """
        samples = [s for s in self.rss_samples_kb if s]
        if len(samples) < 4:
            return None
        half = len(samples) // 2
        return max(samples[half:]) / max(samples[:half])

    def summary(self) -> str:
        lines = [f"soak: {self.requests} requests "
                 f"({self.completed} completed, {self.rejected} shed, "
                 f"{self.timed_out} timed out, {self.cancelled} cancelled) "
                 f"in {self.virtual_seconds:.2f} engine s / "
                 f"{self.wall_seconds:.1f} wall s; goodput {self.goodput}"]
        if self.rss_samples_kb:
            lines.append(f"  rss first={self.rss_samples_kb[0]} KiB "
                         f"last={self.rss_samples_kb[-1]} KiB "
                         f"growth={self.rss_growth and round(self.rss_growth, 3)}")
        total = self.latency.get("total", {})
        if total:
            lines.append("  latency p50={p50:.6f}s p99={p99:.6f}s "
                         "p99.9={p999:.6f}s".format(
                             p50=total.get("p50", 0.0),
                             p99=total.get("p99", 0.0),
                             p999=total.get("p99.9", 0.0)))
        return "\n".join(lines)


def run_soak(model, trees: Sequence, *, num_requests: int,
             chunk: int = 2000, arrival_rate: float = 4000.0,
             max_in_flight: int = 16, shedding: str = "cost",
             queue_cost_cap: Optional[float] = None,
             deadline_slack: Union[None, float, Callable] = None,
             cancel_every: int = 0, batching: bool = True,
             num_workers: int = 36, seed: int = 0) -> SoakResult:
    """Sustained-soak a long-lived server: O(10^5) requests in chunks.

    One server session (event engine, ``keep_tickets=False``) serves
    ``num_requests`` requests submitted in chunks of ``chunk``; the
    server drains between chunks (server reuse across drains) so at most
    one chunk's tickets are ever alive, and a post-GC RSS sample is taken
    per chunk — the bounded-memory evidence.  Tree sizes follow the
    treebank's heavy-tailed length distribution.  ``cancel_every`` > 0
    schedules a client cancellation for every n-th request shortly after
    its arrival, exercising the mid-flight unwind path at scale.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    pool = list(trees)
    rng = np.random.default_rng(seed)
    built = model.build_recursive(1)
    session = Session(built.graph, model.runtime, num_workers=num_workers,
                      record=False, engine="event", batching=batching,
                      batch_policy=QueueAwareBatchPolicy() if batching
                      else None)
    feeds = {idx: built.feed_dict(batch_trees([tree]))
             for idx, tree in enumerate(pool)}
    engine = session._engine
    submitted = 0
    rss_samples = []
    wall_start = time.perf_counter()
    with session.serve(max_in_flight=max_in_flight, shedding=shedding,
                       queue_cost_cap=queue_cost_cap,
                       keep_tickets=False) as server:
        while submitted < num_requests:
            n = min(chunk, num_requests - submitted)
            base = engine.now
            offsets = np.cumsum(rng.exponential(1.0 / arrival_rate, size=n))
            indices = rng.integers(0, len(pool), size=n)
            for k in range(n):
                idx = int(indices[k])
                at = base + float(offsets[k])
                slack = (deadline_slack(pool[idx])
                         if callable(deadline_slack) else deadline_slack)
                ticket = server.submit(built.root_logits, feeds[idx],
                                       at=at, timeout=slack,
                                       size_hint=pool[idx].num_nodes)
                if cancel_every and (submitted + k) % cancel_every == 0:
                    engine.schedule(at + 1e-5, ticket.cancel)
            server.drain()
            submitted += n
            gc.collect()
            rss_samples.append(_rss_kb())
        stats = server.stats
        latency = stats.latency_summary()
        result = SoakResult(requests=submitted,
                            completed=server.completed,
                            rejected=server.rejected,
                            timed_out=server.timed_out,
                            cancelled=server.cancelled,
                            deadline_misses=stats.deadline_misses,
                            goodput=stats.goodput_requests,
                            virtual_seconds=stats.virtual_time,
                            wall_seconds=time.perf_counter() - wall_start,
                            chunk=chunk, latency=latency,
                            rss_samples_kb=rss_samples)
    return result
