"""Sessions and the runtime that hosts state.

A :class:`Runtime` owns everything that outlives a single graph execution:
the variable store, the gradient accumulators, and the backpropagation
value cache.  A :class:`Session` executes fetches against a graph with a
chosen engine configuration (worker count, cost model, scheduling policy,
training/inference mode).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.cache import ValueCache
from repro.graph import dtypes
from repro.graph.graph import Graph, get_default_graph
from repro.graph.tensor import Tensor

from .batching import AdaptiveBatchPolicy, BatchPolicy, resolve_batching
from .cost_model import CostModel, testbed_cpu
from .scheduler import resolve_executor
from .stats import RunStats
from .variables import GradientAccumulator, VariableStore

__all__ = ["Runtime", "Session", "default_runtime", "reset_default_runtime"]


class Runtime:
    """Holds variables, gradient accumulators and the backprop cache."""

    def __init__(self):
        self.variables = VariableStore()
        self.accumulators = GradientAccumulator()
        self.cache = ValueCache()
        self.trainables: list = []

    def register_trainable(self, variable) -> None:
        self.trainables.append(variable)

    def trainable_variables(self) -> list:
        return list(self.trainables)


_default_runtime: Optional[Runtime] = None


def default_runtime() -> Runtime:
    """The process-wide runtime used when none is passed explicitly."""
    global _default_runtime
    if _default_runtime is None:
        _default_runtime = Runtime()
    return _default_runtime


def reset_default_runtime() -> Runtime:
    """Replace the default runtime (test isolation)."""
    global _default_runtime
    _default_runtime = Runtime()
    return _default_runtime


class Session:
    """Executes graphs: ``session.run(fetches, feed_dict)``.

    Args:
        graph: the graph to execute (defaults to the current default graph).
        runtime: state container (defaults to the process-wide runtime).
        num_workers: virtual workers of the virtual clock (the paper's
            testbed used 36); the wall clock ignores it.
        cost_model: virtual-time cost model (defaults to the CPU testbed).
        record: training mode — record forward values of recursive frames
            into the backprop cache.  Runs that execute backward ops
            (InvokeGrad etc.) require ``record=True``.
        scheduler: "fifo" (paper default) or "depth" priority scheduling.
        engine: the clock the executor loop runs on
            (:mod:`repro.runtime.engine`): "event" for virtual time, the
            deterministic oracle; "workerpool" for the wall clock, whose
            one master schedules and executes every kernel (the calling
            thread during ``run``, one thread while serving).
        batching: fuse same-signature ready ops from concurrent frames
            into vectorized kernel calls (cross-instance dynamic
            micro-batching, :mod:`repro.runtime.batching`).  ``True``
            uses the fixed :class:`~repro.runtime.batching.BatchPolicy`;
            ``"adaptive"`` selects the per-signature
            :class:`~repro.runtime.batching.AdaptiveBatchPolicy`, whose
            tuned state persists across ``run`` calls.  Batching covers
            the training path too: backward frame spawns, gradient-body
            kernels and ``CacheLookup`` value-cache reads all coalesce.
            Values are bit-identical to unbatched execution.
        batch_policy: bucket capacity / flush policy when batching.
        memory_budget: soft cap (bytes) on estimated live scratch
            values; under pressure dispatch prefers finishing deep
            subtrees over breadth-first fan-out (reorders work, never
            sheds it).  Values stay bit-identical.
        track_live_bytes: maintain the live-bytes estimate (and its
            ``RunStats.peak_live_bytes`` peak) even without a budget.
        level_canon_depth: accepted and validated (``None`` or an
            integer >= 1), no longer consulted.  It used to cap compiled
            plans at subtrees of node depth <= ``d`` so heavy-tailed
            shape streams shared a small canonical plan set; the
            compiled tier now compiles the recursive *definition* once
            and instantiates a fully determined profile of any depth
            whole, so there is nothing left to canonicalize.
    """

    def __init__(self, graph: Optional[Graph] = None,
                 runtime: Optional[Runtime] = None, num_workers: int = 1,
                 cost_model: Optional[CostModel] = None, record: bool = False,
                 scheduler: str = "fifo", engine: str = "event",
                 max_depth: int = 5000, batching: bool = False,
                 batch_policy: Optional[BatchPolicy] = None,
                 memory_budget: Optional[int] = None,
                 track_live_bytes: bool = False,
                 level_canon_depth: Optional[int] = None):
        self.graph = graph or get_default_graph()
        self.runtime = runtime or default_runtime()
        if level_canon_depth is not None and level_canon_depth < 1:
            raise ValueError("level_canon_depth must be >= 1 (or None)")
        executor_cls = resolve_executor(engine)
        self._engine = executor_cls(self.runtime, num_workers=num_workers,
                                    cost_model=cost_model, record=record,
                                    scheduler=scheduler, max_depth=max_depth,
                                    batching=batching,
                                    batch_policy=batch_policy,
                                    memory_budget=memory_budget,
                                    track_live_bytes=track_live_bytes)
        self.last_stats: Optional[RunStats] = None

    def run(self, fetches, feed_dict: Optional[dict] = None,
            record: Optional[bool] = None, batching: Optional[bool] = None,
            shape_profile=None):
        """Execute the graph until ``fetches`` are produced.

        ``fetches`` may be a Tensor or a list/tuple of Tensors; the return
        value matches that structure.  ``feed_dict`` maps placeholder
        tensors to numpy-compatible values.  ``record`` and ``batching``
        override the session's modes for this call only; the session's
        own batch policy object (an adaptive one keeps its tuned state)
        is back in place after the call.

        ``shape_profile`` — per-call-site tree shape signatures in
        op-id order (``TreeBatch.profiles`` for the tree models) —
        enables the compiled level-plan fast path
        (:mod:`repro.runtime.level_plan`): the root executes as a fixed
        pre-bucketed sweep instantiated from the definition's one
        template, bit-identical to the dynamic path; an ineligible
        definition or a mismatching profile falls back transparently
        (``last_stats.level_plan_fallbacks``, by reason in
        ``level_plan_fallback_reasons``).  So does a profile with
        ``None`` holes (undetermined subtrees, e.g. behind a
        data-dependent ``cond``): the whole root runs on the dynamic
        tier, one fallback under ``"profile has undetermined
        subtrees"``.
        """
        single = isinstance(fetches, Tensor)
        fetch_list = [fetches] if single else list(fetches)
        self._check_fetches(fetch_list)
        feed_map = self._build_feed_map(feed_dict or {})
        engine = self._engine
        modes = engine.record, engine.batching, engine.batch_policy
        if record is not None:
            engine.record = record
        if batching is not None:
            # keep an existing adaptive policy: its tuned per-signature
            # state persists across run calls
            current = (engine.batch_policy
                       if isinstance(engine.batch_policy,
                                     AdaptiveBatchPolicy) else None)
            engine.batching, policy = resolve_batching(batching, current)
            if policy is not None:
                engine.batch_policy = policy
        self.runtime.cache.clear()
        try:
            values, stats = engine.run(self.graph, fetch_list, feed_map,
                                       shape_profile=shape_profile)
        finally:
            engine.record, engine.batching, engine.batch_policy = modes
        self.last_stats = stats
        return values[0] if single else values

    def serve(self, *, max_in_flight: int = 16,
              queue_cap: Optional[int] = None,
              admission: str = "continuous", keep_tickets: bool = True,
              order: str = "edf", shedding: str = "cap",
              queue_cost_cap: Optional[float] = None,
              capacity_factor: Optional[float] = None,
              tenant_weights: Optional[dict] = None,
              enforce_deadlines: bool = True):
        """Enter persistent serving mode; returns a
        :class:`~repro.runtime.server.RecursiveServer`.

        Where :meth:`run` executes one fixed fetch set to completion, a
        server keeps the engine alive and admits requests *into the
        running engine* (continuous batching): each ``server.submit``
        becomes a root instance whose operations join — and fuse with —
        the live ready queue.  ``max_in_flight`` caps concurrent root
        instances, ``queue_cap`` bounds the waiting queue (arrivals
        beyond it are rejected — backpressure), and ``admission`` selects
        continuous or legacy wave-synchronized admission.  Per-request
        values are bit-identical to :meth:`run` on the same fetches.

        SLO knobs (see :class:`~repro.runtime.server.RecursiveServer`):
        ``order`` picks EDF or FIFO admission, ``shedding`` picks
        queue-depth or cost-predicted load shedding (``queue_cost_cap``,
        ``capacity_factor``), ``tenant_weights`` configures weighted
        fair queueing across tenants, and ``enforce_deadlines`` cancels
        requests that miss their deadline — dropping them from the queue
        or unwinding their in-flight frames.

        The server owns the engine until ``server.close()``; interleaving
        ``session.run`` with an open server is unsupported.  Usable as a
        context manager::

            with session.serve(max_in_flight=8) as server:
                tickets = [server.submit(logits, feed) for feed in feeds]
                server.drain()
        """
        from .server import RecursiveServer
        return RecursiveServer(self, max_in_flight=max_in_flight,
                               queue_cap=queue_cap, admission=admission,
                               keep_tickets=keep_tickets, order=order,
                               shedding=shedding,
                               queue_cost_cap=queue_cost_cap,
                               capacity_factor=capacity_factor,
                               tenant_weights=tenant_weights,
                               enforce_deadlines=enforce_deadlines)

    def _check_fetches(self, fetch_list: Sequence[Tensor]) -> None:
        for t in fetch_list:
            if not isinstance(t, Tensor):
                raise TypeError(f"fetch {t!r} is not a Tensor")
            if t.graph is not self.graph:
                raise ValueError(
                    f"fetch {t.name} belongs to graph {t.graph.name}, "
                    f"session runs {self.graph.name}")

    def _build_feed_map(self, feed_dict: dict) -> dict[int, Any]:
        feed_map: dict[int, Any] = {}
        for key, value in feed_dict.items():
            if not isinstance(key, Tensor):
                raise TypeError(f"feed key {key!r} is not a Tensor")
            if key.graph is not self.graph:
                raise ValueError(
                    f"feed {key.name} belongs to a different graph")
            if key.op.op_type != "Placeholder":
                raise ValueError(f"can only feed placeholders, got "
                                 f"{key.op.op_type} {key.name}")
            feed_map[key.op.id] = dtypes.as_value(value, key.dtype)
        return feed_map
