"""Frame-plan compilation: the per-body scheduling plan both engines share.

The recursive execution model spawns one :class:`~repro.runtime.engine
.Frame` per SubGraph invocation — potentially millions per run — yet
everything the scheduler needs to know about a body graph is *static*:
its dependency counts, its consumer lists, which registry ``OpDef`` (and
kernel, and batched kernel) each op resolves to, the static prefix of
each op's batch signature, which outputs the backward pass will look up
(the selective-caching record set), and each op's cost-model entry.  The
seed engines re-derived all of that on **every** frame spawn and every
ready instance; at scale that interpreter overhead — not kernel time —
dominated the master's scheduling cost.

A :class:`FramePlan` is the one-time compilation of that static
information for a ``(graph, op-id set)`` pair, following the
compile-once / instantiate-many design of Cortex and the static-dataflow
recursion work (see PAPERS.md):

* ops are renumbered into **dense plan slots** (``index_of`` maps graph
  op id -> slot), so per-frame state (values, pending counters) becomes
  flat lists indexed by slot instead of per-spawn dicts keyed by op id;
* ``dep_counts`` / ``consumer_slots`` / ``zero_dep_slots`` precompute
  the dependency wiring a spawn previously re-walked the graph for;
* ``input_locs`` maps each op's input tensors to ``(producer slot, output
  index)`` pairs, making the dispatch-time input gather two list
  indexings per input;
* ``defs`` / ``starters`` / ``cost_kinds`` resolve each op's registry
  entry, async starter and cost-model entry once, eliminating
  ``op_def()`` lookups from the hot path;
* ``sig_prefixes`` interns the static ``(op_type, attrs)`` prefix of the
  batch signature to a small integer (see
  :func:`repro.runtime.batching.signature_prefix`), so signature
  computation at dispatch time is prefix + runtime value shapes — zero
  attr ``repr()``;
* ``store_masks`` bakes the graph's selective-caching ``cache_filter``
  into a per-slot, per-output boolean mask.

Plans are cached on the owning :class:`~repro.graph.graph.Graph`
(``plan_for``) and — for root frames executing a pruned fetch set — per
fetch-op set (``plan_for_fetches``, which also memoizes the
``reachable_from`` walk that serving previously repeated per request).
Graph mutation (``add_op``, control edges, ``set_cache_filter``)
invalidates the caches; finalized SubGraph bodies compile exactly once
per process.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.graph.registry import _REGISTRY_VERSION, op_def, registry_version

from .batching import signature_prefix

__all__ = ["FramePlan", "plan_for", "plan_for_fetches"]

#: cache key for the whole-graph plan (every op, the SubGraph-body case)
_ALL_OPS = "__all_ops__"


#: Ops whose output arrays alias persistent runtime state (the variable
#: store, the gradient accumulators, graph-owned constants) or their own
#: input (``AccumGrad`` passes its gradient through, already booked by its
#: producer) rather than fresh frame-owned scratch; excluded from
#: live-bytes accounting.
_PERSISTENT_ALIAS_OPS = frozenset({"ReadVariable", "ReadAccum", "Const",
                                   "AccumGrad"})


class FramePlan:
    """Compiled scheduling metadata for one ``(graph, op-id set)`` body."""

    __slots__ = ("graph", "graph_id", "op_ids", "num_slots", "index_of",
                 "ops", "defs", "starters", "dep_counts", "consumer_slots",
                 "zero_dep_slots", "input_locs", "sig_prefixes",
                 "store_masks", "cost_kinds", "n_outputs", "edge_counts",
                 "scratch_slots", "_release_memo")

    def __init__(self, graph, op_ids: Optional[Sequence[int]] = None):
        if op_ids is None:
            op_ids = range(graph.num_operations)
        self.graph = graph
        self.graph_id = graph.graph_id
        self.op_ids = tuple(op_ids)
        self.num_slots = len(self.op_ids)
        index_of = {op_id: slot for slot, op_id in enumerate(self.op_ids)}
        self.index_of = index_of
        ops = [graph.op_by_id(op_id) for op_id in self.op_ids]
        self.ops = ops
        defs = [op_def(op.op_type) for op in ops]
        self.defs = defs
        self.starters = [d.meta.get("starter") for d in defs]
        self.dep_counts = [graph.dependency_count(op) for op in ops]
        consumers = graph.consumers()
        self.consumer_slots = [
            tuple(index_of[c.id] for c in consumers.get(op.id, ())
                  if c.id in index_of)
            for op in ops]
        self.zero_dep_slots = tuple(
            slot for slot, count in enumerate(self.dep_counts) if count == 0)
        self.input_locs = [
            tuple((index_of[t.op.id], t.index) for t in op.inputs)
            for op in ops]
        self.sig_prefixes = [signature_prefix(op, d)
                             for op, d in zip(ops, defs)]
        cache_filter = getattr(graph, "cache_filter", None)
        if cache_filter is None:
            self.store_masks = [(True,) * op.num_outputs for op in ops]
        else:
            self.store_masks = [
                tuple((op.id, i) in cache_filter
                      for i in range(op.num_outputs))
                for op in ops]
        self.cost_kinds = [d.meta.get("cost", "elementwise") for d in defs]
        self.n_outputs = [op.num_outputs for op in ops]
        #: per-slot consumer-edge count: how many input edges (across all
        #: consumer slots in this plan) read the slot's outputs.  The
        #: basis of eager value release — a slot whose count reaches zero
        #: has been read by its last consumer.
        edge_counts = [0] * self.num_slots
        for locs in self.input_locs:
            for src, _ in locs:
                edge_counts[src] += 1
        self.edge_counts = edge_counts
        #: per-slot "outputs are frame-owned scratch" mask.  Variable,
        #: accumulator and constant reads return aliases of *persistent*
        #: storage — a [vocab, embed] embedding table read by hundreds of
        #: concurrent leaf frames is one array, not hundreds — so the
        #: live-bytes estimate must not charge those slots to the frame.
        self.scratch_slots = [op.op_type not in _PERSISTENT_ALIAS_OPS
                              for op in ops]
        self._release_memo: dict = {}

    def release_counts(self, pin_locs: tuple) -> tuple:
        """Per-slot release counters with pinned locations exempted.

        ``pin_locs`` is a hashable tuple of ``(op_id, output_index)``
        pairs whose values must outlive the frame's last consumer — the
        fetch tensors of a root frame, or a SubGraph body's
        ``output_locs`` (read by the parent's completion callback).
        Pinned slots are marked ``-1`` so their counters never reach
        zero.  Memoized per pin set: frames copy the tuple into their
        live ``release_counts`` list at spawn.
        """
        cached = self._release_memo.get(pin_locs)
        if cached is None:
            counts = list(self.edge_counts)
            index_of = self.index_of
            for op_id, _ in pin_locs:
                slot = index_of.get(op_id)
                if slot is not None:
                    counts[slot] = -1
            cached = self._release_memo[pin_locs] = tuple(counts)
        return cached

    def __repr__(self) -> str:
        return (f"<FramePlan graph={self.graph.name!r} "
                f"slots={self.num_slots}>")


def _refresh_registry_version(graph) -> None:
    """Drop the graph's plan caches: the op registry mutated since they
    were compiled.

    Plans bake registry state in: resolved ``OpDef``/kernel references
    and batch-signature prefixes (``None`` while an op type has no
    ``batched_kernel``).  Registering an op, a gradient, or a batched
    kernel/async *after* a plan compiled would otherwise leave stale
    plans serving forever — e.g. a ``register_batched_kernel`` call made
    after the first ``Session.run`` would never batch.  The registry
    bumps a monotonic version on every mutation; plan caches stamp the
    version they were compiled at, ``plan_for``/``plan_for_fetches``
    compare it inline (one int compare per call — spawn-path cheap), and
    this slow path re-routes a mismatch through the existing
    invalidation state under the graph lock.
    """
    version = registry_version()
    with graph._lock:
        if graph._plan_registry_version != version:
            graph._frame_plans.clear()
            graph._fetch_plans.clear()
            graph._level_plans.clear()
            graph._plan_registry_version = version


def plan_for(graph, op_ids: Optional[Iterable[int]] = None) -> FramePlan:
    """The (cached) plan for ``graph`` over ``op_ids`` (default: all ops).

    The first call per ``(graph, op-id set)`` compiles the plan; later
    calls return the cached object.  Safe under the graph lock from
    multiple engine threads; invalidated by graph mutation and by op
    registry mutation (see :func:`_refresh_registry_version`).
    """
    if graph._plan_registry_version != _REGISTRY_VERSION[0]:
        _refresh_registry_version(graph)
    key = _ALL_OPS if op_ids is None else tuple(op_ids)
    cache = graph._frame_plans
    plan = cache.get(key)
    if plan is None:
        with graph._lock:
            plan = cache.get(key)
            if plan is None:
                plan = FramePlan(graph, None if key is _ALL_OPS else key)
                cache[key] = plan
    return plan


def plan_for_fetches(graph, fetch_ops) -> FramePlan:
    """The (cached) pruned root-frame plan for one fetch-op set.

    Memoizes the ``reachable_from`` reverse walk per distinct fetch set,
    so a serving session admitting the same fetches per request performs
    the graph pruning exactly once.
    """
    if graph._plan_registry_version != _REGISTRY_VERSION[0]:
        _refresh_registry_version(graph)
    key = tuple(sorted({op.id for op in fetch_ops}))
    cache = graph._fetch_plans
    plan = cache.get(key)
    if plan is None:
        with graph._lock:
            plan = cache.get(key)
            if plan is None:
                needed = sorted(graph.reachable_from(fetch_ops))
                plan = plan_for(graph, needed)
                cache[key] = plan
    return plan
