"""The scheduler core: the frame-lifecycle engine under the executor loop.

The paper's central capability — recursion-aware scheduling (frame
spawning over compiled :class:`~repro.runtime.plan.FramePlan` slot
arrays, cross-instance dynamic micro-batching, selective caching of
forward values) — is a *framework* property, independent of how kernels
are ultimately executed.  This module makes that layering explicit:

* :class:`SchedulerCore` owns the frame lifecycle: spawn/seed/
  complete, the ready-queue and
  :class:`~repro.runtime.batching.Coalescer` integration points,
  selective-cache store decisions, root admission (``run`` is a
  one-request serving session over ``submit_root`` / ``drain``),
  error wrapping, and :class:`~repro.runtime.stats.RunStats`
  accounting.

* The executor loop (:class:`~repro.runtime.engine.EventEngine`)
  subclasses it and takes ready instances to kernels; its clock hooks
  decide when they complete, what ``now`` is, where deferred callbacks
  and compiled flushes run, and how a session waits.
  Two names pick the clock (:func:`resolve_executor`):

  - ``"event"`` — the virtual clock: the deterministic discrete-event
    simulator and the oracle every other configuration is checked
    against;
  - ``"workerpool"`` — the wall clock: one master (the caller during
    ``run``, a dedicated thread while serving) schedules and executes
    every kernel, taking its parallelism from bucket and sweep width.

  On both, a compiled level-plan sweep runs its blocks back to back on
  the loop's thread.

The split follows Cortex (Fegade et al.) and the static-dataflow
recursion work (see PAPERS.md): scheduling decisions for recursive
models are made once, in one place, and both clocks inherit them —
values, gradients and (on the virtual clock) virtual-time results are
bit-identical across them.  See ARCHITECTURE.md for the layer diagram.

:func:`resolve_executor` maps ``Session(engine="...")`` /
:class:`~repro.harness.runners.RunnerConfig` names to the two classes;
:func:`available_executors` lists the names (the cross-executor
equivalence tests and the bench provenance stamps iterate it).

Locking contract: ``_master_lock`` is ``None`` on the virtual clock and
an ``RLock`` on the wall clock, held by the loop except while a serving
master runs a kernel or a compiled flush (``_outside``) or sleeps.
``_complete_instance`` and ``_start_frame`` mutate master state and are
*lock-free by design*: every entry point either holds the lock already
(master completions, starters, ``submit_root``) or runs on the only
thread that touches frames.  ``submit_root``, ``cancel_root`` and the
compiled runs' completions take the lock themselves when one exists.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Optional, Sequence

from repro.core.cache import ROOT_KEY
from repro.graph.graph import Graph, Operation
from repro.graph.registry import ExecContext
from repro.graph.sparse import IndexedSlices
from repro.graph.tensor import Tensor

from .batching import (BatchPolicy, Coalescer, resolve_batching,
                       value_signature)
from .cost_model import CostModel, testbed_cpu
from .plan import FramePlan, plan_for, plan_for_fetches
from .stats import RunStats

__all__ = ["SchedulerCore", "Frame", "Instance", "EngineError",
           "should_store", "seed_frame", "collect_cache_entries",
           "prune_cancelled", "resolve_executor", "available_executors"]


class EngineError(RuntimeError):
    """An error raised while executing a graph, annotated with op context."""


def densify(value):
    """Fetch-boundary conversion: sparse gradients leave the runtime as
    the dense tensors callers expect (``IndexedSlices`` is an internal
    value representation, bit-identical to the dense gradient)."""
    if isinstance(value, IndexedSlices):
        return value.to_dense()
    return value


def _values_bytes(outputs) -> int:
    """Byte estimate of one slot's output list (live-bytes accounting)."""
    total = 0
    for v in outputs:
        nb = getattr(v, "nbytes", None)
        if nb is not None:
            total += nb
    return total


def should_store(frame, op_id: int, out_idx: int) -> bool:
    """Selective caching: after differentiation each body graph knows
    which forward values its backward body looks up.  The scheduler core
    consults the plan's precomputed ``store_masks`` on the hot path; this
    is the reference predicate those masks bake in (kept for tests and
    out-of-plan callers)."""
    cache_filter = getattr(frame.graph, "cache_filter", None)
    return cache_filter is None or (op_id, out_idx) in cache_filter


def seed_frame(frame: "Frame", complete_instance: Callable,
               push: Callable) -> None:
    """Seed a fresh frame: complete bound placeholders, enqueue ready ops.

    Shared by every executor (the only difference is the ready sink) so
    the spawn semantics — bindings complete in op-id order exactly like
    the pre-plan engines, bindings outside a pruned op set are ignored,
    zero-dep ops enqueue in slot order — cannot diverge between them.
    """
    plan = frame.plan
    pending = frame.pending
    bindings = frame.bindings
    if bindings:
        if len(bindings) == 1:
            # the common spawn shape: a single bound input
            op_id, value = next(iter(bindings.items()))
            slot = plan.index_of.get(op_id)
            if slot is not None:
                pending[slot] = -1
                complete_instance(Instance(plan.ops[slot], frame, slot),
                                  [value])
        else:
            index_of = plan.index_of
            for op_id in sorted(bindings):
                slot = index_of.get(op_id)
                if slot is None:
                    continue
                pending[slot] = -1
                complete_instance(Instance(plan.ops[slot], frame, slot),
                                  [bindings[op_id]])
    for slot in plan.zero_dep_slots:
        if pending[slot] == 0:
            pending[slot] = -1
            push(Instance(plan.ops[slot], frame, slot))


def prune_cancelled(bucket) -> bool:
    """Drop members of cancelled request trees from a popped bucket.

    A bucket may have been filled before its members' root was
    cancelled, so the flush filters again.  Returns True when live
    members remain.
    """
    instances = bucket.instances
    for inst in instances:
        if inst.frame.root.cancelled:
            break
    else:
        return bool(instances)
    keep = [i for i, inst in enumerate(instances)
            if not inst.frame.root.cancelled]
    bucket.instances = [instances[i] for i in keep]
    bucket.inputs = [bucket.inputs[i] for i in keep]
    return bool(keep)


def collect_cache_entries(members, outputs_list) -> list:
    """The record-set of one fused batch as ``store_many`` entries.

    Shared by both clocks' batch completions so the set of cached
    values (and its bulk-write layout) cannot diverge between them.
    """
    entries = []
    for inst, outputs in zip(members, outputs_list):
        frame = inst.frame
        if frame.record:
            mask = frame.plan.store_masks[inst.slot]
            graph_id = frame.plan.graph_id
            op_id = inst.op.id
            for i, value in enumerate(outputs):
                if mask[i]:
                    entries.append((frame.key, graph_id, op_id, i, value))
    return entries


class Frame:
    """One activation of a graph (the whole run, or one SubGraph call).

    Per-frame state is dense over the plan's slot numbering: ``values``
    holds each slot's output list (None until produced), ``pending`` the
    remaining-producer counters (-1 once dispatched or bound).
    """

    __slots__ = ("plan", "graph", "key", "depth", "record", "bindings",
                 "values", "pending", "remaining", "on_complete", "owner",
                 "ctx", "root", "cancelled", "release_counts")

    def __init__(self, plan: FramePlan, bindings: dict, key: tuple,
                 depth: int, record: bool, on_complete: Callable,
                 owner: Optional["Instance"]):
        self.plan = plan
        self.graph = plan.graph
        self.key = key
        self.depth = depth
        self.record = record
        self.bindings = bindings
        self.values: list = [None] * plan.num_slots
        self.pending: list = list(plan.dep_counts)
        self.remaining = plan.num_slots
        self.on_complete = on_complete
        self.owner = owner  # parent Instance (None for the root frame)
        self.ctx = None  # lazily-built ExecContext, shared by this
        # frame's kernel invocations (runtime/frame/record are fixed)
        #: the depth-0 ancestor; only the root's ``cancelled`` flag is
        #: ever consulted, so cancelling one root retires its whole tree
        self.root = owner.frame.root if owner is not None else self
        self.cancelled = False
        #: per-slot consumer-edge countdown for eager value release
        #: (None disables release for this frame); set by ``_make_frame``
        #: from the plan's memoized pin-aware counts
        self.release_counts: Optional[list] = None

    def value_of(self, tensor: Tensor):
        return self.values[self.plan.index_of[tensor.op.id]][tensor.index]

    def values_at(self, locs) -> list:
        """Gather ``(op_id, output_index)`` locations from this frame.

        The spawn starters' completion callbacks use this with the
        SubGraph's cached ``output_locs``, so the frame storage layout
        is encapsulated here next to :meth:`value_of`.
        """
        values = self.values
        index_of = self.plan.index_of
        return [values[index_of[op_id]][i] for op_id, i in locs]

    def exec_context(self, runtime) -> ExecContext:
        """The frame's (memoized) kernel execution context."""
        ctx = self.ctx
        if ctx is None:
            ctx = self.ctx = ExecContext(runtime, self, self.record)
        return ctx


class Instance:
    """A schedulable (operation, frame) pair.

    ``slot`` is the op's dense index in the frame's plan; ``sig``
    memoizes the batch signature so an instance requeued after a partial
    bucket flush never recomputes it, and ``seq`` its first ready-queue
    arrival order (assigned by the depth-priority queue) so a requeue
    preserves the original tie-break position.
    """

    __slots__ = ("op", "frame", "slot", "sig", "seq")

    def __init__(self, op: Operation, frame: Frame, slot: int):
        self.op = op
        self.frame = frame
        self.slot = slot
        self.sig = None
        self.seq = None


class _LevelRun:
    """Handle for a root admitted through the compiled level-plan path.

    Plays the :class:`Frame` role in the admission bookkeeping — the
    server holds it, ``cancel_root`` flips it, ``drain`` waits on it —
    without any frame machinery: a compiled root spawns no frames.
    ``tpl`` is the definition's template and ``lin`` this run's
    linearised profile; runs of one template flush as one forest,
    whatever their shapes.  ``prefix`` is the root cache key; a compiled
    frame's key is ``prefix`` plus a suffix derived from the profile, so
    cache entries and accumulator order keys match the dynamic path
    bit-for-bit.
    """

    #: duck-type marker consulted by ``_cancel_root_locked``
    is_level_run = True

    __slots__ = ("tpl", "lin", "prefix", "feed", "fetch_refs",
                 "on_complete", "cancelled", "done")

    def __init__(self, tpl, lin, prefix: tuple, feed: dict, fetch_refs,
                 on_complete: Optional[Callable]):
        self.tpl, self.lin, self.prefix, self.feed = tpl, lin, prefix, feed
        self.fetch_refs, self.on_complete = fetch_refs, on_complete
        self.cancelled = self.done = False


class _FifoReady(deque):
    """FIFO ready queue: a deque subclass so push/pop/len stay C-level."""

    __slots__ = ()

    push = deque.append
    pop = deque.popleft


class _DepthPriorityReady:
    """Deeper frames first — the paper's suggested priority policy.

    First-push order breaks depth ties (instances are pushed the moment
    they become ready, so the counter reproduces global ready order);
    the seq is memoized on the instance so a straggler requeued by a
    partial bucket flush keeps its original position.
    """

    __slots__ = ("_q", "_seq")

    def __init__(self):
        self._q: list[tuple[int, int, Instance]] = []
        self._seq = itertools.count()

    def push(self, inst: Instance) -> None:
        seq = inst.seq
        if seq is None:
            seq = inst.seq = next(self._seq)
        heapq.heappush(self._q, (-inst.frame.depth, seq, inst))

    def pop(self) -> Instance:
        return heapq.heappop(self._q)[2]

    def __len__(self) -> int:
        return len(self._q)


class _MemoryBudgetReady:
    """FIFO below the memory budget, deepest-first above it.

    Every push threads one shared ``[instance, served]`` entry through
    both internal orders (a FIFO deque and a depth-priority heap); each
    ``pop`` consults the core's live-bytes pressure and serves from the
    matching order, lazily discarding entries the other order already
    served.  Under pressure the engine thus finishes deep subtrees —
    draining live frames and their retained values — before fanning out
    new breadth; no work is dropped and the executed-op *set* is
    unchanged, only its order.
    """

    __slots__ = ("_core", "_fifo", "_heap", "_seq", "_pushes", "_len")

    def __init__(self, core: "SchedulerCore"):
        self._core = core
        self._fifo: deque = deque()
        self._heap: list = []
        self._seq = itertools.count()
        self._pushes = itertools.count()  # heap tiebreak for requeues
        self._len = 0

    def push(self, inst: Instance) -> None:
        seq = inst.seq
        if seq is None:
            seq = inst.seq = next(self._seq)
        entry = [inst, False]
        self._fifo.append(entry)
        heapq.heappush(self._heap,
                       (-inst.frame.depth, seq, next(self._pushes), entry))
        self._len += 1

    def pop(self) -> Instance:
        if self._len == 0:
            raise IndexError("pop from an empty ready queue")
        self._len -= 1
        if self._core._over_budget():
            heap = self._heap
            while True:
                entry = heapq.heappop(heap)[3]
                if not entry[1]:
                    entry[1] = True
                    return entry[0]
        fifo = self._fifo
        while True:
            entry = fifo.popleft()
            if not entry[1]:
                entry[1] = True
                return entry[0]

    def __len__(self) -> int:
        return self._len


#: what ``SchedulerCore._locked`` hands the virtual clock
_NO_LOCK = contextlib.nullcontext()


class SchedulerCore:
    """Frame-lifecycle scheduler under the executor loop.

    Owns the recursion-aware scheduling semantics — frame spawn/seed/
    complete over :class:`~repro.runtime.plan.FramePlan` slot arrays,
    coalescer signatures and flush decisions, selective-cache stores,
    serving admission, error wrapping and stats accounting — while the
    loop and its clock supply the kernel-execution mechanics.

    Args:
        runtime: the :class:`~repro.runtime.session.Runtime` providing
            variables, accumulators and the backprop cache.
        num_workers: virtual worker count of the virtual clock (the
            wall clock accepts and ignores it: its master executes
            every kernel).
        cost_model: virtual-time cost model; defaults to the CPU testbed.
        record: cache forward values of recursive frames (training mode).
        scheduler: "fifo" (paper default) or "depth" priority
            (deeper frames first).
        max_depth: recursion guard.
        batching: coalesce same-signature ready ops across frames into
            fused vectorized kernel calls (cross-instance micro-batching).
            ``True`` uses the fixed flush policy, ``"adaptive"`` the
            per-signature :class:`~repro.runtime.batching.AdaptiveBatchPolicy`.
        batch_policy: bucket capacity / flush policy when batching.
        memory_budget: soft live-bytes cap (bytes); under pressure the
            event engine's dispatch prefers completing deep subtrees
            over breadth-first fan-out (work is reordered, never shed).
            Defaults to ``batch_policy.memory_budget``.
        track_live_bytes: maintain the live-bytes estimate (and its
            peak in ``RunStats``) even without a budget.
    """

    #: the clock a name picks: simulated (``"event"``) or wall time
    virtual_clock = False

    def __init__(self, runtime, num_workers: int = 1,
                 cost_model: Optional[CostModel] = None, record: bool = False,
                 scheduler: str = "fifo", max_depth: int = 5000,
                 batching: bool = False,
                 batch_policy: Optional[BatchPolicy] = None,
                 memory_budget: Optional[int] = None,
                 track_live_bytes: bool = False):
        self.runtime = runtime
        self.num_workers = max(1, num_workers)
        self.cost_model = cost_model or testbed_cpu()
        self.record = record
        self.scheduler = scheduler
        self.max_depth = max_depth
        self.batching, batch_policy = resolve_batching(batching, batch_policy)
        self.batch_policy = batch_policy or BatchPolicy()
        self.memory_budget = (memory_budget if memory_budget is not None
                              else self.batch_policy.memory_budget)
        #: live-bytes accounting is hot-path work, so it only runs when a
        #: budget needs the pressure signal or a caller asked to measure
        self._track_live = (self.memory_budget is not None
                            or track_live_bytes)
        #: master-state mutex (None on the virtual clock); see the module
        #: docstring for the locking contract.
        self._master_lock: Optional[threading.RLock] = None
        #: condition against the master lock, notified when a root is
        #: admitted, completes or fails (the wall clock creates it).
        self._roots_cv: Optional[threading.Condition] = None
        #: the server that owns the engine between ``begin_serving`` and
        #: ``end_serving`` (None: no serving session is open)
        self._server = None
        self._reset_session()

    def _reset_session(self, error_listener: Optional[Callable] = None
                       ) -> None:
        """Clear every piece of per-session state — the one reset
        behind construction, ``run`` and ``begin_serving`` — then let
        the loop rebuild its clock (and the wall clock its lock)."""
        self._open_roots = 0
        self._error: Optional[Exception] = None
        #: called once when the session fails
        self._error_listener = error_listener
        #: True once the error listener has been invoked (the wall clock
        #: delivers at failure time; drain must not re-deliver).
        self._error_delivered = False
        #: sticky copy of a raised session error: failed roots never
        #: complete, so a repeat drain() must raise again, not hang.
        self._fatal_error: Optional[Exception] = None
        self._live_bytes = 0
        #: compiled roots admitted but not yet executed (level-plan path)
        self._pending_level_runs: list = []
        self._coalescer: Optional[Coalescer] = (
            Coalescer(self.batch_policy) if self.batching else None)
        #: the ready queue the loop pops from (``pop`` raises IndexError
        #: when empty); ``_push_ready`` is its bound push
        if self.memory_budget is not None:
            self._ready = _MemoryBudgetReady(self)
        elif self.scheduler == "depth":
            self._ready = _DepthPriorityReady()
        else:
            self._ready = _FifoReady()
        self._push_ready = self._ready.push
        self._new_stats()
        self._reset_backend()
        self._serve_wall0 = time.perf_counter()

    # -- clock hooks ----------------------------------------------------------
    #
    # The executor loop supplies, per clock: ``now``, ``schedule``,
    # ``wait``, ``finish_async`` and ``post_continuation`` (called by op
    # starters), and the session hooks behind the shared methods below —
    # ``_reset_backend`` (event heap, clock, lock), ``_start_serving``,
    # ``_admitted``, ``_defer_level_flush``, ``_complete_level_group``,
    # ``_drain_events``, ``_stamp_clock`` and ``_stop_serving``.

    def _reset_backend(self) -> None:
        raise NotImplementedError

    # -- frame lifecycle ------------------------------------------------------

    def spawn_frame(self, subgraph, bindings: dict, key: tuple, depth: int,
                    on_complete: Callable, owner: Optional[Instance]) -> Frame:
        """Start executing a SubGraph body as a new frame (paper step 4)."""
        if depth > self.max_depth:
            raise EngineError(
                f"recursion limit exceeded (depth {depth}); "
                "check the base case of your recursive SubGraph")
        graph = subgraph.graph
        record = self.record and not getattr(graph, "is_backward_body", False)
        frame = self._make_frame(plan_for(graph), bindings, key=key,
                                 depth=depth, record=record,
                                 on_complete=on_complete, owner=owner,
                                 pin_locs=subgraph.output_locs)
        self._start_frame(frame)
        return frame

    def _make_frame(self, plan: FramePlan, bindings, key, depth, record,
                    on_complete, owner, pin_locs=None) -> Frame:
        frame = Frame(plan, bindings, key, depth, record, on_complete, owner)
        if pin_locs is not None and not record:
            # recording frames keep every slot alive for the backward
            # pass's cache reads; eager release only applies otherwise
            frame.release_counts = list(plan.release_counts(pin_locs))
        self.stats.frames_created += 1
        if depth > self.stats.max_frame_depth:
            self.stats.max_frame_depth = depth
        return frame

    @property
    def _locked(self):
        """The master lock as a context manager (a no-op on the virtual
        clock): for per-admission paths, not the per-op hot path."""
        return self._master_lock or _NO_LOCK

    def _over_budget(self) -> bool:
        """Is estimated live scratch above the configured budget?"""
        budget = self.memory_budget
        if budget is None:
            return False
        return (self._live_bytes
                + self.runtime.accumulators.retained_bytes) > budget

    def _start_frame(self, frame: Frame) -> None:
        seed_frame(frame, self._complete_instance, self._push_ready)

    def _complete_instance(self, inst: Instance, outputs: list,
                           store: bool = True) -> None:
        """Record an instance's outputs, resolve dependents, finish frames.

        Mutates master state: on locking executors every entry point
        (master completion paths, starters, ``submit_root``, seeding)
        already holds the master lock when this runs.

        Cancelled request trees quiesce here: a completion belonging to
        a cancelled root is dropped — no dependents are pushed, the
        frame never reaches ``remaining == 0``, so ``on_complete`` never
        fires.  This single chokepoint covers every completion path
        (sync kernels, fused batches, async returns) on all executors.
        """
        frame = inst.frame
        if frame.root.cancelled:
            return
        plan = frame.plan
        slot = inst.slot
        if len(outputs) != plan.n_outputs[slot]:
            op = inst.op
            raise EngineError(
                f"kernel of {op.name} ({op.op_type}) returned {len(outputs)} "
                f"values, expected {op.num_outputs}")
        frame.values[slot] = outputs
        track = self._track_live
        if track:
            scratch = plan.scratch_slots
            live = self._live_bytes
            if scratch[slot]:
                live += _values_bytes(outputs)
                self._live_bytes = live
            live += self.runtime.accumulators.retained_bytes
            if live > self.stats.peak_live_bytes:
                self.stats.peak_live_bytes = live
        if store and frame.record:
            mask = plan.store_masks[slot]
            for i, value in enumerate(outputs):
                if mask[i]:
                    self.runtime.cache.store(frame.key, plan.graph_id,
                                             inst.op.id, i, value)
        consumers = plan.consumer_slots[slot]
        if consumers:
            pending = frame.pending
            push = self._push_ready
            for consumer_slot in consumers:
                count = pending[consumer_slot]
                if count == 1:
                    pending[consumer_slot] = -1
                    push(Instance(plan.ops[consumer_slot], frame,
                                  consumer_slot))
                else:
                    pending[consumer_slot] = count - 1
        release = frame.release_counts
        if release is not None:
            # the inputs this op consumed were gathered at dispatch, so
            # a producer slot whose last consumer edge just completed
            # can drop its outputs now; pinned slots sit at -1 forever
            values = frame.values
            for src, _ in plan.input_locs[slot]:
                n = release[src] - 1
                release[src] = n
                if n == 0 and values[src] is not None:
                    if track and plan.scratch_slots[src]:
                        self._live_bytes -= _values_bytes(values[src])
                    values[src] = None
            if release[slot] == 0 and values[slot] is not None:
                if track and plan.scratch_slots[slot]:
                    self._live_bytes -= _values_bytes(values[slot])
                values[slot] = None
        frame.remaining -= 1
        if frame.remaining == 0:
            frame.on_complete(frame)
            if track:
                # whatever the frame still holds (pinned outputs, or the
                # whole list on recording frames) dies with the frame
                scratch = plan.scratch_slots
                freed = 0
                for i, v in enumerate(frame.values):
                    if v is not None and scratch[i]:
                        freed += _values_bytes(v)
                self._live_bytes -= freed

    def _complete_batch(self, members: list, outputs_list: list) -> None:
        """Scatter a fused batch's results; one bulk store for the cache.
        Runs on the loop's thread (under the master lock on the wall
        clock)."""
        entries = collect_cache_entries(members, outputs_list)
        if entries:
            self.runtime.cache.store_many(entries)
        for inst, outputs in zip(members, outputs_list):
            self._complete_instance(inst, outputs, store=False)

    # -- batching integration -------------------------------------------------

    @staticmethod
    def _batch_signature_of(inst: Instance, inputs: list, prefix) -> tuple:
        """The instance's full batch signature (memoized on the instance
        so a straggler requeued by a partial flush never recomputes it)."""
        signature = inst.sig
        if signature is None:
            signature = inst.sig = prefix + (value_signature(inputs),)
        return signature

    def _bucket_fused(self, bucket) -> bool:
        """Flush decision: run the fused kernel, or fall back to scalars."""
        return len(bucket) >= self._coalescer.policy.min_batch_for(
            bucket.signature)

    # -- root admission -------------------------------------------------------
    #
    # Every root enters through ``submit_root``, which injects it into
    # the *live* ready queue (so its ops interleave — and fuse — with
    # whatever is already in flight) or onto the compiled path; ``drain``
    # runs/awaits the loop until every admitted root has completed.
    # ``run`` is a one-request session over exactly that.  The serving
    # path (:class:`repro.runtime.server.RecursiveServer`) instead keeps
    # one session open across requests (``begin_serving`` …
    # ``end_serving``); clock and stats accumulate across all of it.

    def run(self, graph: Graph, fetches: Sequence[Tensor],
            feed_map: dict[int, Any],
            shape_profile=None) -> tuple[list, RunStats]:
        """Execute ``graph`` until all ``fetches`` are produced.

        A one-request serving session: the root is admitted under
        :data:`~repro.core.cache.ROOT_KEY` exactly like a served request
        (compiled when ``shape_profile`` allows), the loop runs until
        it completes, and the values come back in ``fetches`` order with
        the run's stats.  A failure raises the session's error after
        retiring the root, so the executor is idle either way.
        """
        self._reset_session()
        result: list = []
        handle = self.submit_root(graph, fetches, feed_map, ROOT_KEY,
                                  result.append, shape_profile)
        try:
            stats = self.drain()
        except BaseException:
            self.cancel_root(handle)
            raise
        return result[0], stats

    def begin_serving(self, error_listener: Optional[Callable] = None,
                      server=None) -> None:
        """Enter persistent serving mode (clears any previous run state).

        ``error_listener`` (optional) is called once if any kernel
        raises — root frames in flight at that point will never
        complete, so the server must fail their requests.
        On the virtual clock errors surface from ``drain()``, which
        invokes the listener before raising.  ``server`` owns the engine
        until ``end_serving``: serving again before that raises
        ``EngineError`` naming it, and leaves it running.
        """
        if self._server is not None:
            raise EngineError(
                f"{self._server!r} is still open on this session: close "
                "it before serving again")
        self._reset_session(error_listener)
        self._start_serving()
        self._server = server if server is not None else "a serving session"

    def submit_root(self, graph: Graph, fetches: Sequence[Tensor],
                    feed_map: dict[int, Any], key: tuple,
                    on_complete: Callable, shape_profile=None) -> Frame:
        """Admit a new root instance into the live ready queue.

        The fetch set's reachable ops become a fresh depth-0 frame whose
        ready ops join the one shared queue — inner operations of the new
        request coalesce with in-flight requests' ops exactly like
        sibling recursive calls.  ``on_complete`` receives the fetch
        values (in ``fetches`` order) when the root frame finishes.
        The pruned root plan is memoized per fetch set, so repeat
        requests skip the reachability walk entirely.  Thread-safe on
        the wall clock (admission takes the master lock).

        ``shape_profile`` (per-call-site tree shapes, in op-id order)
        routes the root through the compiled level-plan fast path when
        it is eligible (:mod:`repro.runtime.level_plan`): no frames are
        spawned, and concurrent same-profile roots share one wavefront.
        Ineligible roots — and profiles with ``None`` holes — fall back
        to the dynamic path below, counted in
        ``RunStats.level_plan_fallbacks``.
        """
        fetch_list = list(fetches)
        plan = plan_for_fetches(graph, {t.op for t in fetch_list})
        if shape_profile is not None:
            handle = self._try_submit_level_root(
                graph, plan, fetch_list, feed_map, key, on_complete,
                shape_profile)
            if handle is not None:
                return handle
        pins = tuple((t.op.id, t.index) for t in fetch_list)

        def frame_done(frame):
            values = [densify(frame.value_of(t)) for t in fetch_list]
            self._open_roots -= 1
            on_complete(values)
            cv = self._roots_cv
            if cv is not None:
                cv.notify_all()

        with self._locked:
            self._open_roots += 1
            frame = self._make_frame(plan, feed_map, key=key, depth=0,
                                     record=False, on_complete=frame_done,
                                     owner=None, pin_locs=pins)
            self._start_frame(frame)
        self._admitted()
        return frame

    # -- compiled level-plan path ---------------------------------------------
    #
    # When the caller knows the tree shape at admission, the recursion
    # lowers to a fixed wavefront schedule (repro.runtime.level_plan):
    # the definition compiles once into a template, and the pending runs
    # of one template — whatever their shapes — flush as one forest.
    # The scheduler owns the admission/merge/complete bookkeeping so both
    # clocks share it; the clock says where the flush runs
    # (`_defer_level_flush`) and when the sweep's runs complete
    # (`_complete_level_group`: the virtual clock at its modeled cost).

    def _note_fallback(self, reason: str) -> None:
        """Count one profiled admission that runs dynamically, under the
        reason it could not be compiled."""
        with self._locked:
            self.stats.level_plan_fallbacks += 1
            reasons = self.stats.level_plan_fallback_reasons
            reasons[reason] = reasons.get(reason, 0) + 1

    def _admit_profile(self, graph, plan, fetch_list, shape_profile):
        """Resolve one profiled root admission against its template.

        ``(tpl, lin, fetch_refs)`` — fully determined, of any depth: the
        whole root runs compiled, instantiated with whatever else
        flushes with it.  ``None`` — dynamic fallback, already counted
        with its reason (a profile with ``None`` holes is one of them).
        The profile is walked once.
        """
        from .level_plan import linearise, template_for
        tpl = template_for(graph, plan, self.record, stats=self.stats)
        if isinstance(tpl, str):
            return self._note_fallback(tpl)
        lin = linearise(tpl, shape_profile)
        if isinstance(lin, str):
            return self._note_fallback(lin)
        if lin.max_depth > self.max_depth:
            return self._note_fallback("max_depth exceeded")
        refs, index_of = tpl.root.frames[0].refs, plan.index_of
        try:
            fetch_refs = [refs[index_of[t.op.id]][t.index]
                          for t in fetch_list]
        except (KeyError, IndexError):
            return self._note_fallback("fetch outside the root plan")
        return tpl, lin, fetch_refs

    def _try_submit_level_root(self, graph, plan, fetch_list, feed_map,
                               key, on_complete, shape_profile):
        """Admission onto the compiled path.

        Returns a ``_LevelRun`` handle when the root is compiled, or None
        for fallback.
        """
        admitted = self._admit_profile(graph, plan, fetch_list,
                                       shape_profile)
        if admitted is None:
            return None
        run = _LevelRun(admitted[0], admitted[1], key, feed_map,
                        admitted[2], on_complete)
        with self._locked:
            self.stats.level_plan_hits += 1
            self._open_roots += 1
            self._pending_level_runs.append(run)
        self._defer_level_flush()
        self._admitted()
        return run

    def _flush_level_runs(self) -> None:
        """Drain ``_pending_level_runs``, batching same-plan runs.  Runs
        only on the dispatching thread; admissions made meanwhile append
        and are picked up by the next swap."""
        while True:
            with self._locked:
                batch, self._pending_level_runs = (
                    self._pending_level_runs, [])
            if not batch:
                return
            self._run_level_batch(batch)

    def _run_level_batch(self, batch) -> None:
        """Flush pending compiled runs: one forest — one instantiation
        lookup, one sweep — per template, whatever the runs' shapes.
        Takes the master lock only to complete the runs, so a serving
        master flushes with it released."""
        from .level_plan.forest import instance_for
        from .level_plan.sweep import execute_level_plan
        forests: dict = {}
        for run in batch:
            if not run.cancelled:
                forests.setdefault(id(run.tpl), []).append(run)
        for runs in forests.values():
            try:
                lp = instance_for(runs[0].tpl, [run.lin for run in runs],
                                  stats=self.stats)
                results = execute_level_plan(self, lp, runs)
            except Exception as exc:  # noqa: BLE001 - session failure path
                self._fail(exc)
                return
            self._complete_level_group(lp, runs, results)

    def _complete_level_run(self, run, values) -> None:
        """Retire one compiled root (mirrors the dynamic ``frame_done``:
        bookkeeping and the completion callback under the master lock)."""
        run.lin = run.feed = None  # a kept ticket holds the run, not these
        with self._locked:
            if run.cancelled or run.done:
                return
            run.done = True
            self._open_roots -= 1
            run.on_complete(values)
            cv = self._roots_cv
            if cv is not None:
                cv.notify_all()

    def _fail(self, exc: Exception, op: Optional[Operation] = None) -> None:
        """Fail the session with ``exc`` (the first failure wins), as
        :meth:`_engine_error` wraps it.  On the wall clock this wakes
        drain waiters and delivers to the serving error listener."""
        err = self._engine_error(exc, op)
        lock = self._master_lock
        if lock is None:
            if self._error is None:
                self._error = err
            return  # virtual clock: drain() delivers + raises
        listener = None
        with lock:
            if self._error is None:
                self._error = err
                listener = self._error_listener
                self._error_delivered = listener is not None
            self._roots_cv.notify_all()
        if listener is not None:
            listener(err)

    def cancel_root(self, frame: Frame) -> bool:
        """Retire a root frame mid-flight (request cancellation/timeout).

        Marks the tree cancelled, evicts its pending coalescer-bucket
        members, and releases the root from ``_open_roots`` so ``drain``
        does not wait for it.  Ready-queue instances and kernels already
        executing are dropped lazily: dispatch loops skip cancelled
        instances and :meth:`_complete_instance` discards their
        completions, so the tree quiesces without new work.  The frame's
        plan slots and values become garbage the moment the caller drops
        its references (nothing pins a cancelled frame).

        Returns False — and does nothing — when the root already
        completed or was already cancelled: completion and cancellation
        race atomically under the master lock, exactly one wins.
        """
        with self._locked:
            return self._cancel_root_locked(frame)

    def _cancel_root_locked(self, frame: Frame) -> bool:
        if getattr(frame, "is_level_run", False):
            # compiled-path handle: no frame tree, no coalescer state —
            # the executing sweep drops it at the next level boundary
            if frame.cancelled or frame.done:
                return False
            frame.cancelled = True
            self._open_roots -= 1
            cv = self._roots_cv
            if cv is not None:
                cv.notify_all()
            return True
        root = frame.root
        if root.cancelled or root.remaining == 0:
            return False
        root.cancelled = True
        self._open_roots -= 1
        if self._coalescer is not None:
            self._coalescer.discard_root(root)
        cv = self._roots_cv
        if cv is not None:
            cv.notify_all()
        return True

    def _new_stats(self) -> None:
        """Fresh stats for a run or serving session.  The cache's
        counters are lifetime totals: snapshot them, so that
        :meth:`_book_cache` books what this run stored and looked up."""
        cache = self.runtime.cache
        self._cache_base = cache.stores, cache.lookups
        self.stats = RunStats()

    def _book_cache(self) -> None:
        cache, (stores, lookups) = self.runtime.cache, self._cache_base
        self.stats.cache_stores = cache.stores - stores
        self.stats.cache_lookups = cache.lookups - lookups

    def drain(self) -> RunStats:
        """Complete all admitted work (and, on the virtual clock, all
        scheduled callbacks); returns the session-cumulative stats.
        Raises the engine error if the session failed."""
        self._drain_events()
        # stats reflect the session as far as it got, error or not
        stats = self.stats
        stats.wall_time = time.perf_counter() - self._serve_wall0
        self._stamp_clock(stats)
        self._book_cache()
        if self._error is not None:
            error, self._error = self._error, None
            self._fatal_error = error
            if self._error_listener is not None and not self._error_delivered:
                # let the server fail outstanding tickets before we raise
                self._error_listener(error)
            raise error
        if self._fatal_error is not None and self._open_roots:
            # repeat drain after a failure: the outstanding roots will
            # never complete, so re-raise instead of waiting forever
            raise self._fatal_error
        return stats

    def end_serving(self) -> RunStats:
        """Leave serving mode (stops a serving master; returns stats)."""
        self._stop_serving()
        self._server = None
        return self.stats

    # -- errors ---------------------------------------------------------------

    @staticmethod
    def _wrap_error(exc: Exception, op: Operation) -> EngineError:
        err = EngineError(
            f"error executing {op.name} ({op.op_type}) in graph "
            f"{op.graph.name}: {exc}")
        err.__cause__ = exc
        return err

    @staticmethod
    def _engine_error(exc: Exception,
                      op: Optional[Operation] = None) -> EngineError:
        """``exc`` as a session error: an ``EngineError`` passes
        through; anything else is wrapped with ``op``'s context when
        there is one, else under its own message."""
        if isinstance(exc, EngineError):
            return exc
        if op is not None:
            return SchedulerCore._wrap_error(exc, op)
        err = EngineError(str(exc))
        err.__cause__ = exc
        return err


# -- executor names -----------------------------------------------------------

#: the names ``engine=`` accepts: the one executor loop on either clock
_EXECUTORS = ("event", "workerpool")


def resolve_executor(name: str) -> type:
    """The executor class ``name`` picks (raises ValueError)."""
    if name not in _EXECUTORS:
        raise ValueError(
            f"unknown engine {name!r}; registered executors: "
            f"{', '.join(_EXECUTORS)}")
    from .engine import EventEngine
    from .workerpool import WorkerPoolEngine
    return EventEngine if name == "event" else WorkerPoolEngine


def available_executors() -> list[str]:
    """The executor names, sorted."""
    return list(_EXECUTORS)
