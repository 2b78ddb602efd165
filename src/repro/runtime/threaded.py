"""Wall-clock thread-pool executor backend (``engine="threaded"``).

The frame lifecycle lives in :class:`~repro.runtime.scheduler
.SchedulerCore`; this backend contributes only the wall-clock execution
mechanics: a pool of ``threading`` workers that pull ready instances
from one shared queue, execute kernels *outside* the master lock (so
numpy work can overlap), and report completions back under it.  It
matches the :class:`~repro.runtime.engine.EventEngine` scheduling
semantics exactly (same frames, same ready-queue discipline, same async
control flow) but reports host wall-clock time instead of virtual time
— used to validate that the virtual-time backend computes identical
values, and to demonstrate the architecture on real threads.

Dynamic micro-batching (``batching=True`` / ``"adaptive"``): batchable
ready operations are offered to the shared
:class:`~repro.runtime.batching.Coalescer` instead of executing
immediately.  A bucket flushes when it is full, when the worker that
filed it finds the ready queue empty (wavefront drained), or — since
real threads cannot see the future — when a worker's idle ``get`` times
out after ``BatchPolicy.flush_timeout`` seconds, which bounds how long
a partially-filled bucket can defer its members and rules out deadlock
(per-signature deadlines come from the policy; expiry pops an amortized
O(1) deadline heap).  Training batches too: fused ``InvokeGrad``
buckets run every member's starter under the master lock, batched
``CacheLookup`` kernels issue one bulk sharded-cache read outside it,
and a fused batch's recorded values are stored through one bulk write.

Serving (continuous batching): ``begin_serving`` keeps the worker pool
alive across requests so a :class:`~repro.runtime.server.RecursiveServer`
can admit root instances into the live ready queue from any thread
(``submit_root``); completion flows through per-root callbacks and
``end_serving`` stops the pool.  See :mod:`repro.runtime.server`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Optional, Sequence

from repro.core.cache import ROOT_KEY
from repro.graph.graph import Graph
from repro.graph.tensor import Tensor

from .batching import BatchPolicy, Coalescer
from .cost_model import CostModel
from .plan import plan_for_fetches
from .scheduler import (EngineError, Instance, SchedulerCore, densify,
                        prune_cancelled, register_executor)
from .stats import RunStats

__all__ = ["ThreadedEngine"]

_SENTINEL = object()


class ThreadedEngine(SchedulerCore):
    """Thread-pool executor with the Figure-4 master/worker structure.

    ``scheduler="depth"`` is accepted for interface parity but the
    worker queue is FIFO; see :class:`~repro.runtime.scheduler
    .SchedulerCore` for the shared knobs.
    """

    def __init__(self, runtime, num_workers: int = 4,
                 cost_model: Optional[CostModel] = None, record: bool = False,
                 scheduler: str = "fifo", max_depth: int = 5000,
                 batching: bool = False,
                 batch_policy: Optional[BatchPolicy] = None,
                 memory_budget: Optional[int] = None,
                 track_live_bytes: bool = False):
        # the budget's deep-first *reordering* needs a centralized
        # dispatch point, which this backend's free-running workers do
        # not have; eager slot release and live-bytes tracking apply
        super().__init__(runtime, num_workers=num_workers,
                         cost_model=cost_model, record=record,
                         scheduler=scheduler, max_depth=max_depth,
                         batching=batching, batch_policy=batch_policy,
                         memory_budget=memory_budget,
                         track_live_bytes=track_live_bytes)

    # -- SchedulerCore executor hooks ----------------------------------------

    @property
    def now(self) -> float:
        return time.perf_counter()

    def post_continuation(self, delay: float, fn: Callable) -> None:
        # Wall-clock mode does not simulate overheads; run immediately.
        fn()

    def finish_async(self, inst: Instance, outputs: list) -> None:
        with self._master_lock:
            self._complete_instance(inst, outputs)

    def _start_serving(self) -> None:
        self._begin_session()
        self._serve_workers = [threading.Thread(target=self._worker,
                                                daemon=True)
                               for _ in range(self.num_workers)]
        for w in self._serve_workers:
            w.start()

    def _drain_events(self) -> None:
        self._wait_for_roots()

    def _stamp_clock(self, stats: RunStats) -> None:
        self._stamp_wall_clock(stats)

    def _stop_serving(self) -> None:
        for _ in self._serve_workers:
            self._queue.put(_SENTINEL)
        for w in self._serve_workers:
            w.join()
        self._serve_workers = []
        self.stats.wall_time = time.perf_counter() - self._serve_wall0
        self.stats.virtual_time = self.stats.wall_time

    # -- run ------------------------------------------------------------------

    def run(self, graph: Graph, fetches: Sequence[Tensor],
            feed_map: dict[int, Any],
            shape_profile=None) -> tuple[list, RunStats]:
        wall0 = time.perf_counter()
        self._begin_session()
        if shape_profile is not None:
            hit = self._try_level_run(graph, list(fetches), feed_map,
                                      shape_profile)
            if hit is not None:
                values, _ = hit
                self.stats.wall_time = time.perf_counter() - wall0
                self.stats.virtual_time = self.stats.wall_time
                self._book_cache()
                return values, self.stats
        plan = plan_for_fetches(graph, {t.op for t in fetches})

        def root_done(frame):
            self._done.set()

        with self._master_lock:
            root = self._make_frame(plan, feed_map, key=ROOT_KEY, depth=0,
                                    record=False, on_complete=root_done,
                                    owner=None,
                                    pin_locs=tuple((t.op.id, t.index)
                                                   for t in fetches))
            self._start_frame(root)
            if root.remaining == 0:
                self._done.set()

        workers = [threading.Thread(target=self._worker, daemon=True)
                   for _ in range(self.num_workers)]
        for w in workers:
            w.start()
        self._done.wait()
        for _ in workers:
            self._queue.put(_SENTINEL)
        for w in workers:
            w.join()
        if self._error is not None:
            raise self._error
        values = [densify(root.value_of(t)) for t in fetches]
        self.stats.wall_time = time.perf_counter() - wall0
        self.stats.virtual_time = self.stats.wall_time
        self._book_cache()
        return values, self.stats

    # -- internals ------------------------------------------------------------

    def _begin_session(self) -> None:
        """Fresh master state: lock, work queue, coalescer, stats."""
        self._master_lock = threading.RLock()
        self._roots_cv = threading.Condition(self._master_lock)
        self._queue: queue.Queue = queue.Queue()
        self._push_ready = self._queue.put
        self._done = threading.Event()
        self._error = None
        self._error_listener = None
        self._error_delivered = False
        self._coalescer = (Coalescer(self.batch_policy) if self.batching
                           else None)
        self._live_bytes = 0
        self._pending_level_runs = []
        self._level_flushing = False
        self._level_flush_wanted = False
        self._root_site_map = None
        self._new_stats()

    def _execute_level_group(self, lp, runs) -> None:
        # Sweeps flush on the admitting thread (a submit_root caller, or
        # a worker running an Invoke starter) while free-running workers
        # mutate stats and frame state concurrently: serialize the sweep
        # itself under the master lock (reentrant for the starter case)
        # and leave completion/failure to the base paths, which manage
        # the lock themselves.
        from .level_plan import execute_level_plan
        try:
            with self._master_lock:
                results = execute_level_plan(self, lp, runs)
        except Exception as exc:  # noqa: BLE001 - session failure path
            self._fail_level(exc)
            return
        for run, values in zip(runs, results):
            if values is not None:
                self._complete_level_run(run, values)

    def _worker(self) -> None:
        while True:
            if self._coalescer is None:
                inst = self._queue.get()
            else:
                try:
                    inst = self._queue.get(
                        timeout=self.batch_policy.flush_timeout)
                except queue.Empty:
                    # No new ready work within the flush timeout: release
                    # any bucket that has aged past the policy's deadline.
                    # This is the liveness guarantee — once the queue goes
                    # quiet, a held bucket waits at most ~flush_timeout
                    # (one idle poll) before some worker expires it.
                    with self._master_lock:
                        bucket = self._coalescer.pop_expired(
                            time.perf_counter())
                    if bucket is not None:
                        self._run_bucket(bucket)
                    continue
            if inst is _SENTINEL:
                return
            if self._error is not None or self._fatal_error is not None:
                # failed session (including one whose error a drain()
                # already raised): never resume doomed work
                continue
            if inst.frame.root.cancelled:
                # request cancelled while the instance sat in the queue
                continue
            op = inst.op
            frame = inst.frame
            plan = frame.plan
            slot = inst.slot
            definition = plan.defs[slot]
            try:
                values = frame.values
                inputs = [values[s][i] for s, i in plan.input_locs[slot]]
                if self._coalescer is not None:
                    # async ops batch too (fused frame spawns) when they
                    # carry a batched-async registration
                    prefix = plan.sig_prefixes[slot]
                    if prefix is not None:
                        signature = self._batch_signature_of(inst, inputs,
                                                             prefix)
                        self._offer_to_batch(signature, inst, inputs)
                        continue
                if definition.is_async:
                    with self._master_lock:
                        plan.starters[slot](self, inst, inputs)
                else:
                    # benign race: two workers may build the frame's
                    # context concurrently; ExecContext is stateless
                    ctx = frame.ctx or frame.exec_context(self.runtime)
                    outputs = definition.kernel(op, inputs, ctx)
                    with self._master_lock:
                        self._complete_instance(inst, outputs)
                with self._master_lock:
                    self.stats.note_op(op.op_type, 0.0)
            except Exception as exc:
                self._fail(op, exc)

    def _fail(self, op, exc: Exception) -> None:
        listener = None
        with self._master_lock:
            if self._error is None:
                self._error = self._wrap_error(exc, op)
                listener = self._error_listener
                self._error_delivered = listener is not None
            self._done.set()
            if self._roots_cv is not None:
                self._roots_cv.notify_all()
        if listener is not None:
            # outside the master lock: the serving error listener takes
            # the server's own lock to fail pending requests
            listener(self._error)

    # -- micro-batching --------------------------------------------------------

    def _offer_to_batch(self, signature, inst: Instance,
                        inputs: list) -> None:
        """File a batchable ready op; flush when full or queue drained."""
        with self._master_lock:
            full = self._coalescer.offer(signature, inst, inputs,
                                         time.perf_counter())
        if full is not None:
            self._run_bucket(full)
            return
        if self._queue.empty():
            # current wavefront drained: flush rather than sit on work
            with self._master_lock:
                bucket = self._coalescer.pop()
            if bucket is not None:
                self._run_bucket(bucket)

    def _run_bucket(self, bucket) -> None:
        """Execute one bucket: fused kernel outside the lock, then scatter."""
        if not prune_cancelled(bucket):
            return
        first = bucket.instances[0]
        definition = first.frame.plan.defs[first.slot]
        ops = [inst.op for inst in bucket.instances]
        with self._master_lock:  # the policy's state is lock-guarded
            fused = self._bucket_fused(bucket)
        try:
            if definition.is_async:
                # starters mutate master state: the shared fused-spawn
                # path runs them under the lock like the scalar path
                self._spawn_async_bucket(bucket, fused)
                return
            if not fused:
                outputs_list = []
                for inst, inputs in zip(bucket.instances, bucket.inputs):
                    ctx = (inst.frame.ctx
                           or inst.frame.exec_context(self.runtime))
                    outputs_list.append(definition.kernel(inst.op, inputs,
                                                          ctx))
            else:
                ctxs = [inst.frame.ctx
                        or inst.frame.exec_context(self.runtime)
                        for inst in bucket.instances]
                outputs_list = definition.batched_kernel(ops, bucket.inputs,
                                                         ctxs)
                self._check_batch_result(bucket, outputs_list)
            self._complete_batch(bucket.instances, outputs_list)
            with self._master_lock:
                if fused:
                    self.stats.note_batch(bucket.op_type, len(bucket), 0.0,
                                          bucket.signature)
                else:
                    for inst in bucket.instances:
                        self.stats.note_op(inst.op.op_type, 0.0)
        except Exception as exc:
            self._fail(ops[0], exc)


register_executor("threaded", ThreadedEngine)
