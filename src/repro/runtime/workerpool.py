"""Worker-pool executor backend (``engine="workerpool"``).

The wall-clock backend: *scheduling* is centralized in one master (like
the event engine) while *kernel execution* runs on a pool of worker
threads.  The division of labour:

* the **master** — the calling thread during ``run``, a dedicated
  thread while serving — owns all frame state.  It applies completions,
  resolves dependents, and drains the entire ready wavefront into the
  shared :class:`~repro.runtime.batching.Coalescer` before flushing, so
  fused buckets reach event-engine widths;
* the **kernel pool** executes the flushed buckets (and non-batchable
  scalar kernels) off-thread: independent buckets — different batch
  signatures ready in the same wavefront — run *concurrently*, since
  numpy kernels release the GIL.  Async starters (frame spawns) mutate
  master state and therefore run in the master under the lock.

Workers never touch the master lock: they pull ``(kernel, inputs)``
tasks and push results, so lock traffic is one acquisition per
completion batch.  Values and gradients are bit-identical to the event
engine (batched kernels are value-preserving and the gradient
accumulator is canonically ordered); completion *order* is
nondeterministic.

One master loop serves both modes, with a different stop predicate:
``run`` drives it on the calling thread until its root completes, a
serving session on a dedicated thread until ``end_serving``.  A
compiled level-plan sweep runs on the master, block after block: a
``run`` starts the kernel pool only when it admits a dynamic root (a
serving session keeps it up throughout).  See ARCHITECTURE.md for the
executor recipe this backend instantiates.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Optional

from .batching import BatchPolicy
from .cost_model import CostModel
from .scheduler import (Instance, SchedulerCore, _MemoryBudgetReady,
                        prune_cancelled, register_executor)
from .stats import RunStats

__all__ = ["WorkerPoolEngine"]

_STOP = object()
#: poked through the results queue to wake an idle master (admission,
#: shutdown)
_WAKE = object()


class WorkerPoolEngine(SchedulerCore):
    """Centralized-master executor with a concurrent kernel pool.

    ``num_workers`` sizes the kernel pool; the master is not counted
    (it schedules, it does not execute sync kernels).  See
    :class:`~repro.runtime.scheduler.SchedulerCore` for the shared
    knobs; ``scheduler="depth"`` is accepted but the ready queue is
    FIFO.
    """

    def __init__(self, runtime, num_workers: int = 4,
                 cost_model: Optional[CostModel] = None, record: bool = False,
                 scheduler: str = "fifo", max_depth: int = 5000,
                 batching: bool = False,
                 batch_policy: Optional[BatchPolicy] = None,
                 memory_budget: Optional[int] = None,
                 track_live_bytes: bool = False):
        super().__init__(runtime, num_workers=num_workers,
                         cost_model=cost_model, record=record,
                         scheduler=scheduler, max_depth=max_depth,
                         batching=batching, batch_policy=batch_policy,
                         memory_budget=memory_budget,
                         track_live_bytes=track_live_bytes)
        #: kernel-pool threads; empty while no pool runs, so stopping a
        #: pool that never started is a no-op
        self._pool: list = []

    # -- SchedulerCore executor hooks ----------------------------------------

    @property
    def now(self) -> float:
        return time.perf_counter()

    def post_continuation(self, delay: float, fn: Callable) -> None:
        # Wall-clock mode does not simulate overheads; run immediately
        # (always called from master context, under the lock).
        fn()

    def finish_async(self, inst: Instance, outputs: list) -> None:
        with self._master_lock:
            self._complete_instance(inst, outputs)

    def _reset_backend(self) -> None:
        self._master_lock = threading.RLock()
        self._roots_cv = threading.Condition(self._master_lock)
        self._ready = (_MemoryBudgetReady(self)
                       if self.memory_budget is not None else deque())
        self._push_ready = self._ready.append
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._inflight = 0  # pool tasks outstanding (master-only counter)

    def _start_serving(self) -> None:
        self._stop_master = False
        self._start_pool()
        self._master_thread = threading.Thread(
            target=self._master_loop, args=(self._serving_done,),
            daemon=True)
        self._master_thread.start()

    def _drive_run(self) -> None:
        # the caller's thread is the master until the root completes
        try:
            self._master_loop(lambda: not self._open_roots
                              or self._error is not None)
        finally:
            self._stop_pool()

    def _drain_events(self) -> None:
        # block until every admitted root completed or the session
        # failed (also by an earlier drain); short waits keep the caller
        # responsive to the SIGALRM test watchdog
        with self._roots_cv:
            while (self._open_roots and self._error is None
                   and self._fatal_error is None):
                self._roots_cv.wait(0.05)

    def _stamp_clock(self, stats: RunStats) -> None:
        stats.virtual_time = stats.wall_time

    def _stop_serving(self) -> None:
        self._stop_master = True
        self._results.put(_WAKE)
        self._master_thread.join()
        self._stop_pool()
        self.stats.wall_time = time.perf_counter() - self._serve_wall0
        self.stats.virtual_time = self.stats.wall_time

    def _admitted(self, handle) -> None:
        # a dynamic root needs the kernel pool: a serving session has it
        # up already, a run starts it here (a compiled root never does)
        if not self._pool and not getattr(handle, "is_level_run", False):
            self._start_pool()
        # submit_root may run on any thread while the serving master
        # sleeps on the results queue: poke it so admission latency is
        # bounded by the queue wake-up, not the idle poll.
        self._results.put(_WAKE)

    # -- master ---------------------------------------------------------------

    def _start_pool(self) -> None:
        self._pool = [threading.Thread(target=self._kernel_worker,
                                       daemon=True)
                      for _ in range(self.num_workers)]
        for w in self._pool:
            w.start()

    def _stop_pool(self) -> None:
        for _ in self._pool:
            self._tasks.put(_STOP)
        for w in self._pool:
            w.join()
        self._pool = []

    def _master_loop(self, stop: Callable[[], bool]) -> None:
        """The master: apply completions and dispatch until ``stop()``."""
        while True:
            progressed = self._master_step()
            if stop():
                return
            if progressed:
                continue
            try:
                item = self._results.get(timeout=0.02)
            except queue.Empty:
                continue
            if item is not _WAKE:
                self._apply(item)

    def _serving_done(self) -> bool:
        """The serving master's stop predicate: end_serving was called
        and nothing is in flight any more (or the session failed)."""
        if not self._stop_master:
            return False
        if self._error is not None or self._fatal_error is not None:
            return True
        with self._master_lock:
            return (self._inflight == 0 and not self._ready
                    and (self._coalescer is None
                         or len(self._coalescer) == 0))

    def _schedule_level_flush(self) -> None:
        # Compiled-root admissions (submit_root, on any thread) defer the
        # sweep to the master loop: it shares stats and the value cache
        # with the dynamic path, and a sweep error delivers to the
        # serving error listener outside the lock.
        self._level_flush_wanted = True
        self._results.put(_WAKE)

    def _master_step(self) -> bool:
        """Apply every queued completion, then dispatch ready work."""
        progressed = False
        if self._level_flush_wanted:
            self._level_flush_wanted = False
            self._flush_level_runs()
            progressed = True
        while True:
            try:
                item = self._results.get_nowait()
            except queue.Empty:
                break
            if item is not _WAKE:
                self._apply(item)
            progressed = True
        if self._error is None:
            progressed = self._dispatch() or progressed
        return progressed

    def _dispatch(self) -> bool:
        """Drain the ready wavefront; flush all pending buckets after.

        Scalar sync kernels and fused buckets go to the kernel pool;
        async starters (frame spawns) run here under the master lock.
        """
        lock = self._master_lock
        coalescer = self._coalescer
        progressed = False
        while self._error is None and self._fatal_error is None:
            with lock:
                try:
                    inst = self._ready.popleft()
                except IndexError:
                    break
                frame = inst.frame
                if frame.root.cancelled:
                    # request cancelled while the instance sat ready
                    progressed = True
                    continue
                plan = frame.plan
                slot = inst.slot
                values = frame.values
                inputs = [values[s][i] for s, i in plan.input_locs[slot]]
                full = None
                batchable = False
                if coalescer is not None:
                    prefix = plan.sig_prefixes[slot]
                    if prefix is not None:
                        batchable = True
                        full = coalescer.offer(
                            self._batch_signature_of(inst, inputs, prefix),
                            inst, inputs)
            progressed = True
            if batchable:
                if full is not None:
                    self._submit_bucket(full)
                continue
            definition = plan.defs[slot]
            if definition.is_async:
                spawn_exc = None
                with lock:
                    try:
                        plan.starters[slot](self, inst, inputs)
                        self.stats.note_op(inst.op.op_type, 0.0)
                    except Exception as exc:
                        spawn_exc = exc
                if spawn_exc is not None:
                    # outside the lock: _fail delivers to the
                    # serving error listener, which takes the server lock
                    self._fail(spawn_exc, inst.op)
            else:
                self._inflight += 1
                self._tasks.put((inst, inputs))
        # wavefront drained: flush every pending bucket — independent
        # signatures land on the pool together and execute concurrently
        if coalescer is not None:
            while self._error is None and self._fatal_error is None:
                with lock:
                    bucket = coalescer.pop()
                if bucket is None:
                    break
                self._submit_bucket(bucket)
                progressed = True
        return progressed

    def _submit_bucket(self, bucket) -> None:
        if not prune_cancelled(bucket):
            return
        with self._master_lock:
            fused = self._bucket_fused(bucket)
        first = bucket.instances[0]
        definition = first.frame.plan.defs[first.slot]
        if definition.is_async:
            # starters mutate master state: the shared fused-spawn path
            # runs them in the master under the lock
            try:
                self._spawn_async_bucket(bucket, fused)
            except Exception as exc:
                self._fail(exc, first.op)
            return
        self._inflight += 1
        self._tasks.put((bucket, fused))

    def _apply(self, item) -> None:
        """Apply one pool completion to master state."""
        self._inflight -= 1
        kind = item[0]
        if kind == "error":
            _, op, exc = item
            self._fail(exc, op)
            return
        try:
            if kind == "single":
                _, inst, outputs = item
                with self._master_lock:
                    self._complete_instance(inst, outputs)
                    self.stats.note_op(inst.op.op_type, 0.0)
            else:
                _, bucket, outputs_list, fused = item
                self._complete_batch(bucket.instances, outputs_list)
                with self._master_lock:
                    if fused:
                        self.stats.note_batch(bucket.op_type, len(bucket),
                                              0.0, bucket.signature)
                    else:
                        for inst in bucket.instances:
                            self.stats.note_op(inst.op.op_type, 0.0)
        except Exception as exc:
            failed = item[1]
            op = (failed.instances[0].op if kind == "bucket"
                  else failed.op)
            self._fail(exc, op)

    # -- kernel pool -----------------------------------------------------------

    def _kernel_worker(self) -> None:
        """Pool worker: executes kernels only, never touches frames."""
        while True:
            task = self._tasks.get()
            if task is _STOP:
                return
            self._results.put(self._execute_task(*task))

    def _execute_task(self, payload, extra) -> tuple:
        """Execute one pool task and return its completion item, exactly
        what :meth:`_apply` consumes: ``("single", inst, outputs)``,
        ``("bucket", bucket, outputs_list, fused)`` or ``("error", op,
        exc)``."""
        runtime = self.runtime
        if isinstance(payload, Instance):
            inst, inputs = payload, extra
            try:
                definition = inst.frame.plan.defs[inst.slot]
                ctx = inst.frame.ctx or inst.frame.exec_context(runtime)
                return ("single", inst, definition.kernel(inst.op, inputs,
                                                          ctx))
            except Exception as exc:
                return ("error", inst.op, exc)
        bucket, fused = payload, extra
        first = bucket.instances[0]
        try:
            definition = first.frame.plan.defs[first.slot]
            if fused:
                ops = [inst.op for inst in bucket.instances]
                ctxs = [inst.frame.ctx
                        or inst.frame.exec_context(runtime)
                        for inst in bucket.instances]
                outputs_list = definition.batched_kernel(
                    ops, bucket.inputs, ctxs)
                self._check_batch_result(bucket, outputs_list)
            else:
                outputs_list = [
                    definition.kernel(
                        inst.op, inputs,
                        inst.frame.ctx
                        or inst.frame.exec_context(runtime))
                    for inst, inputs in zip(bucket.instances,
                                            bucket.inputs)]
            return ("bucket", bucket, outputs_list, fused)
        except Exception as exc:
            return ("error", first.op, exc)


register_executor("workerpool", WorkerPoolEngine)
