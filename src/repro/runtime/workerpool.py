"""Worker-pool executor backend (``engine="workerpool"``).

The wall-clock backend: one master — the calling thread during ``run``,
a dedicated thread while serving — owns all frame state, schedules like
the event engine and executes every kernel itself.  It drains the whole
ready wavefront into the shared :class:`~repro.runtime.batching
.Coalescer` before flushing, so fused buckets reach event-engine
widths; that width (and the compiled sweep's) is this backend's
parallelism.  The kernel thread pool it is named after never beat the
master executing kernels inline and was removed (ARCHITECTURE.md).

A kernel (scalar, fused or straggler bucket) runs outside the master
lock and its completion under it, so a client thread admitting a request
waits for at most one completion.  Async starters (frame spawns) mutate
master state and run under the lock.  Values and gradients are
bit-identical to the event engine.

One master loop serves both modes: ``run`` drives it on the calling
thread until its root completes, a serving session on a dedicated thread
until ``end_serving``; an idle serving master sleeps on one
:class:`threading.Event`.  See ARCHITECTURE.md for the executor recipe.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .scheduler import (Instance, SchedulerCore, prune_cancelled,
                        register_executor)
from .stats import RunStats

__all__ = ["WorkerPoolEngine"]


class WorkerPoolEngine(SchedulerCore):
    """Centralized-master executor on the wall clock.

    See :class:`~repro.runtime.scheduler.SchedulerCore` for the shared
    knobs.  ``num_workers`` is accepted and ignored: the master executes
    every kernel itself.
    """

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
        #: set when an idle serving master has something to do
        self._wake = threading.Event()

    def _start_serving(self) -> None:
        self._stop_master = False
        self._master_thread = threading.Thread(
            target=self._master_loop, args=(self._serving_done,),
            daemon=True)
        self._master_thread.start()

    def _drive_run(self) -> None:
        self._master_loop(lambda: not self._open_roots
                          or self._error is not None)

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
        self._wake.set()
        self._master_thread.join()
        self.stats.wall_time = time.perf_counter() - self._serve_wall0
        self.stats.virtual_time = self.stats.wall_time

    def _admitted(self, handle) -> None:
        # submit_root may run on any thread while the serving master
        # sleeps: wake it so admission latency is not the idle wait
        self._wake.set()

    # -- master ---------------------------------------------------------------

    def _master_loop(self, stop: Callable[[], bool]) -> None:
        """The master: dispatch ready work until ``stop()``."""
        wake = self._wake
        while True:
            wake.clear()
            progressed = self._master_step()
            if stop():
                return
            if not progressed:
                wake.wait(0.02)

    def _serving_done(self) -> bool:
        """The serving master's stop predicate: end_serving was called
        and nothing is ready any more (or the session failed)."""
        if not self._stop_master:
            return False
        if self._error is not None or self._fatal_error is not None:
            return True
        with self._master_lock:
            return (not self._ready
                    and (self._coalescer is None
                         or len(self._coalescer) == 0))

    def _schedule_level_flush(self) -> None:
        """Nothing to arrange: the master flushes pending compiled roots
        on its next step, and ``_admitted`` wakes it."""

    def _master_step(self) -> bool:
        """Run a deferred compiled sweep, then dispatch ready work."""
        progressed = False
        if self._pending_level_runs:
            self._flush_level_runs()
            progressed = True
        if self._error is None:
            progressed = self._dispatch() or progressed
        return progressed

    def _dispatch(self) -> bool:
        """Drain the ready wavefront; flush all pending buckets after.

        Scalar sync kernels execute here as they are popped; batchable
        instances wait in the coalescer until the wavefront is drained.
        """
        lock = self._master_lock
        coalescer = self._coalescer
        ready = self._ready
        progressed = False
        while self._error is None and self._fatal_error is None:
            with lock:
                try:
                    inst = ready.pop()
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
                    self._run_bucket(full)
                continue
            definition = plan.defs[slot]
            # _fail runs outside the lock (its listener takes the server's)
            try:
                if definition.is_async:
                    with lock:
                        plan.starters[slot](self, inst, inputs)
                        self.stats.note_op(inst.op.op_type, 0.0)
                else:
                    outputs = definition.kernel(
                        inst.op, inputs,
                        frame.ctx or frame.exec_context(self.runtime))
                    with lock:
                        self._complete_instance(inst, outputs)
                        self.stats.note_op(inst.op.op_type, 0.0)
            except Exception as exc:
                self._fail(exc, inst.op)
        # wavefront drained: flush every pending bucket
        if coalescer is not None:
            while self._error is None and self._fatal_error is None:
                with lock:
                    bucket = coalescer.pop()
                if bucket is None:
                    break
                self._run_bucket(bucket)
                progressed = True
        return progressed

    def _run_bucket(self, bucket) -> None:
        """Execute one flushed bucket: fused when it is wide enough,
        else its stragglers one by one."""
        if not prune_cancelled(bucket):
            return
        with self._master_lock:
            fused = self._bucket_fused(bucket)
        members = bucket.instances
        first = members[0]
        definition = first.frame.plan.defs[first.slot]
        runtime = self.runtime
        try:
            if definition.is_async:
                # starters mutate master state: the shared fused-spawn
                # path runs them in the master under the lock
                self._spawn_async_bucket(bucket, fused)
                return
            if fused:
                outputs_list = definition.batched_kernel(
                    [inst.op for inst in members], bucket.inputs,
                    [inst.frame.ctx or inst.frame.exec_context(runtime)
                     for inst in members])
                self._check_batch_result(bucket, outputs_list)
            else:
                outputs_list = [
                    definition.kernel(
                        inst.op, inputs,
                        inst.frame.ctx or inst.frame.exec_context(runtime))
                    for inst, inputs in zip(members, bucket.inputs)]
            self._complete_batch(members, outputs_list)
            with self._master_lock:
                if fused:
                    self.stats.note_batch(bucket.op_type, len(bucket),
                                          0.0, bucket.signature)
                else:
                    for inst in members:
                        self.stats.note_op(inst.op.op_type, 0.0)
        except Exception as exc:
            self._fail(exc, first.op)


register_executor("workerpool", WorkerPoolEngine)
