"""``engine="workerpool"``: the executor loop on the wall clock.

``now`` is ``perf_counter``.  Kernels complete inline and workers are
unbounded, so the whole ready wavefront drains into the coalescer before
every bucket is flushed.  One master — the calling thread during
``run``, a dedicated thread while serving — owns all frame state and
executes every kernel itself; the kernel thread pool the name comes
from never beat it and was removed (ARCHITECTURE.md).  A serving master
runs a kernel or compiled sweep outside the master lock and its
completion under it, so a client admitting a request waits for at most
one completion.  Values and gradients are bit-identical to the virtual
clock's.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable

from .engine import EventEngine
from .scheduler import SchedulerCore
from .stats import RunStats

__all__ = ["WorkerPoolEngine"]

#: the longest the master or a waiter sleeps before it looks again
_POLL_S = 0.05


class _Released:
    """The serving master's lock released for one kernel or sweep (the
    master holds it exactly once there), re-taken after."""

    __slots__ = ("lock",)

    def __init__(self, lock):
        self.lock = lock

    def __enter__(self):
        self.lock.release()

    def __exit__(self, *exc):
        self.lock.acquire()


class WorkerPoolEngine(EventEngine):
    """The executor loop on the wall clock.  ``num_workers`` is accepted
    and ignored: the master executes every kernel itself.

    ``_roots_cv`` — the condition on the master lock — is notified when
    a root is admitted, retired or fails, a callback is scheduled, or
    serving ends.
    """

    virtual_clock = False
    _free = float("inf")

    @property
    def now(self) -> float:
        return time.perf_counter()

    def _reset_backend(self) -> None:
        self._events: list = []
        self._seq = itertools.count()
        self._outside = None
        lock = self._master_lock = threading.RLock()
        self._roots_cv = threading.Condition(lock)
        self._master_thread = None
        self._stopping = False

    def schedule(self, when: float, fn: Callable) -> None:
        """Run ``fn`` on the master when ``perf_counter()`` reaches
        ``when`` (callable from any thread)."""
        with self._roots_cv:
            self._post(when, fn)
            self._roots_cv.notify()

    def _admitted(self) -> None:
        """Wake a sleeping serving master (the root may come from any
        thread).  A compiled root waits in ``_pending_level_runs``: the
        master flushes them before it sleeps again."""
        if self._master_thread is not None:
            with self._roots_cv:
                self._roots_cv.notify()

    _defer_level_flush = _admitted
    # called back from a completion on the master, under the lock
    finish_async = SchedulerCore._complete_instance

    def post_continuation(self, delay: float, fn: Callable) -> None:
        fn()  # no overheads are simulated: now, on the master

    def _complete_level_group(self, lp, runs, results) -> None:
        for run, values in zip(runs, results):
            if values is not None:
                self._complete_level_run(run, values)

    def _drain_events(self) -> None:
        """Until every admitted root completed or the session failed:
        with no serving master the caller is the master."""
        if self._master_thread is None:
            self._run_master(self._idle)
        else:
            self.wait(self._roots_cv, self._idle)

    def _idle(self) -> bool:
        return (not self._open_roots or self._error is not None
                or self._fatal_error is not None)

    def _stamp_clock(self, stats: RunStats) -> None:
        stats.virtual_time = stats.wall_time

    def _start_serving(self) -> None:
        self._outside = _Released(self._master_lock)
        self._master_thread = threading.Thread(
            target=self._run_master, args=(self._serving_done,),
            daemon=True)
        self._master_thread.start()

    def _stop_serving(self) -> None:
        if self._master_thread is not None:
            with self._roots_cv:
                self._stopping = True
                self._roots_cv.notify()
            self._master_thread.join()
            self._master_thread = self._outside = None
        stats = self.stats
        stats.wall_time = stats.virtual_time = (time.perf_counter()
                                                - self._serve_wall0)

    def wait(self, cond, done: Callable[[], bool], timeout=None) -> None:
        """Block on ``cond`` until ``done()`` or ``timeout`` seconds.

        Between looks the waiter runs the callbacks that fell due while
        the master is inside a kernel or sweep (it holds the master lock
        at any other time), so a deadline still cancels a request whose
        kernel does not return.  With no client waiting, a callback runs
        when the master is next between two kernels.
        """
        end = None if timeout is None else time.perf_counter() + timeout
        while True:
            with cond:
                if done():
                    return
                left = _POLL_S
                if end is not None:
                    left = min(left, end - time.perf_counter())
                    if left <= 0:
                        return
                cond.wait(left)
            self._run_due()

    def _run_due(self) -> None:
        """Run the due callbacks if the master lock is free."""
        lock = self._master_lock
        if not lock.acquire(blocking=False):
            return
        try:
            events = self._events
            while (events and events[0][0] <= time.perf_counter()
                   and self._error is None):
                try:
                    heapq.heappop(events)[3]()
                except Exception as exc:
                    self._fail(exc)
        finally:
            lock.release()

    def _run_master(self, stop: Callable[[], bool]) -> None:
        """Turns until ``stop()``, under the master lock: flush the
        pending compiled runs (with the lock released while serving),
        run the loop, then, with no compiled run admitted meanwhile,
        sleep until the next callback falls due or a wake-up."""
        events = self._events
        cv = self._roots_cv
        outside = self._outside
        with cv:
            while True:
                if self._pending_level_runs:
                    if outside is None:
                        self._flush_level_runs()
                    else:
                        with outside:
                            self._flush_level_runs()
                self._loop()
                if stop():
                    return
                if self._pending_level_runs:
                    continue  # admitted by a callback the loop ran
                left = _POLL_S
                if events:
                    left = min(left, events[0][0] - time.perf_counter())
                if left > 0:
                    cv.wait(left)

    def _serving_done(self) -> bool:
        """``end_serving`` was called and nothing is ready any more (or
        the session failed)."""
        if not self._stopping:
            return False
        return (self._error is not None or self._fatal_error is not None
                or not (self._ready or self._coalescer))

    def _execute_single(self, inst, inputs: list) -> None:
        """Run one op now: a sync kernel (outside the master lock while
        serving) and its completion, or an async op's starter."""
        op = inst.op
        frame = inst.frame
        definition = frame.plan.defs[inst.slot]
        try:
            if definition.is_async:
                frame.plan.starters[inst.slot](self, inst, inputs)
            else:
                ctx = frame.ctx or frame.exec_context(self.runtime)
                outside = self._outside
                if outside is None:
                    outputs = definition.kernel(op, inputs, ctx)
                else:
                    with outside:
                        outputs = definition.kernel(op, inputs, ctx)
                self._complete_instance(inst, outputs)
        except Exception as exc:
            self._fail(exc, op)
            return
        self.stats.note_op(op.op_type, 0.0)

    def _bucket_done(self, bucket, ops: list, outputs_list) -> None:
        """Complete a fused call now (``outputs_list`` None: run the
        starters of a fused frame spawn)."""
        if outputs_list is None:
            for inst, inputs in zip(bucket.instances, bucket.inputs):
                if not inst.frame.root.cancelled:
                    inst.frame.plan.starters[inst.slot](self, inst, inputs)
        else:
            self._complete_batch(bucket.instances, outputs_list)
        self.stats.note_batch(bucket.op_type, len(bucket), 0.0,
                              bucket.signature)
