"""The executor loop (paper Figure 4's engine) and the virtual clock.

:class:`~repro.runtime.scheduler.SchedulerCore` owns the frame
lifecycle; :class:`EventEngine` adds the one loop that pops ready ops
and runs them, and the clock hooks of simulated time
(``engine="event"``): ``now`` is the event heap's time, and an op
completes at its cost-model time on one of ``num_workers`` virtual
workers, charged through a serialized master (dispatch) and a
serialized cache clock (the hash-table lock and memory bandwidth of the
paper's Section 5).  A bucket is flushed when the ready queue is empty
and a worker is free.  Kernels really run, so values are exact, and
virtual times repeat run over run: the oracle.

:class:`~repro.runtime.workerpool.WorkerPoolEngine` overrides the clock
hooks for real time and runs the same loop.  On both clocks
``schedule(at, fn)`` runs ``fn`` on the loop when ``at`` falls due
(open-loop arrivals, deadlines, the server's admission pump).
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable

from .cost_model import CostModel
from .scheduler import (EngineError, Frame, Instance, SchedulerCore,
                        prune_cancelled, should_store)
from .stats import RunStats

__all__ = ["Frame", "Instance", "EventEngine", "EngineError",
           "should_store"]

_OP_DONE = 0
_CALL = 1
_ASYNC_DONE = 2


class EventEngine(SchedulerCore):
    """The executor loop on the virtual clock.  ``run`` and ``drain``
    execute on the caller's thread; errors surface from ``drain``.  See
    :class:`~repro.runtime.scheduler.SchedulerCore` for the constructor
    knobs.

    Per-session state: the event heap, ``now``, the serialized master
    and cache clocks, the idle virtual workers (``_free``) and
    ``_outside`` — None, or while a wall-clock serving master runs, the
    context that releases its lock around a kernel or sweep (a
    ``with`` per kernel would show in the call-count pins, so the sites
    test for None first).
    """

    virtual_clock = True

    # -- the loop (both clocks) ---------------------------------------------

    def _post(self, when: float, fn: Callable) -> None:
        heapq.heappush(self._events, (when, next(self._seq), _CALL, fn))

    def _loop(self) -> None:
        """Pop ready ops and run them, then the next event, until neither
        is left or the session failed.  The virtual clock jumps to each
        event's time; on the wall clock the loop returns when the next
        callback is not yet due."""
        jumps = self.virtual_clock
        events = self._events
        ready = self._ready
        coalescer = self._coalescer
        while self._error is None and self._fatal_error is None:
            if self._free > 0 and (ready or (coalescer is not None
                                             and len(coalescer) > 0)):
                self._dispatch_ready()
            if not events:
                break
            when = events[0][0]
            if when > self.now:
                if not jumps:
                    break
                self.now = when
            _, _, kind, payload = heapq.heappop(events)
            if kind == _OP_DONE:
                self._free += 1
                inst, outputs, starter_inputs = payload
                try:
                    if isinstance(inst, list):  # fused micro-batch members
                        if starter_inputs is not None:
                            # fused frame spawn: run every member's starter
                            # (skipping members whose root was cancelled
                            # while the spawn event was in flight)
                            for member, member_inputs in zip(inst,
                                                             starter_inputs):
                                if member.frame.root.cancelled:
                                    continue
                                starter = member.frame.plan.starters[
                                    member.slot]
                                starter(self, member, member_inputs)
                        else:
                            self._complete_batch(inst, outputs)
                    elif starter_inputs is None:
                        self._complete_instance(inst, outputs)
                    elif not inst.frame.root.cancelled:
                        starter = inst.frame.plan.starters[inst.slot]
                        starter(self, inst, starter_inputs)
                except Exception as exc:  # annotate and stop
                    failed = inst[0] if isinstance(inst, list) else inst
                    self._error = self._wrap_error(exc, failed.op)
            elif kind == _ASYNC_DONE:
                inst, outputs = payload
                try:
                    self._complete_instance(inst, outputs)
                except Exception as exc:
                    self._error = self._wrap_error(exc, inst.op)
            else:
                try:
                    payload()
                except Exception as exc:
                    self._fail(exc)

    def _dispatch_ready(self) -> None:
        """Drain the ready wavefront onto free workers (a batchable op
        waits in the coalescer), then flush the buckets, oldest first,
        while a worker is free.  Virtual completions are events, so that
        ends the drain; wall-clock ones are inline, so a flush refills
        the wavefront and the drain repeats, returning early when a
        scheduled callback falls due (a deadline cancels mid-flight)."""
        preempt = not self.virtual_clock
        perf_counter = time.perf_counter
        execute = self._execute_single
        events = self._events
        ready = self._ready
        coalescer = self._coalescer
        while self._error is None:
            while ready and self._free > 0 and self._error is None:
                if preempt and events and events[0][0] <= perf_counter():
                    return
                inst = ready.pop()
                frame = inst.frame
                if frame.root.cancelled:
                    continue
                plan = frame.plan
                slot = inst.slot
                values = frame.values
                inputs = [values[s][i] for s, i in plan.input_locs[slot]]
                if coalescer is not None:
                    prefix = plan.sig_prefixes[slot]
                    if prefix is not None:
                        signature = self._batch_signature_of(inst, inputs,
                                                             prefix)
                        full = coalescer.offer(signature, inst, inputs)
                        if full is not None:
                            self._execute_batch(full)
                        continue
                execute(inst, inputs)
            if coalescer is None:
                return
            while (len(coalescer) > 0 and self._free > 0
                   and self._error is None):
                if preempt and events and events[0][0] <= perf_counter():
                    return
                self._execute_batch(coalescer.pop())
            if not ready or self._free <= 0:
                return

    def _execute_batch(self, bucket) -> None:
        """Run one flushed bucket: one fused kernel call when it is wide
        enough, else its members one by one (requeued while no worker is
        free).  ``_bucket_done`` books the fused call, and runs the
        starters of a fused frame spawn."""
        if not prune_cancelled(bucket):
            return
        members = bucket.instances
        if not self._bucket_fused(bucket):
            for inst, inputs in zip(members, bucket.inputs):
                if self._free <= 0:
                    # no worker for the stragglers: requeue them (their
                    # memoized signatures make the re-offer cheap)
                    self._ready.push(inst)
                    continue
                self._execute_single(inst, inputs)
            return
        first = members[0]
        definition = first.frame.plan.defs[first.slot]
        ops = [inst.op for inst in members]
        try:
            outputs_list = None
            if not definition.is_async:
                runtime = self.runtime
                ctxs = [inst.frame.ctx or inst.frame.exec_context(runtime)
                        for inst in members]
                outside = self._outside
                if outside is None:
                    outputs_list = definition.batched_kernel(
                        ops, bucket.inputs, ctxs)
                else:
                    with outside:
                        outputs_list = definition.batched_kernel(
                            ops, bucket.inputs, ctxs)
                if len(outputs_list) != len(bucket):
                    raise EngineError(
                        f"batched kernel of {bucket.op_type} returned "
                        f"{len(outputs_list)} results for {len(bucket)} "
                        "members")
            self._bucket_done(bucket, ops, outputs_list)
        except Exception as exc:
            self._fail(exc, ops[0])

    # -- the virtual clock ----------------------------------------------------

    def _reset_backend(self) -> None:
        self._events: list = []
        self._seq = itertools.count()
        self._outside = None
        self.now = 0.0
        self._master_clock = 0.0
        self._cache_clock = 0.0
        self._free = self.num_workers
        # Per-dispatch fast paths, used only while the cost model keeps
        # the stock implementations (an instance- or subclass-overridden
        # method is called per op instead).
        cm = self.cost_model
        self._dispatch_const = (
            cm.dispatch_cost
            if getattr(cm.dispatch, "__func__", None) is CostModel.dispatch
            else None)
        self._async_memo = (
            {} if getattr(cm.async_overhead, "__func__",
                          None) is CostModel.async_overhead else None)

    def schedule(self, when: float, fn: Callable) -> None:
        """Run ``fn`` on the loop at clock time ``when`` (now at the
        earliest)."""
        self._post(max(when, self.now), fn)

    def _defer_level_flush(self) -> None:
        # an event at this instant: every root admitted at this instant
        # lands in one flush, one wavefront, deterministically
        self._post(self.now, self._flush_level_runs)

    def _admitted(self) -> None:
        """Nothing to wake, start or stop: ``drain`` runs the loop on
        the caller's thread."""

    _start_serving = _stop_serving = _admitted

    def finish_async(self, inst: Instance, outputs: list) -> None:
        """Complete an async op once its frame(s) produced the outputs.

        Posted as a dedicated event kind (no closure allocation — this
        runs once per returning frame) that completes the instance
        without releasing a worker: the async op's worker was already
        freed when its starter event fired.
        """
        heapq.heappush(self._events,
                       (self.now + self.cost_model.return_overhead,
                        next(self._seq), _ASYNC_DONE, (inst, outputs)))

    def post_continuation(self, delay: float, fn: Callable) -> None:
        """Run ``fn`` at now+delay (loop iterations etc.)."""
        self._post(self.now + delay, fn)

    def _complete_level_group(self, lp, runs, results) -> None:
        done_at = self.now + self.cost_model.level_plan_cost(lp)
        for run, values in zip(runs, results):
            if values is None:
                continue
            self._post(done_at,
                       lambda run=run, values=values:
                       self._complete_level_run(run, values))

    def _drain_events(self) -> None:
        self._loop()

    def _stamp_clock(self, stats: RunStats) -> None:
        stats.virtual_time = self.now

    def wait(self, cond, done: Callable[[], bool], timeout=None) -> None:
        """Wait for ``done()``: simulated time passes only by running the
        simulation, so this drains it to exhaustion (``cond`` and
        ``done`` go unused) and refuses a wall-clock ``timeout``."""
        if timeout is not None:
            raise ValueError(
                "result(timeout=...) is unsupported on the "
                "virtual-clock event engine: virtual time only "
                "advances by running the simulation, so a wall-clock "
                "timeout cannot be honored — result() drains the "
                "whole simulation instead.  Call result() without a "
                "timeout, or submit(..., timeout=) to bound the "
                "request in virtual time.")
        self.drain()

    def _execute_single(self, inst: Instance, inputs: list) -> None:
        """Take a worker for one op: a sync kernel runs now and completes
        at its cost-model time; an async op's starter runs at its
        caller-context setup time."""
        op = inst.op
        frame = inst.frame
        plan = frame.plan
        slot = inst.slot
        cost_model = self.cost_model
        start = self._master_clock
        if self.now > start:
            start = self.now
        dispatch_cost = self._dispatch_const
        if dispatch_cost is None:
            dispatch_cost = cost_model.dispatch(op)
        master = self._master_clock = start + dispatch_cost
        definition = plan.defs[slot]
        self._free -= 1
        stats = self.stats
        busy = self.num_workers - self._free
        if busy > stats.max_concurrency:
            stats.max_concurrency = busy
        if definition.is_async:
            memo = self._async_memo
            if memo is None:
                cost = cost_model.async_overhead(op)
            else:
                cost = memo.get(op.op_type)
                if cost is None:
                    cost = memo[op.op_type] = cost_model.async_overhead(op)
            stats.note_op(op.op_type, cost)
            heapq.heappush(self._events,
                           (master + cost, next(self._seq),
                            _OP_DONE, (inst, None, inputs)))
            return
        try:
            ctx = frame.ctx or frame.exec_context(self.runtime)
            outputs = definition.kernel(op, inputs, ctx)
        except Exception as exc:
            self._error = self._wrap_error(exc, op)
            return
        kind = plan.cost_kinds[slot]
        cost = cost_model.op_cost(op, inputs, kind)
        done = master + cost
        if kind == "cache":
            # lookups contend on the shared cache structure
            self._cache_clock = max(self._cache_clock, master) + cost
            done = self._cache_clock
        elif frame.record:
            mask = plan.store_masks[slot]
            for i, value in enumerate(outputs):
                if mask[i]:
                    write = cost_model.cache_write_cost(value)
                    self._cache_clock = max(self._cache_clock, done) + write
                    done = self._cache_clock
        stats.note_op(op.op_type, done - master)
        heapq.heappush(self._events,
                       (done, next(self._seq), _OP_DONE,
                        (inst, outputs, None)))

    def _bucket_done(self, bucket, ops: list, outputs_list) -> None:
        """Book one fused call through the serialized master: one
        dispatch and one worker for the whole bucket, completing at its
        batch cost (``outputs_list`` is None for a fused frame spawn,
        whose starters run at completion like the scalar async path)."""
        cost_model = self.cost_model
        start = max(self.now, self._master_clock)
        master = self._master_clock = start + cost_model.dispatch(ops[0])
        self._free -= 1
        stats = self.stats
        busy = self.num_workers - self._free
        if busy > stats.max_concurrency:
            stats.max_concurrency = busy
        members = bucket.instances
        if outputs_list is None:
            # the caller-context setup is charged once for the bucket
            cost = cost_model.async_batch_overhead(ops[0], len(bucket))
            stats.note_batch(bucket.op_type, len(bucket), cost,
                             bucket.signature)
            heapq.heappush(self._events,
                           (master + cost, next(self._seq), _OP_DONE,
                            (list(members), None, list(bucket.inputs))))
            return
        first = members[0]
        kind = first.frame.plan.cost_kinds[first.slot]
        if kind == "cache":
            # one bulk round-trip through the serialized cache structure
            # instead of N contended lookups (Section 5's bottleneck)
            cost = cost_model.bulk_cache_lookup_cost(bucket.inputs)
            self._cache_clock = max(self._cache_clock, master) + cost
            done = self._cache_clock
        else:
            cost = cost_model.batch_cost(ops, bucket.inputs, kind)
            done = master + cost
            writes = [value
                      for inst, outputs in zip(members, outputs_list)
                      if inst.frame.record
                      for i, value in enumerate(outputs)
                      if inst.frame.plan.store_masks[inst.slot][i]]
            if writes:
                # the recorded outputs of a fused batch travel to the
                # value cache as one bulk write
                self._cache_clock = (
                    max(self._cache_clock, done)
                    + cost_model.bulk_cache_write_cost(writes))
                done = self._cache_clock
        stats.note_batch(bucket.op_type, len(bucket), done - master,
                         bucket.signature)
        heapq.heappush(self._events,
                       (done, next(self._seq), _OP_DONE,
                        (list(members), outputs_list, None)))
