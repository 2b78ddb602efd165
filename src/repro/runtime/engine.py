"""The virtual-time executor backend (paper Figure 4's engine, layered).

The frame lifecycle — spawn/seed/complete over compiled
:class:`~repro.runtime.plan.FramePlan` slot arrays, coalescer
integration, selective caching, serving admission, error wrapping —
lives in :class:`~repro.runtime.scheduler.SchedulerCore`, shared by
every executor backend.  This module contributes only the *execution
mechanics* of the deterministic discrete-event backend registered as
``engine="event"``:

* a **virtual clock** advanced by a cost model over ``num_workers``
  virtual workers, with serialized master dispatch and a serialized
  cache clock (the hash-table lock + shared memory bandwidth of the
  paper's Section 5) — what lets a GIL-bound Python reproduction
  exhibit the paper's 36-core scheduling dynamics;
* the **event loop**: a time-ordered heap of op completions, async
  returns and scheduled continuations (open-loop request arrivals,
  loop iterations);
* the **dispatch loop** that drains the ready queue onto free virtual
  workers, offering batchable instances to the shared coalescer and
  charging fused buckets one dispatch/overhead for the whole bucket.

Kernels really run (values are exact) but time advances virtually, so
a fixed workload yields bit-identical values *and* identical virtual
times run over run.  The wall-clock backend with identical scheduling
semantics lives in :mod:`repro.runtime.workerpool` (one master that
schedules and executes every kernel itself).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from .cost_model import CostModel
from .scheduler import (EngineError, Frame, Instance, SchedulerCore,
                        prune_cancelled, register_executor, should_store)
from .stats import RunStats

__all__ = ["Frame", "Instance", "EventEngine", "EngineError",
           "should_store"]

_OP_DONE = 0
_CALL = 1
_ASYNC_DONE = 2


class EventEngine(SchedulerCore):
    """Discrete-event executor over K virtual workers.

    See :class:`~repro.runtime.scheduler.SchedulerCore` for the shared
    constructor knobs (worker count, cost model, record mode, scheduling
    policy, micro-batching).  This backend honors ``scheduler="depth"``
    priority and is fully deterministic: it is the reference the
    workerpool backend is validated against.  ``run`` and ``drain``
    both execute on the caller's thread through :meth:`_loop`; errors
    surface from ``drain``, which invokes a serving error listener
    before raising.
    """

    virtual_clock = True

    def schedule(self, when: float, fn: Callable) -> None:
        """Post ``fn`` at absolute virtual time ``when`` (clamped to now)."""
        self._post(max(when, self._now), fn)

    # -- SchedulerCore executor hooks ----------------------------------------

    def _drain_events(self) -> None:
        self._loop()

    def _stamp_clock(self, stats: RunStats) -> None:
        stats.virtual_time = self._now

    def _schedule_level_flush(self) -> None:
        # defer to an event at the current virtual instant: every root
        # admitted at this instant lands in one flush, so same-profile
        # arrivals merge into a single wavefront deterministically
        self._post(self._now, self._flush_level_runs)

    def _complete_level_group(self, lp, runs, results) -> None:
        done_at = self._now + self.cost_model.level_plan_cost(lp)
        for run, values in zip(runs, results):
            if values is None:
                continue
            self._post(done_at,
                       lambda run=run, values=values:
                       self._complete_level_run(run, values))

    def finish_async(self, inst: Instance, outputs: list) -> None:
        """Complete an async op once its frame(s) produced the outputs.

        Posted as a dedicated event kind (no closure allocation — this
        runs once per returning frame) that completes the instance
        without releasing a worker: the async op's worker was already
        freed when its starter event fired.
        """
        heapq.heappush(self._events,
                       (self._now + self.cost_model.return_overhead,
                        next(self._seq), _ASYNC_DONE, (inst, outputs)))

    def post_continuation(self, delay: float, fn: Callable) -> None:
        """Schedule ``fn`` to run at now+delay (loop iterations etc.)."""
        self._post(self._now + delay, fn)

    @property
    def now(self) -> float:
        return self._now

    # -- internals -----------------------------------------------------------

    def _reset_backend(self) -> None:
        self._now = 0.0
        self._master_clock = 0.0
        # Serialized access to the concurrent backprop cache (the hash
        # table lock + shared memory bandwidth of Section 5).
        self._cache_clock = 0.0
        self._free = self.num_workers
        self._events: list = []
        self._seq = itertools.count()
        # Per-dispatch fast paths, used only while the cost model keeps
        # the stock implementations (instance- or subclass-overridden
        # methods disable them and are called per op as before).
        cm = self.cost_model
        self._dispatch_const = (
            cm.dispatch_cost
            if getattr(cm.dispatch, "__func__", None) is CostModel.dispatch
            else None)
        self._async_memo = (
            {} if getattr(cm.async_overhead, "__func__",
                          None) is CostModel.async_overhead else None)

    def _post(self, when: float, fn: Callable) -> None:
        heapq.heappush(self._events, (when, next(self._seq), _CALL, fn))

    def _loop(self) -> None:
        coalescer = self._coalescer
        while self._error is None:
            if self._free > 0 and (self._ready or (coalescer is not None
                                                   and len(coalescer) > 0)):
                self._dispatch_ready()
            if not self._events:
                break
            when, _, kind, payload = heapq.heappop(self._events)
            if when > self._now:
                self._now = when
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
                    self._error = self._engine_error(exc)

    def _dispatch_ready(self) -> None:
        ready = self._ready
        coalescer = self._coalescer
        if coalescer is None:
            # fast path: no coalescer, the wavefront drains straight into
            # _execute_single with no bucketing checks
            while ready and self._free > 0 and self._error is None:
                inst = ready.pop()
                frame = inst.frame
                if frame.root.cancelled:
                    continue
                values = frame.values
                inputs = [values[s][i]
                          for s, i in frame.plan.input_locs[inst.slot]]
                self._execute_single(inst, inputs)
            return
        while self._error is None:
            while ready and self._free > 0 and self._error is None:
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
                self._execute_single(inst, inputs)
            # The ready wavefront is exhausted: flush pending buckets onto
            # free workers (oldest first).  Anything left waits for a
            # worker to free up; _loop re-enters here after every event.
            if (coalescer is not None and len(coalescer) > 0
                    and self._free > 0 and not ready
                    and self._error is None):
                self._execute_batch(coalescer.pop())
                continue
            return

    def _execute_single(self, inst: Instance, inputs: list) -> None:
        op = inst.op
        frame = inst.frame
        plan = frame.plan
        slot = inst.slot
        cost_model = self.cost_model
        start = self._master_clock
        if self._now > start:
            start = self._now
        dispatch_cost = self._dispatch_const
        if dispatch_cost is None:
            dispatch_cost = cost_model.dispatch(op)
        self._master_clock = start + dispatch_cost
        definition = plan.defs[slot]
        self._free -= 1
        busy = self.num_workers - self._free
        if busy > self.stats.max_concurrency:
            self.stats.max_concurrency = busy
        if definition.is_async:
            memo = self._async_memo
            if memo is None:
                cost = cost_model.async_overhead(op)
            else:
                cost = memo.get(op.op_type)
                if cost is None:
                    cost = memo[op.op_type] = cost_model.async_overhead(op)
            self.stats.note_op(op.op_type, cost)
            heapq.heappush(self._events,
                           (self._master_clock + cost, next(self._seq),
                            _OP_DONE, (inst, None, inputs)))
        else:
            try:
                ctx = frame.ctx or frame.exec_context(self.runtime)
                outputs = definition.kernel(op, inputs, ctx)
            except Exception as exc:
                self._error = self._wrap_error(exc, op)
                return
            kind = plan.cost_kinds[slot]
            cost = cost_model.op_cost(op, inputs, kind)
            done = self._master_clock + cost
            if kind == "cache":
                # lookups contend on the shared cache structure
                self._cache_clock = max(self._cache_clock,
                                        self._master_clock) + cost
                done = self._cache_clock
            elif frame.record:
                mask = plan.store_masks[slot]
                for i, value in enumerate(outputs):
                    if mask[i]:
                        write = cost_model.cache_write_cost(value)
                        self._cache_clock = (max(self._cache_clock,
                                                 done) + write)
                        done = self._cache_clock
            self.stats.note_op(op.op_type, done - self._master_clock)
            heapq.heappush(self._events,
                           (done, next(self._seq),
                            _OP_DONE, (inst, outputs, None)))

    def _execute_batch(self, bucket) -> None:
        """Run one fused kernel call for a bucket of same-signature ops."""
        if not prune_cancelled(bucket):
            return
        if not self._bucket_fused(bucket):
            for inst, inputs in zip(bucket.instances, bucket.inputs):
                if self._free <= 0:
                    # no worker for the stragglers: requeue them (their
                    # memoized signatures make the re-offer cheap)
                    self._ready.push(inst)
                    continue
                self._execute_single(inst, inputs)
            return
        first = bucket.instances[0]
        plan = first.frame.plan
        definition = plan.defs[first.slot]
        kind = plan.cost_kinds[first.slot]
        ops = [inst.op for inst in bucket.instances]
        start = max(self._now, self._master_clock)
        # one fused dispatch through the serialized master
        self._master_clock = start + self.cost_model.dispatch(ops[0])
        self._free -= 1
        busy = self.num_workers - self._free
        if busy > self.stats.max_concurrency:
            self.stats.max_concurrency = busy
        if definition.is_async:
            # fused frame spawn: the caller-context setup is charged once
            # for the bucket; starters run at completion time like the
            # scalar async path.
            cost = self.cost_model.async_batch_overhead(ops[0], len(bucket))
            self.stats.note_batch(bucket.op_type, len(bucket), cost,
                                  bucket.signature)
            heapq.heappush(self._events,
                           (self._master_clock + cost, next(self._seq),
                            _OP_DONE, (list(bucket.instances), None,
                                       list(bucket.inputs))))
            return
        try:
            runtime = self.runtime
            ctxs = [inst.frame.ctx or inst.frame.exec_context(runtime)
                    for inst in bucket.instances]
            outputs_list = definition.batched_kernel(ops, bucket.inputs, ctxs)
            self._check_batch_result(bucket, outputs_list)
        except Exception as exc:
            self._error = self._wrap_error(exc, ops[0])
            return
        if kind == "cache":
            # one bulk round-trip through the serialized cache structure
            # instead of N contended lookups (Section 5's bottleneck)
            cost = self.cost_model.bulk_cache_lookup_cost(bucket.inputs)
            self._cache_clock = max(self._cache_clock,
                                    self._master_clock) + cost
            done = self._cache_clock
        else:
            cost = self.cost_model.batch_cost(ops, bucket.inputs, kind)
            done = self._master_clock + cost
            writes = [value
                      for inst, outputs in zip(bucket.instances, outputs_list)
                      if inst.frame.record
                      for i, value in enumerate(outputs)
                      if inst.frame.plan.store_masks[inst.slot][i]]
            if writes:
                # the recorded outputs of a fused batch travel to the value
                # cache as one bulk write
                self._cache_clock = (max(self._cache_clock, done)
                                     + self.cost_model.bulk_cache_write_cost(
                                         writes))
                done = self._cache_clock
        self.stats.note_batch(bucket.op_type, len(bucket),
                              done - self._master_clock, bucket.signature)
        heapq.heappush(self._events,
                       (done, next(self._seq), _OP_DONE,
                        (list(bucket.instances), outputs_list, None)))


register_executor("event", EventEngine)
