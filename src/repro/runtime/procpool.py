"""Multi-process executor backend (``engine="procpool"``).

Every other backend shares one Python process, so fused kernel buckets
serialize on the GIL wherever numpy holds it.  This backend escapes it:
the scheduling master (the exact :class:`~repro.runtime.workerpool
.WorkerPoolEngine` master — same spawn/complete/coalesce semantics,
same sticky-error contract) stays in the parent process, while kernel
execution moves to ``num_workers`` forked worker *processes*.  Results
are bit-identical to the in-process backends: values cross the process
boundary as exact byte copies, and all scheduling/accumulation order is
decided by the one master.

Transport design (what goes over the wire, and what never does):

* **Arrays travel through shared memory, never through pickle.**  The
  master packs each task's tensor inputs into a pooled mmap segment
  under ``/dev/shm`` and sends only *descriptors* — ``(segment name,
  offset, dtype, shape)`` triples plus plan slot indices — over the
  task queue.  Workers map the segment and rebuild zero-copy views;
  outputs come back the same way through per-worker result segments
  (the "result ring"), with a feed message on the results queue.  Both
  pools recycle segments: the master returns a task segment to its
  arena when the completion arrives, and hands a result segment back to
  its worker through that worker's recycle queue once the outputs are
  copied out.
* **Graphs and plans never travel at all.**  Workers are *forked* after
  the session's graphs (and their gradient bodies) exist, so they
  inherit every graph; a work descriptor names its
  :class:`~repro.runtime.plan.FramePlan` as ``(graph_id, op_ids)`` and
  the worker hydrates the plan locally (``plan_for``) exactly once per
  (graph, op-set), resolving kernels through its own registry.  A graph
  the worker cannot resolve (created after the fork) bounces back as
  ``noplan`` and the master permanently executes that graph inline.
* **Registry-version stamps close the stale-plan hole.**  Plans bake in
  resolved kernels, so registry mutation *after* the pool started would
  leave workers executing stale plans.  The master stamps the registry
  version at pool start, re-checks it on every ship decision (mutation
  flips the session to inline execution — correct, just not parallel),
  and every task carries the stamp so the worker can verify its own
  registry still matches; the worker bootstrap asserts the invariant.

Placement policy: only *pure* kernels ship.  Stateful ops (variables,
accumulators, cache lookups), async starters (frame spawns), opaque
``variant`` values (tensor arrays) and ops whose attrs hold live Python
objects (locks, events, subgraph refs) execute inline on the master —
they need master state or cannot survive a process boundary.  Tiny
payloads (< :data:`ProcPoolEngine.SHIP_MIN_BYTES` input bytes) also
stay inline: IPC latency dominates sub-microsecond kernels.

Worker death never hangs the session: the master's idle loop polls
worker liveness and converts a dead process into the same sticky
``EngineError`` path a failed kernel takes — pending requests fail,
``drain()`` raises, repeat drains keep raising.

Requires the ``fork`` start method (the whole design leans on workers
inheriting graphs); the backend does not register on platforms without
it.  See ARCHITECTURE.md ("process-based executors") for the recipe,
buffer lifecycle and lock-ordering rules.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing as mp
import os
import pickle
import queue
import tempfile
import time
from typing import Optional

import numpy as np

from repro.graph import dtypes as _dtypes
from repro.graph.graph import graph_by_id
from repro.graph.registry import ExecContext, registry_version
from repro.graph.sparse import IndexedSlices

from .plan import plan_for
from .scheduler import EngineError, Instance, register_executor
from .workerpool import WorkerPoolEngine

__all__ = ["ProcPoolEngine"]

_WAKE_TOKEN = "__procpool_wake__"
_STOP_TOKEN = "__procpool_stop__"

#: minimum segment size (bytes); segments grow in powers of two
_MIN_SEG = 1 << 14

_SEG_IDS = itertools.count()


def _shm_dir() -> str:
    return "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


class _Segment:
    """One mmap-backed shared byte range (a file under ``/dev/shm``).

    Raw mmap files instead of :mod:`multiprocessing.shared_memory` so
    segment lifetime is owned explicitly by this module: the creating
    process unlinks at pool stop, attachers just map — no
    resource-tracker registration, no cross-process unlink warnings.
    """

    __slots__ = ("name", "size", "buf")

    def __init__(self, name: Optional[str] = None, size: int = 0,
                 create: bool = False):
        if create:
            self.name = name or f"repro-pp-{os.getpid()}-{next(_SEG_IDS)}"
            path = os.path.join(_shm_dir(), self.name)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
            try:
                os.ftruncate(fd, size)
                self.buf = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            self.size = size
        else:
            self.name = name
            fd = os.open(os.path.join(_shm_dir(), name), os.O_RDWR)
            try:
                size = os.fstat(fd).st_size
                self.buf = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            self.size = size

    def close(self) -> None:
        try:
            self.buf.close()
        except BufferError:  # a live numpy view pins the map; leak it
            pass

    def unlink(self) -> None:
        try:
            os.unlink(os.path.join(_shm_dir(), self.name))
        except OSError:
            pass


class _Arena:
    """Power-of-two pooled segments owned by one process.

    ``acquire`` hands out a segment of capacity >= ``nbytes`` (reusing a
    freed one when available); ``release``/``release_name`` return it.
    Segments are fixed-size once created, so a peer that mapped one by
    name can keep the mapping across recycles.
    """

    __slots__ = ("_free", "_by_name")

    def __init__(self):
        self._free: dict[int, list] = {}
        self._by_name: dict[str, _Segment] = {}

    def acquire(self, nbytes: int) -> _Segment:
        size = _MIN_SEG
        while size < nbytes:
            size <<= 1
        bucket = self._free.get(size)
        if bucket:
            return bucket.pop()
        seg = _Segment(size=size, create=True)
        self._by_name[seg.name] = seg
        return seg

    def release(self, seg: _Segment) -> None:
        self._free.setdefault(seg.size, []).append(seg)

    def release_name(self, name: str) -> None:
        seg = self._by_name.get(name)
        if seg is not None:
            self.release(seg)

    def destroy(self) -> None:
        for seg in self._by_name.values():
            seg.close()
            seg.unlink()
        self._by_name.clear()
        self._free.clear()


def _align(n: int) -> int:
    return (n + 63) & ~63


def _encode_lists(value_lists, acquire, pinned_desc=None):
    """Pack nested value lists into one shared segment.

    Returns ``(segment_or_None, descriptor_lists)``.  Arrays and numpy
    scalars are written into a segment from ``acquire(total_bytes)`` and
    described as ``("nd", seg_name, offset, dtype, shape, order)`` /
    ``("np", seg_name, offset, dtype)``; everything else is carried
    inline as ``("py", value)`` (plain scalars — cheaper than a segment
    round-trip).  ``pinned_desc`` (master side) may supply a ready
    descriptor for an array already resident in a pinned segment.

    Memory *order* is part of the contract, not an optimization: BLAS
    kernels pick different reduction orders for C- vs F-ordered
    operands, so flattening a transposed view into a C-contiguous copy
    would change MatMul results in the last bits and break the
    bit-identity bar.  C- and F-contiguous arrays therefore ship with
    their native byte order and are rebuilt with the same flags; the
    ship gate refuses anything discontiguous (see ``_shippable``).
    """
    descs = []
    pending = []  # (row, index, array-in-memory-order, shape, order, scalar)
    sparse = []   # (row, index, indices, values, dense_shape)
    total = 0
    for values in value_lists:
        row = []
        for v in values:
            if isinstance(v, np.generic):
                arr = np.asarray(v)
                if arr.dtype.hasobject:
                    row.append(("py", v))
                    continue
                pending.append((row, len(row), arr, (), "C", True))
                row.append(None)
                total += _align(arr.nbytes)
            elif isinstance(v, IndexedSlices):
                # sparse gradients ship as their two component arrays
                # plus the dense shape; kernels emit them contiguous
                idx = np.ascontiguousarray(v.indices)
                vals = np.ascontiguousarray(v.values)
                sparse.append((row, len(row), idx, vals, v.dense_shape))
                row.append(None)
                total += _align(idx.nbytes) + _align(vals.nbytes)
            elif isinstance(v, np.ndarray):
                if v.dtype.hasobject:
                    row.append(("py", v))
                    continue
                if pinned_desc is not None:
                    d = pinned_desc(v)
                    if d is not None:
                        row.append(d)
                        continue
                if v.flags.c_contiguous:
                    arr, order = v, "C"
                elif v.flags.f_contiguous:
                    arr, order = v.T, "F"  # .T of F-contig is C-contig
                else:
                    arr, order = np.ascontiguousarray(v), "C"
                pending.append((row, len(row), arr, v.shape, order, False))
                row.append(None)
                total += _align(arr.nbytes)
            else:
                row.append(("py", v))
        descs.append(row)
    seg = None
    if pending or sparse:
        seg = acquire(total)
        name = seg.name
        off = 0

        def put(arr):
            nonlocal off
            n = arr.nbytes
            if n:
                dst = np.frombuffer(seg.buf, dtype=arr.dtype, count=arr.size,
                                    offset=off)
                np.copyto(dst, arr.reshape(-1))
            at = off
            off += _align(n)
            return at

        for row, idx, arr, shape, order, scalar in pending:
            at = put(arr)
            row[idx] = (("np", name, at, arr.dtype.str) if scalar
                        else ("nd", name, at, arr.dtype.str, shape, order))
        for row, idx, iarr, varr, dense_shape in sparse:
            iat = put(iarr)
            vat = put(varr)
            row[idx] = ("sl", name,
                        (iat, iarr.dtype.str, iarr.shape),
                        (vat, varr.dtype.str, varr.shape), dense_shape)
    return seg, descs


def _decode_lists(desc_lists, resolve, copy: bool):
    """Rebuild value lists from descriptors (inverse of _encode_lists).

    ``resolve(name)`` maps a segment name to a mapped :class:`_Segment`.
    ``copy=False`` returns zero-copy views into the segment (worker
    input path — the master keeps the segment until the completion
    returns); ``copy=True`` materializes private arrays (master output
    path — the segment recycles immediately after).
    """
    out = []
    for row in desc_lists:
        values = []
        for d in row:
            tag = d[0]
            if tag == "py":
                values.append(d[1])
                continue
            if tag == "sl":
                _, name, (iat, idt, ishape), (vat, vdt, vshape), dshape = d
                buf = resolve(name).buf
                icount = 1
                for s in ishape:
                    icount *= s
                vcount = 1
                for s in vshape:
                    vcount *= s
                idx = np.frombuffer(buf, dtype=np.dtype(idt), count=icount,
                                    offset=iat).reshape(ishape)
                vals = np.frombuffer(buf, dtype=np.dtype(vdt), count=vcount,
                                     offset=vat).reshape(vshape)
                if copy:
                    idx, vals = idx.copy(), vals.copy()
                values.append(IndexedSlices(idx, vals, dshape))
                continue
            if tag == "nd":
                _, name, off, dt, shape, order = d
            else:
                _, name, off, dt = d
                shape, order = (), "C"
            count = 1
            for s in shape:
                count *= s
            flat = np.frombuffer(resolve(name).buf, dtype=np.dtype(dt),
                                 count=count, offset=off)
            # rebuild with the sender's memory order (see _encode_lists)
            if order == "F":
                arr = flat.reshape(shape[::-1]).T
                if copy:
                    arr = arr.copy(order="F")
            else:
                arr = flat.reshape(shape)
                if copy:
                    arr = arr.copy()
            values.append(arr if tag == "nd" else arr[()])
        out.append(values)
    return out


#: attr value types that are inert data: safe to leave behind in the
#: master and equally meaningful in a forked worker.  Anything else
#: (threading primitives, SubGraph references, file handles, callables)
#: marks the op master-only — its kernel may depend on cross-process
#: mutable state a fork snapshot cannot track.
_PLAIN_ATTRS = (str, bytes, bool, int, float, complex, type(None),
                np.ndarray, np.generic, np.dtype, _dtypes.DType)

_INLINE_VALUES = (bool, int, float, complex, str, bytes, type(None))


def _plain_data(v) -> bool:
    if isinstance(v, _PLAIN_ATTRS):
        return True
    if isinstance(v, (tuple, list, set, frozenset)):
        return all(_plain_data(x) for x in v)
    if isinstance(v, dict):
        return all(_plain_data(k) and _plain_data(x) for k, x in v.items())
    return False


def _picklable_exc(exc: Exception) -> Exception:
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return EngineError(f"{type(exc).__name__}: {exc}")


class ProcPoolEngine(WorkerPoolEngine):
    """Scheduling master + forked kernel worker processes.

    The master loops, dispatch, coalescing and error semantics are
    inherited unchanged from :class:`WorkerPoolEngine`; this class
    replaces only the pool-mechanics seams — process lifecycle,
    shared-memory task/result transport, liveness — and adds the
    ship-or-inline placement decision per ready instance/bucket.

    ``num_workers`` is the worker *process* count.  ``SHIP_MIN_BYTES``
    (class attribute; env override ``REPRO_PROCPOOL_SHIP_MIN``) is the
    minimum total input-array bytes for a task to be worth shipping.
    """

    #: ship a task only when its input arrays total at least this many
    #: bytes; smaller kernels run inline on the master (IPC dominates)
    SHIP_MIN_BYTES = 256
    #: pin-by-identity arrays at least this large (shipped weights)
    PIN_MIN_BYTES = 2048
    #: cap on pinned arrays per session (each pins its own segment)
    PIN_CAP = 512

    def __init__(self, runtime, num_workers: int = 4, cost_model=None,
                 record: bool = False, scheduler: str = "fifo",
                 max_depth: int = 5000, batching: bool = False,
                 batch_policy=None, memory_budget=None,
                 track_live_bytes: bool = False):
        super().__init__(runtime, num_workers=num_workers,
                         cost_model=cost_model, record=record,
                         scheduler=scheduler, max_depth=max_depth,
                         batching=batching, batch_policy=batch_policy,
                         memory_budget=memory_budget,
                         track_live_bytes=track_live_bytes)
        self._procs: list = []
        self._stopping = False
        self._stamp = None

    # -- pool lifecycle -------------------------------------------------------

    def _start_pool(self) -> None:
        ctx = mp.get_context("fork")
        self._ship_min = int(os.environ.get("REPRO_PROCPOOL_SHIP_MIN",
                                            self.SHIP_MIN_BYTES))
        self._registry_stale = False
        self._master_only_graphs: set = set()
        self._ship_masks: dict = {}
        self._plan_refs: dict = {}
        self._outstanding: dict = {}
        self._task_seq = itertools.count()
        self._shipped_tasks = 0
        self._inline_tasks = 0
        #: wavefront feed coalescing (one queue put per worker per
        #: wavefront instead of one per task; see _send_task)
        self._coalesce_feed = os.environ.get(
            "REPRO_PROCPOOL_COALESCE", "1") != "0"
        self._feed_buffer = None
        self._feed_puts = 0
        self._feed_tasks = 0
        self._pinned: dict = {}
        self._pinned_segs: list = []
        self._result_segs: dict = {}
        self._arena = _Arena()
        self._stopping = False
        # the master loops read these queue attributes; replacing the
        # SimpleQueues from _begin_session here (before any worker or
        # master thread starts) keeps the base-class loops untouched
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._recycle_qs = [ctx.Queue() for _ in range(self.num_workers)]
        # stamp, then fork: workers inherit graphs, registry and plans
        # as of this instant, and every task carries the stamp
        self._stamp = registry_version()
        self._procs = []
        for wid in range(self.num_workers):
            proc = ctx.Process(target=self._worker_main,
                               args=(wid, self._tasks, self._results,
                                     self._recycle_qs[wid]),
                               daemon=True)
            proc.start()
            self._procs.append(proc)

    def _stop_pool(self) -> None:
        self._stopping = True
        for _ in self._procs:
            try:
                self._tasks.put(_STOP_TOKEN)
            except Exception:
                pass
        deadline = time.perf_counter() + 5.0
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.perf_counter()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs = []
        for q in (self._tasks, self._results, *self._recycle_qs):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass
        # master-owned segments: close + unlink; worker result segments:
        # the worker unlinks its own on clean exit, but unlink here too
        # so a terminated worker cannot leak /dev/shm space
        for seg in self._result_segs.values():
            seg.close()
            seg.unlink()
        self._result_segs.clear()
        for seg in self._pinned_segs:
            seg.close()
            seg.unlink()
        self._pinned_segs.clear()
        self._pinned.clear()
        self._arena.destroy()
        self._outstanding.clear()

    # -- pool mechanics hooks (see WorkerPoolEngine) --------------------------

    def _is_wake(self, item) -> bool:
        return item == _WAKE_TOKEN

    def _post_wake(self) -> None:
        self._results.put(_WAKE_TOKEN)

    def _check_health(self) -> None:
        """Turn a dead worker process into a sticky session error.

        Runs on the master whenever its result wait times out, so a
        crash surfaces within one poll interval: in-flight requests
        fail through the error listener, ``drain()`` raises, and the
        error stays sticky exactly like a failed kernel — never a hang.
        """
        if self._stopping or self._error is not None:
            return
        for wid, proc in enumerate(self._procs):
            if not proc.is_alive():
                self._set_error(EngineError(
                    f"procpool worker {wid} (pid {proc.pid}) died "
                    f"unexpectedly (exitcode {proc.exitcode}); "
                    "the session is failed"), None)
                return

    # -- placement: ship to a worker, or run inline on the master -------------

    def _submit_single(self, inst: Instance, inputs: list) -> None:
        if not self._try_ship_single(inst, inputs):
            self._run_inline(inst, inputs)

    def _submit_bucket_task(self, bucket, fused: bool) -> None:
        if not self._try_ship_bucket(bucket, fused):
            self._run_inline(bucket, fused)

    def _run_inline(self, payload, extra) -> None:
        # same completion route as a worker result: _execute_task
        # produces the canonical item, _apply consumes it
        self._inflight += 1
        self._inline_tasks += 1
        self._apply(self._execute_task(payload, extra))

    def _ship_mask(self, plan) -> list:
        mask = self._ship_masks.get(plan)
        if mask is None:
            mask = []
            for slot in range(plan.num_slots):
                d = plan.defs[slot]
                op = plan.ops[slot]
                mask.append(
                    not d.is_async and not d.stateful
                    and d.kernel is not None
                    and not any(getattr(t.dtype, "opaque", False)
                                for t in op.outputs)
                    and not any(getattr(t.dtype, "opaque", False)
                                for t in op.inputs)
                    and _plain_data(op.attrs))
            self._ship_masks[plan] = mask
        return mask

    @staticmethod
    def _values_ship_bytes(inputs: list) -> int:
        """Byte total of a value list when transportable, -1 otherwise."""
        total = 0
        for v in inputs:
            if isinstance(v, np.ndarray):
                # discontiguous views stay inline: their exact strides
                # cannot cross the wire, and relayouting them would
                # change BLAS reduction order (bit-identity bar)
                if (v.dtype.hasobject
                        or not (v.flags.c_contiguous
                                or v.flags.f_contiguous)):
                    return -1
                total += v.nbytes
            elif isinstance(v, np.generic):
                if v.dtype.hasobject:
                    return -1
                total += v.nbytes
            elif not isinstance(v, _INLINE_VALUES):
                return -1
        return total

    def _shippable(self, inst: Instance, inputs: list) -> int:
        """Input-array byte total when shippable, -1 when master-only."""
        plan = inst.frame.plan
        if plan.graph_id in self._master_only_graphs:
            return -1
        if not self._ship_mask(plan)[inst.slot]:
            return -1
        return self._values_ship_bytes(inputs)

    def _ship_open(self) -> bool:
        if not self._procs or self._stopping or self._error is not None:
            return False
        if registry_version() != self._stamp:
            # registry mutated after the pool forked: worker-side plans
            # are stale.  Flip to inline execution for the rest of the
            # session — the master's own plan caches revalidate, so
            # results stay correct; only the parallelism is lost.
            self._registry_stale = True
        return not self._registry_stale

    def _plan_ref(self, plan) -> tuple:
        ref = self._plan_refs.get(plan)
        if ref is None:
            # strong plan ref doubles as a keep-alive for the cache key
            ref = self._plan_refs[plan] = (plan.graph_id, plan.op_ids)
        return ref

    # -- feed-queue coalescing ------------------------------------------------

    def _dispatch(self) -> bool:
        # Buffer this wavefront's shipped tasks and flush them as one
        # multi-task message per worker: each feed-queue put pays a
        # pickle + queue-lock round trip that sub-millisecond kernels
        # amortize badly.
        if not self._coalesce_feed or self._feed_buffer is not None:
            return super()._dispatch()
        self._feed_buffer = buf = []
        try:
            return super()._dispatch()
        finally:
            self._feed_buffer = None
            if buf:
                self._flush_feed_buffer(buf)

    def _send_task(self, msg) -> None:
        """Queue one task message, or file it with the wavefront buffer."""
        buf = self._feed_buffer
        if buf is None:
            self._feed_puts += 1
            self._feed_tasks += 1
            self._tasks.put(msg)
        else:
            buf.append(msg)

    def _flush_feed_buffer(self, buf) -> None:
        """Send buffered tasks, round-robin chunked across the workers."""
        self._feed_tasks += len(buf)
        if len(buf) == 1:
            self._feed_puts += 1
            self._tasks.put(buf[0])
            return
        n = min(len(self._procs) or 1, len(buf))
        for i in range(n):
            self._feed_puts += 1
            self._tasks.put(("tm", buf[i::n]))

    def _try_ship_single(self, inst: Instance, inputs: list) -> bool:
        if not self._ship_open():
            return False
        total = self._shippable(inst, inputs)
        if total < self._ship_min:
            return False
        seg, descs = _encode_lists([inputs], self._arena.acquire,
                                   self._pinned_desc)
        tid = next(self._task_seq)
        self._outstanding[tid] = (inst, inputs, seg)
        self._inflight += 1
        self._shipped_tasks += 1
        self._send_task(("t", tid, self._stamp, (self._plan_ref(
            inst.frame.plan),), ((0, inst.slot, descs[0]),), "s", False))
        return True

    def _try_ship_bucket(self, bucket, fused: bool) -> bool:
        if not self._ship_open():
            return False
        total = 0
        for inst, inputs in zip(bucket.instances, bucket.inputs):
            t = self._shippable(inst, inputs)
            if t < 0:
                return False
            total += t
        if total < self._ship_min:
            return False
        plan_table: list = []
        plan_index: dict = {}
        members = []
        seg, descs = _encode_lists(bucket.inputs, self._arena.acquire,
                                   self._pinned_desc)
        for inst, row in zip(bucket.instances, descs):
            plan = inst.frame.plan
            idx = plan_index.get(plan)
            if idx is None:
                idx = plan_index[plan] = len(plan_table)
                plan_table.append(self._plan_ref(plan))
            members.append((idx, inst.slot, row))
        tid = next(self._task_seq)
        self._outstanding[tid] = (bucket, fused, seg)
        self._inflight += 1
        self._shipped_tasks += 1
        self._send_task(("t", tid, self._stamp, tuple(plan_table),
                         tuple(members), "b", fused))
        return True

    # -- compiled sweeps ------------------------------------------------------

    def _level_pool_open(self) -> bool:
        """Compiled-sweep calls stay on the master.  A call's operands
        are whole columns; the task format ships per-member rows, and
        slicing columns back into rows to cross the process boundary is
        exactly the per-member work a sweep no longer does."""
        return False

    def _pinned_desc(self, arr: np.ndarray):
        """Descriptor for a pinned (persistently resident) array.

        Large arrays shipped repeatedly — weights read once per frame —
        are written to a dedicated segment once and referenced by
        descriptor afterwards.  Keyed by object identity with a strong
        reference (the id stays valid, and the runtime's variable store
        replaces arrays instead of mutating them, so the pinned bytes
        cannot go stale — kernels must not mutate their inputs, which
        in-process engines already rely on).
        """
        if arr.nbytes < self.PIN_MIN_BYTES:
            return None
        key = id(arr)
        hit = self._pinned.get(key)
        if hit is not None:
            return hit[1]
        if len(self._pinned) >= self.PIN_CAP:
            return None
        if arr.flags.c_contiguous:
            src, order = arr, "C"
        elif arr.flags.f_contiguous:
            src, order = arr.T, "F"
        else:
            return None
        seg = _Segment(size=max(src.nbytes, 1), create=True)
        if src.nbytes:
            dst = np.frombuffer(seg.buf, dtype=src.dtype, count=src.size)
            np.copyto(dst, src.reshape(-1))
        desc = ("nd", seg.name, 0, arr.dtype.str, arr.shape, order)
        self._pinned[key] = (arr, desc)
        self._pinned_segs.append(seg)
        return desc

    # -- completions ----------------------------------------------------------

    def _resolve_result_seg(self, name: str) -> _Segment:
        seg = self._result_segs.get(name)
        if seg is None:
            seg = self._result_segs[name] = _Segment(name=name)
        return seg

    def _apply(self, item) -> None:
        kind = item[0]
        if kind == "t-done":
            self._apply_done(item)
        elif kind == "t-err":
            self._apply_worker_error(item)
        elif kind == "t-noplan":
            self._apply_noplan(item)
        else:
            super()._apply(item)

    def _pop_task(self, tid: int):
        payload, extra, seg = self._outstanding.pop(tid)
        if seg is not None:
            self._arena.release(seg)
        return payload, extra

    def _apply_done(self, item) -> None:
        _, tid, wid, seg_name, out_descs = item
        payload, extra = self._pop_task(tid)
        try:
            outputs_list = _decode_lists(out_descs, self._resolve_result_seg,
                                         copy=True)
        except Exception as exc:
            op = (payload.op if isinstance(payload, Instance)
                  else payload.instances[0].op)
            super()._apply(("error", op, exc))
            return
        finally:
            if seg_name is not None:
                # outputs copied out (or abandoned): let the worker
                # reuse its result segment
                self._recycle_qs[wid].put(seg_name)
        if isinstance(payload, Instance):
            super()._apply(("single", payload, outputs_list[0]))
        else:
            super()._apply(("bucket", payload, outputs_list, extra))

    def _apply_worker_error(self, item) -> None:
        _, tid, exc = item
        entry = self._outstanding.pop(tid, None)
        if entry is None:
            # bootstrap failure: no task attached, fail the session
            err = (exc if isinstance(exc, EngineError)
                   else EngineError(str(exc)))
            self._set_error(err, None)
            return
        payload, extra, seg = entry
        if seg is not None:
            self._arena.release(seg)
        op = (payload.op if isinstance(payload, Instance)
              else payload.instances[0].op)
        super()._apply(("error", op, exc))

    def _apply_noplan(self, item) -> None:
        # the worker has no graph for this task (created after the
        # fork): run it inline and stop shipping that graph
        _, tid, gid = item
        payload, extra = self._pop_task(tid)
        self._master_only_graphs.add(gid)
        self._inline_tasks += 1
        super()._apply(self._execute_task(payload, extra))

    # -- worker process -------------------------------------------------------

    def _worker_main(self, wid: int, tasks, results, recycle) -> None:
        """Forked worker: decode descriptors, run kernels, encode back.

        Never touches master state: the engine object it sees is a fork
        snapshot used only for the runtime reference in pure kernels'
        ``ctx`` (which they ignore by contract) and the config.
        """
        if registry_version() != self._stamp:
            # bootstrap invariant: the fork happened on the stamping
            # thread immediately after the stamp, so any mismatch means
            # worker-side plan caches would be stale from birth
            results.put(("t-err", -1, EngineError(
                "procpool worker bootstrapped with a stale op registry "
                f"(worker at version {registry_version()}, master "
                f"stamped {self._stamp})")))
            return
        arena = _Arena()
        attached: dict[str, _Segment] = {}

        def resolve(name: str) -> _Segment:
            seg = attached.get(name)
            if seg is None:
                seg = attached[name] = _Segment(name=name)
            return seg

        ctx = ExecContext(self.runtime, None, False)
        plans: dict = {}
        try:
            while True:
                msg = tasks.get()
                if msg == _STOP_TOKEN:
                    return
                while True:  # recycle feed: reclaim returned segments
                    try:
                        arena.release_name(recycle.get_nowait())
                    except queue.Empty:
                        break
                if msg[0] == "tm":  # coalesced wavefront chunk
                    for m in msg[1]:
                        self._worker_task(m, wid, results, arena, resolve,
                                          ctx, plans)
                else:
                    self._worker_task(msg, wid, results, arena, resolve,
                                      ctx, plans)
        finally:
            for seg in attached.values():
                seg.close()
            arena.destroy()

    def _worker_task(self, msg, wid, results, arena, resolve, ctx,
                     plans) -> None:
        _, tid, stamp, plan_table, members, kind, fused = msg
        seg = None
        try:
            if stamp != registry_version():
                raise EngineError(
                    "op registry mutated after procpool start: worker "
                    "plans are stale (restart the session to pick up "
                    "new registrations)")
            resolved = []
            for gid, op_ids in plan_table:
                plan = plans.get((gid, op_ids))
                if plan is None:
                    graph = graph_by_id(gid)
                    if graph is None or graph.num_operations <= op_ids[-1]:
                        results.put(("t-noplan", tid, gid))
                        return
                    plan = plan_for(graph, op_ids)
                    plans[(gid, op_ids)] = plan
                resolved.append(plan)
            inputs_list = _decode_lists([m[2] for m in members], resolve,
                                        copy=False)
            if kind == "s":
                pidx, slot, _ = members[0]
                plan = resolved[pidx]
                outputs_list = [plan.defs[slot].kernel(
                    plan.ops[slot], inputs_list[0], ctx)]
            else:
                ops, defs = [], []
                for pidx, slot, _ in members:
                    plan = resolved[pidx]
                    ops.append(plan.ops[slot])
                    defs.append(plan.defs[slot])
                if fused:
                    outputs_list = defs[0].batched_kernel(
                        ops, inputs_list, [ctx] * len(ops))
                    if len(outputs_list) != len(ops):
                        raise EngineError(
                            f"batched kernel of {ops[0].op_type} returned "
                            f"{len(outputs_list)} results for "
                            f"{len(ops)} members")
                else:
                    outputs_list = [
                        d.kernel(op, inputs, ctx)
                        for d, op, inputs in zip(defs, ops, inputs_list)]
            seg, out_descs = _encode_lists(outputs_list, arena.acquire)
            reply = ("t-done", tid, wid,
                     seg.name if seg is not None else None, out_descs)
            # a pickling failure inside the queue's feeder thread would
            # silently drop the message and hang the master; verify here
            pickle.dumps(reply)
            results.put(reply)
        except Exception as exc:  # noqa: BLE001 - shipped to the master
            if seg is not None:
                arena.release(seg)
            results.put(("t-err", tid, _picklable_exc(exc)))


if "fork" in mp.get_all_start_methods():
    register_executor("procpool", ProcPoolEngine)
