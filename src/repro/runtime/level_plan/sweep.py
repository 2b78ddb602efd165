"""Sweep: a fixed sequence of block dispatches.

Gather the imports, run the stacked kernels back to back over registers
(one array per step output, members on axis 0), publish the exports as
columns, hand recorded columns to the value cache whole
(``store_column``: deferred).  No frames are spawned, no signatures
matched, no per-member Python runs.  This is the one module that knows
the column kinds: an ``ndarray`` with members on axis 0, a list of row
values, an :class:`_Inv` or a :class:`_Rag`.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter, namedtuple

import numpy as np

from repro.graph.registry import ExecContext

from ..scheduler import EngineError, SchedulerCore, _values_bytes, densify
from ..stats import RunStats
from ..variables import order_key
from .forest import LevelPlan

#: stand-in for :class:`Frame` inside compiled ExecContexts: kernels only
#: touch ``ctx.frame.key`` (cache / accumulator order keys) and ``.record``
_CFrame = namedtuple("_CFrame", "key record")


class _Inv:
    """A column whose every row is the same value: an invariant, or a
    feed all merged runs share.  Never copied per member — kernels get
    it as a shared operand."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Rag:
    """A column whose rows agree on dtype and rank but not on shape (the
    per-run feeds of a merged forest): one flat ``values`` array and per
    row its start ``off`` and its ``shape`` (an ``[n, rank]`` array).
    Selecting rows is index arithmetic on ``off`` and ``shape``; the one
    consumer that reads it in place is ``Gather`` on axis 0
    (:func:`_rag_gather`), every other reader gets :meth:`rows`."""

    __slots__ = ("values", "off", "shape")

    def __init__(self, values, off, shape):
        self.values, self.off, self.shape = values, off, shape

    @property
    def nbytes(self) -> int:
        """The rows' bytes, as a list column of them would count."""
        return int(self.shape.prod(1).sum()) * self.values.itemsize

    def rows(self) -> list:
        """The row values: views of ``values``."""
        return [self[i] for i in range(len(self.off))]

    def __getitem__(self, rows):
        """One row's value (a view) for an ``int``, else the selected
        rows."""
        if rows.__class__ is int:
            o, s = int(self.off[rows]), tuple(self.shape[rows].tolist())
            return self.values[o:o + math.prod(s)].reshape(s)
        return _rag_column(self.values, self.off[rows], self.shape[rows])


def _rag_column(values, off, shape):
    """Rows of ``values`` as a :class:`_Rag` — or, once every row has one
    shape, as an array column through one fancy index."""
    if not shape.shape[1]:   # scalar rows
        return values[off]
    first = shape[0]
    if not (shape == first).all():
        return _Rag(values, off, shape)
    first = tuple(first.tolist())
    return values[off[:, None] + np.arange(math.prod(first))].reshape(
        (len(off),) + first)


def _feed_column(values: list):
    """The column of one feed over a forest's runs: shared, stacked, or
    ragged when the runs' arrays agree on dtype and rank only."""
    first = values[0]
    if not (first.__class__ is np.ndarray and first.ndim and all(
            v.__class__ is np.ndarray and v.dtype == first.dtype
            and v.ndim == first.ndim for v in values)) \
            or all(v.shape == first.shape for v in values):
        return _column(values)
    off = np.array([0, *itertools.accumulate(v.size for v in values)],
                   dtype=np.intp)[:-1]
    return _Rag(np.concatenate([v.reshape(-1) for v in values]), off,
                np.array([v.shape for v in values], dtype=np.intp))


def _rag_gather(params, idx, shared):
    """``Gather`` on axis 0 of ragged ``params``: each row is
    ``np.take(params_r, idx_r, axis=0)`` for one integer index per row
    (``shared``: one for all), as offsets into the same values.  None
    when an index shape is not that, or an index is out of range: the
    row loop then raises the scalar kernel's own error."""
    idx, shape = np.asarray(idx), params.shape
    rank = shape.shape[1]
    if (idx.ndim != (0 if shared else 1) or idx.dtype.kind not in "iu"
            or idx.dtype == np.uint64 or not rank):
        return None
    n = shape[:, 0]
    if shared:
        i, lo = int(idx), int(n.min())
        if not -lo <= i < lo:
            return None
        idx = i if i >= 0 else i + n
    else:
        if idx.min() < 0:
            idx = np.where(idx < 0, idx + n, idx)
        if idx.min() < 0 or (idx >= n).any():
            return None
    if rank == 1:   # scalar rows
        return params.values[params.off + idx]
    inner = shape[:, 1:]
    return _rag_column(params.values, params.off + idx * (
        inner[:, 0] if rank == 2 else inner.prod(1)), inner)


def _as_column(values: list):
    """Stack row values into an array column when they agree on dtype and
    shape; otherwise keep the list (its consumers loop over rows)."""
    first = values[0]
    if not isinstance(first, (np.ndarray, np.generic)):
        return values
    shape, dtype = first.shape, first.dtype
    for v in values:
        if not (isinstance(v, (np.ndarray, np.generic))
                and v.shape == shape and v.dtype == dtype):
            return values
    return np.stack(values)


def _column(values: list):
    """Row values as a column: shared when every row is one value, else
    as :func:`_as_column` stacks them."""
    first = values[0]
    return (_Inv(first) if all(v is first for v in values)
            else _as_column(values))


def _take(col, rows):
    """Member ``rows`` of a producer column: a view for a slice, offset
    arithmetic for a ragged column."""
    if rows.__class__ is slice:
        return _as_column(col[rows]) if col.__class__ is list else col[rows]
    if col.__class__ is list:
        return _as_column([col[i] for i in rows])
    if col.__class__ is _Rag:
        return col[rows]
    return col.take(rows, 0)


def _rows(value, n: int):
    """``n`` rows of one shared value: an invariant part of a merged
    operand, filled directly (never a Python-level broadcast + copy)."""
    if isinstance(value, (np.ndarray, np.generic)):
        piece = np.empty((n,) + value.shape, value.dtype)
        piece[...] = value
        return piece
    return [value] * n


def _join(pieces: list):
    """Concatenate the parts of one operand into member order."""
    first = pieces[0]
    if all(p.__class__ is np.ndarray and p.dtype == first.dtype
           and p.shape[1:] == first.shape[1:] for p in pieces):
        return np.concatenate(pieces)
    if first.__class__ is _Rag and all(
            p.__class__ is _Rag and p.values.dtype == first.values.dtype
            and p.shape.shape[1] == first.shape.shape[1] for p in pieces):
        return _join_ragged(pieces)
    # producers disagree on member shape or dtype: a list column
    return [v for p in pieces for v in _rows_of(p)]


def _join_ragged(pieces):
    """Ragged pieces of one dtype and row rank as one column: their
    offsets shifted into one values array — the pieces' own when they
    all share it."""
    shape = np.concatenate([p.shape for p in pieces])
    values = pieces[0].values
    if all(p.values is values for p in pieces):
        return _rag_column(values, np.concatenate([p.off for p in pieces]),
                       shape)
    base = itertools.accumulate((p.values.size for p in pieces[:-1]),
                                initial=0)
    return _rag_column(np.concatenate([p.values for p in pieces]),
                   np.concatenate([p.off + b for p, b in zip(pieces, base)]),
                   shape)


def _rows_of(col):
    """A column's row values to iterate: a ragged column's rows."""
    return col.rows() if col.__class__ is _Rag else col


class _Sweep:
    """Mutable state of one wavefront sweep: the runs and their columns
    (``cols[cid][out]``: ndarray with rows on axis 0, a list of row
    values, an :class:`_Inv` or a :class:`_Rag`), then the sweep's slabs
    (``cols[sid]``: ``None`` until its first producer fills it, then an
    ndarray — or a list of row values once a producer's rows do not fit
    one array)."""

    __slots__ = ("core", "lp", "runs", "dead", "cols", "ctx", "bytes",
                 "prefixed", "held")

    def __init__(self, core, lp, runs):
        self.core, self.lp, self.runs = core, lp, runs
        #: per run: cancelled — its pure rows keep flowing (the index
        #: wiring is fixed), its stores, stateful rows, predicate checks
        #: and result are dropped
        self.dead = None
        self.cols = [None] * (len(lp.step_m) + len(lp.slabs))
        self.cols[0] = [_Inv(np.bool_(True))]
        #: shared by every pure kernel; kernels that read ``ctx.frame``
        #: are stateful and get one context per row
        self.ctx = ExecContext(core.runtime, None, False)
        self.bytes = {} if core._track_live else None
        self.prefixed = any(run.prefix for run in runs)
        #: every slab array, weakly, by its id (see :meth:`own`)
        self.held = {}

    def refresh(self) -> bool:
        """Note runs cancelled since the last poll; False when none is
        left to compute for."""
        if any(run.cancelled for run in self.runs):
            self.dead = np.array([run.cancelled for run in self.runs])
            return not self.dead.all()
        return True

    def operand(self, spec):
        """Gather one wired import: a column in member order."""
        if len(spec) == 2:   # a slab
            return _take(self.cols[spec[0]], spec[1])
        cid, out, rows = spec
        col = self.cols[cid][out]
        if col.__class__ is _Inv:
            return col
        if rows is None:
            return _as_column(col) if col.__class__ is list else col
        return _take(col, rows)

    def own(self, col):
        """A view handed out of the sweep — stored, or kept by a stateful
        kernel: a copy of its rows when it views a slab, which it must
        not keep alive."""
        slab = self.held.get(id(col.base))
        return col.copy() if slab is not None and slab() is col.base else col

    def fill(self, sid, a, b, cid, out) -> None:
        """Write output ``out`` of column group ``cid`` into rows ``a:b``
        of slab ``sid`` — a shared value into every row — allocating the
        slab on its first write.  A block column written there is read
        from there on: the slab rows replace it.  A producer whose rows
        do not fit the slab's array exactly (a list or ragged column,
        another dtype or row shape, a value that is no array) turns the
        slab into a list of its rows, the rows already written as views:
        never a cast, a broadcast of rows or a truncation."""
        cols, group = self.cols, self.cols[cid]
        slab, col = cols[sid], group[out]
        shared = col.__class__ is _Inv
        value = col.value if shared else col
        if slab.__class__ is not list and (value.__class__ is np.ndarray
                                           or isinstance(value, np.generic)):
            shape = value.shape if shared else value.shape[1:]
            if slab is None:
                n = self.lp.slabs[sid - len(self.lp.step_m)]
                slab = cols[sid] = np.empty((n,) + shape, value.dtype)
                self.held[id(slab)] = weakref.ref(slab)
                if self.bytes is not None:
                    self.bytes[sid] = slab.nbytes
                    _grow(self.core, slab.nbytes)
            if slab.dtype == value.dtype and slab.shape[1:] == shape:
                slab[a:b] = value
                if not shared:   # the group's list is the sweep's own
                    group[out] = slab[a:b]
                    if self.bytes is not None and cid in self.bytes:
                        self.bytes[cid] -= value.nbytes
                        self.core._live_bytes -= value.nbytes
                return
        if slab is None:
            slab = cols[sid] = [None] * self.lp.slabs[
                sid - len(self.lp.step_m)]
        elif slab.__class__ is not list:
            slab = cols[sid] = list(slab)
        slab[a:b] = [value] * (b - a) if shared else _rows_of(value)

    def keys(self, runs, sufs) -> list:
        """Full frame keys: each run's root key plus the frame suffix."""
        if not self.prefixed:
            return sufs
        prefixes = [run.prefix for run in self.runs]
        return [prefixes[r] + s for r, s in zip(runs, sufs)]


class _BlockCall:
    """One dispatch of a sweep: a block with its imports gathered into
    registers.  The calls of one level are all built before any of them
    executes; :meth:`execute` runs every kernel of the block back to
    back over the call's own registers."""

    __slots__ = ("sweep", "blk", "regs", "live")

    def __init__(self, sweep, blk):
        self.sweep, self.blk = sweep, blk
        prog = blk.prog
        # the imports' registers follow the steps'
        imports = [sweep.operand(spec) for spec in blk.imports]
        self.regs = regs = [None] * (prog.n_regs - len(imports)) + imports
        self.live = {}
        for st in prog.feeds:
            try:
                values = [run.feed[st.op.id] for run in sweep.runs]
            except KeyError:
                raise EngineError(
                    f"placeholder {st.op.name} was not fed") from None
            regs[st.reg] = _feed_column(values)
            sweep.cols[blk.base + st.xi] = [regs[st.reg]]

    def read(self, src, part=False):
        """One register read outside the kernel loop: a check, a store,
        a concatenated operand (whose ``part``s materialise a shared
        value's rows)."""
        reg, k0, k1 = src
        m = self.blk.m
        if reg.__class__ is tuple:
            if k0 is not None and self.regs[k0].__class__ is _Inv:
                return self.regs[k0]
            return _join([self.read(piece, True) for piece in reg])
        col = self.regs[reg]
        if col.__class__ is _Inv:
            return _rows(col.value, (k1 - k0) * m) if part else col
        if k0 is None:
            return _as_column(col) if col.__class__ is list else col
        return _take(col, slice(k0 * m, k1 * m))

    def execute(self) -> None:
        """Run the block.  A step whose operands are all shared runs its
        scalar kernel once; one with a stacked (or, stateful, a keyed)
        kernel and array operands is one columnar call; anything else
        (no columnar form, members disagreeing on shape, a kernel
        declining) loops the scalar kernel over rows.  EngineError
        passes through, any other error is wrapped with the offending
        op — never the block.  Then drops the columns nobody reads
        again."""
        sweep, blk, regs = self.sweep, self.blk, self.regs
        prog, m, cols = blk.prog, blk.m, sweep.cols
        ctx, once = sweep.ctx, prog.once
        track = sweep.bytes is not None
        level = 0
        for check in prog.checks:
            self._verify(*check)
        op = None
        try:
            for st in prog.steps:
                defn, op = st.defn, st.op
                operands, inv, stackable, ragged = [], [], True, False
                for reg, k0, k1 in st.inputs:
                    if reg.__class__ is tuple:
                        o = self.read((reg, k0, k1))
                    elif k0 is None or regs[reg].__class__ is _Inv:
                        o = regs[reg]
                    else:  # merged-op rows: a view, or offset arithmetic
                        o = regs[reg][k0 * m:k1 * m]
                    inv.append(o.__class__ is _Inv)
                    if o.__class__ is np.ndarray:
                        operands.append(o)
                        continue
                    if o.__class__ is _Inv:
                        o = o.value
                        if not (o.__class__ is np.ndarray
                                or isinstance(o, np.generic)):
                            stackable = False
                    elif o.__class__ is _Rag:
                        ragged = True
                    else:  # rows that disagree on shape: a list column
                        o = _as_column(o)
                        stackable = o.__class__ is np.ndarray and stackable
                    operands.append(o)
                if track and st.level != level:
                    self._release(level, st.level)
                    level = st.level
                if ragged:
                    outs = self._ragged_step(st, operands, inv)
                elif once or not (defn.stateful or False in inv):
                    outs = [_Inv(v) for v in defn.kernel(op, operands, ctx)]
                elif defn.stateful:
                    outs = self._stateful(st, operands, inv, stackable)
                else:
                    kernel = defn.stacked_kernel if stackable else None
                    outs = (None if kernel is None
                            else kernel(op, operands, tuple(inv), ctx))
                    if outs is None:
                        outs = self._loop(st, operands, inv, None)
                    elif (len(outs) != st.n_out
                          or len(outs[0]) != m * len(st.ops)):
                        raise EngineError(
                            f"stacked kernel for {op.op_type} returned a "
                            f"malformed result for {m * len(st.ops)} members")
                if st.n_out == 1:
                    regs[st.reg] = outs[0]
                else:
                    regs[st.reg:st.reg + st.n_out] = outs
                if st.xi >= 0:
                    cols[blk.base + st.xi] = outs
                if track and st.scratch:
                    self._born(st, outs)
                for check in st.checks:
                    self._verify(*check)
        except EngineError:
            raise
        except Exception as exc:  # noqa: BLE001 - wrapped like the dynamic path
            raise SchedulerCore._wrap_error(exc, op) from exc
        for cid, out, sid, a, b in blk.slabs:
            sweep.fill(sid, a, b, cid, out)
        if prog.stores:
            # recorded columns are handed over whole, before their
            # registers die: compiled CacheLookups read the columns, and
            # the cache splits one into rows only if somebody looks
            store, dead = sweep.core.runtime.cache.store_column, sweep.dead
            for src, fi, gid, oid, i in prog.stores:
                runs, sufs, _ = blk.keys[fi]
                keys, col = sweep.keys(runs, sufs), _rows_of(self.read(src))
                shared = col.__class__ is _Inv
                if dead is not None:
                    live = np.flatnonzero(~dead[runs])
                    keys = [keys[j] for j in live]
                    col = col if shared else _take(col, live)
                if col.__class__ is np.ndarray and col.base is not None:
                    col = sweep.own(col)
                store(keys, gid, oid, i, col.value if shared else col, shared)
        if track:
            self._release(level, prog.n_levels)
        else:
            for _, cid in blk.release:
                cols[cid] = None

    def _ragged_step(self, st, operands, inv) -> list:
        """A step with ragged operands: ``Gather`` on axis 0 reads its
        ragged params in place; anything else — another op, an index
        :func:`_rag_gather` declines — gets the rows as list columns and
        loops over them like any list column."""
        params = operands[0]
        if st.op.op_type == "Gather" and params.__class__ is _Rag \
                and operands[1].__class__ is not _Rag:
            out = _rag_gather(params, operands[1], inv[1])
            if out is not None:
                return [out]
        rows = [_rows_of(o) for o in operands]
        if st.defn.stateful:
            return self._stateful(st, rows, inv, False)
        return self._loop(st, rows, inv, None)

    def _loop(self, st, operands, inv, ctxs) -> list:
        """The single fallback: the scalar kernel over rows (``ctxs``:
        per-row contexts of a stateful step, else the shared one)."""
        loops = self.sweep.core.stats.level_row_loop_steps
        loops[st.op.op_type] = loops.get(st.op.op_type, 0) + 1
        rows = len(ctxs) if ctxs else self.blk.m * len(st.ops)
        members = (zip(*([o] * rows if shared else o
                         for o, shared in zip(operands, inv)))
                   if operands else [()] * rows)
        results = [st.defn.kernel(st.op, list(ins), ctx) for ins, ctx
                   in zip(members, ctxs or [self.sweep.ctx] * rows)]
        return [_column([outs[j] for outs in results])
                for j in range(st.n_out)]

    def _stateful(self, st, operands, inv, stackable) -> list:
        """A stateful step: members' order keys for the keyed entry,
        else one frame-keyed context per row.  While some runs are
        cancelled only the live rows execute; cancelled rows inherit a
        live row's outputs (nothing of a cancelled run is ever stored,
        accumulated or returned)."""
        sweep, blk, defn = self.sweep, self.blk, st.defn
        frames = [blk.keys[o.frame] for o in st.ops]  # op-major, like rows
        keyed = defn.keyed_kernel is not None and True not in inv
        if keyed:
            keys = blk.okeys.get(st.reg)
            if keys is None:
                op_id = st.op.id
                keys = [order_key((key, op_id)) for runs, sufs, _ in frames
                        for key in sweep.keys(runs, sufs)]
                if not sweep.prefixed:
                    blk.okeys[st.reg] = keys
        else:
            runtime = sweep.core.runtime
            keys = [ExecContext(runtime, _CFrame(key, rec), rec)
                    for runs, sufs, rec in frames
                    for key in sweep.keys(runs, sufs)]
        back = None
        if sweep.dead is not None:
            live = np.flatnonzero(~sweep.dead[[r for runs, _, _ in frames
                                               for r in runs]])
            if len(live) == 0:
                return [_Inv(None)] * st.n_out
            back = np.zeros(len(keys), dtype=np.intp)
            back[live] = np.arange(len(live))
            operands = [o if shared else _take(o, live)
                        for o, shared in zip(operands, inv)]
            keys = [keys[i] for i in live]
        operands = [sweep.own(o) if o.__class__ is np.ndarray
                    and o.base is not None else o for o in operands]
        outs = None
        if keyed:
            outs = defn.keyed_kernel(st.op, operands, keys, sweep.ctx)
        elif stackable and defn.stacked_kernel is not None:
            outs = defn.stacked_kernel(st.op, operands, tuple(inv), sweep.ctx)
        if outs is None:
            outs = self._loop(st, operands, inv, keys)
        elif len(outs) != st.n_out or len(outs[0]) != len(keys):
            raise EngineError(
                f"{'keyed' if keyed else 'stacked'} kernel for "
                f"{st.op.op_type} returned a malformed result for "
                f"{len(keys)} members")
        if back is None:
            return outs
        return [col if col.__class__ is _Inv else _take(col, back)
                for col in outs]

    def _verify(self, src, expected, name) -> None:
        """One vector compare per class per block: a ``Cond`` predicate
        against the branch the shape profile selected."""
        col, runs, dead = self.read(src), self.blk.runs, self.sweep.dead
        if col.__class__ is _Inv:
            wrong = np.full(len(runs), bool(np.asarray(col.value)) != expected)
        elif col.__class__ is list or col.__class__ is _Rag:
            wrong = np.array([bool(np.asarray(v))
                              for v in _rows_of(col)]) != expected
        else:
            wrong = col.astype(bool).reshape(-1) != expected
        if dead is not None:
            wrong &= ~dead[runs]
        if wrong.any():
            raise EngineError(
                f"shape profile mismatch at {name}"
                ": the fed data disagrees with the compiled branch decision")

    def _born(self, st, outs) -> None:
        """Live-bytes accounting: a step's outputs, as they are born."""
        added = sum(_values_bytes(col) if col.__class__ is list
                    else getattr(col, "nbytes", 0) for col in outs)
        if st.xi >= 0:
            self.sweep.bytes[self.blk.base + st.xi] = added
        else:
            self.live[st.reg] = added
        _grow(self.sweep.core, added)

    def _release(self, lo: int, hi: int) -> None:
        """Live-bytes accounting: what died at levels ``lo .. hi - 1`` —
        registers last read there, columns whose last reader sat there."""
        sweep, blk = self.sweep, self.blk
        freed = sum(self.live.pop(reg, 0) for level in range(lo, hi)
                    for reg in blk.prog.frees.get(level, ()))
        for level, cid in blk.release:
            if lo <= level < hi:
                sweep.cols[cid] = None
                freed += sweep.bytes.pop(cid, 0)
        sweep.core._live_bytes -= freed


def _grow(core, added: int) -> None:
    """Live-bytes accounting: ``added`` bytes were born."""
    peak = (core._live_bytes + added
            + core.runtime.accumulators.retained_bytes)
    core._live_bytes += added
    if peak > core.stats.peak_live_bytes:
        core.stats.peak_live_bytes = peak


def _tally(prog) -> tuple:
    """One block program's accounting per member count ``m``: its kernel
    calls; per op type the ops its bucket steps run per member, its
    bucket steps, and those of one merged op (a width of ``m``: no fused
    call when ``m`` is 1); per merged-op count ``k`` its bucket steps
    (width ``m * k``); per (signature prefix, ``k``) its bucket steps;
    its most merged ops."""
    ops, steps, single = Counter(), Counter(), Counter()
    by_k, by_sig = Counter(), Counter()
    for st in prog.steps:
        if st.booked:
            op_type, k = st.op.op_type, len(st.ops)
            ops[op_type] += k
            steps[op_type] += 1
            single[op_type] += k == 1
            by_k[k] += 1
            by_sig[op_type if st.prefix is None else st.prefix, k] += 1
    return (len(prog.steps) + len(prog.feeds), tuple(ops.items()),
            tuple(steps.items()), tuple(single.items()),
            tuple(by_k.items()), tuple(by_sig.items()), max(by_k, default=0))


def _book(sweep) -> None:
    """Account one sweep's ops exactly like the dynamic tier counts
    them: every op of every frame once, whatever step executed it, and
    one fused call per bucket step (width over 1, as ``note_batch``
    counts it) under its signature prefix (a sweep abandoned because
    every run was cancelled books nothing — best-effort stats under
    cancellation, like the dynamic path).  A merged forest, swept once,
    books straight into the session's stats; a memoised one-run plan
    books a RunStats delta once and merges it per sweep."""
    lp, stats = sweep.lp, sweep.core.stats
    if lp.lin is None:
        _book_into(stats, lp)
        return
    if lp.booked is None:
        lp.booked = RunStats()
        _book_into(lp.booked, lp)
    stats.merge(lp.booked)


def _book_into(stats, lp) -> None:
    """Add one sweep of ``lp`` to ``stats``.  The schedule is static, so
    the bookings are too: per block program a tally memoised on the
    template (:func:`_tally`), summed per plan — ops by the program's
    members, fused calls by its blocks, widths by its blocks' member
    counts."""
    tpl, ops = lp.template, {}
    for cls, members in zip(tpl.classes, lp.members):
        for op_type, count in cls.static if members else ():
            ops[op_type] = ops.get(op_type, 0) + count * members
    tallies, blocks = tpl.tallies, {}
    by_level = stats.level_width_hist
    for blk in (blk for level in lp.program for blk in level):
        tally = tallies.get(blk.prog)
        if tally is None:
            tally = tallies[blk.prog] = _tally(blk.prog)
        got = blocks.get(blk.prog)
        if got is None:
            got = blocks[blk.prog] = [tally, 0, {}]
        got[1] += blk.m
        got[2][blk.m] = got[2].get(blk.m, 0) + 1
        stats.level_kernel_calls += tally[0]
        if tally[4]:
            hist = by_level.setdefault(blk.hist, {})
            for k, n in tally[4]:
                hist[blk.m * k] = hist.get(blk.m * k, 0) + n
    stats.level_blocks += lp.n_blocks
    fused, by_sig = stats.batch_count_by_type, stats.batch_width_hist
    for (_, booked, steps, single, _, sigs, top), members, ms in \
            blocks.values():
        n, unit = sum(ms.values()), ms.get(1, 0)
        for op_type, c in booked:
            ops[op_type] = ops.get(op_type, 0) + c * members
            stats.batched_ops += c * members
        for (op_type, c), (_, c1) in zip(steps, single):
            calls = c * n - c1 * unit
            if calls:
                fused[op_type] = fused.get(op_type, 0) + calls
                stats.batches += calls
            stats.batched_ops -= c1 * unit
        for (sig, k), c in sigs:
            hist = by_sig.get(sig)
            for m, b in ms.items():
                if m * k > 1:
                    if hist is None:
                        hist = by_sig[sig] = {}
                    hist[m * k] = hist.get(m * k, 0) + c * b
        if top * max(ms) > stats.max_batch and top * max(ms) > 1:
            stats.max_batch = top * max(ms)
    counts, times = stats.per_type_count, stats.per_type_time
    for op_type, n in ops.items():  # a counted type also has a time entry
        counts[op_type] = counts.get(op_type, 0) + n
        times.setdefault(op_type, 0.0)
    stats.ops_executed += sum(ops.values())


def execute_level_plan(core: SchedulerCore, lp: LevelPlan, runs) -> list:
    """Execute one wavefront sweep for ``runs`` — the forest ``lp`` was
    instantiated for, in the same order, of any mix of shapes.

    Returns one entry per run: the fetched values, or ``None`` for runs
    cancelled before or during the sweep.
    """
    sweep = _Sweep(core, lp, runs)
    done = True
    for li, level in enumerate(lp.program):
        # cancellation is polled every few blocks: a cancelled run's
        # rows only stop mattering, they never have to stop flowing
        if not li & 3 and not sweep.refresh():
            done = False
            break
        for call in [_BlockCall(sweep, blk) for blk in level]:
            call.execute()
    if done:
        _book(sweep)
    if sweep.bytes is not None:
        core._live_bytes -= sum(sweep.bytes.values())

    def fetch(ref, r):
        cid, out, row = lp.fetch_ref(ref, r)
        col = sweep.cols[cid][out]
        # root fetches leave the runtime dense
        return densify(col.value if col.__class__ is _Inv else col[row])
    return [None if not done or run.cancelled
            else [fetch(ref, r) for ref in run.fetch_refs]
            for r, run in enumerate(runs)]
