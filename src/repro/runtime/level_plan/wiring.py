"""Wire: every import of every block of one forest, by class segment.

An *entry* is one import of one block: its members' (address, row)
pairs, op-major — member ``j`` of merged op ``k`` at ``k * m + j``.
Each class segment reads all of its imports over its population's
key-sorted members at once (:func:`operands`); :func:`wire` sorts the
elements of every entry of the forest together and decides each entry's
wiring with segmented numpy over the entry starts: one producer reads
the column itself (a slice, so the operand is a view of the column, as
kernels never write their inputs; else a ``take``), several producers
read their slab — :func:`_lay_slabs` joins the columns that
multi-producer entries read into slabs, the shared completion flag
(cid 0) included.  numpy calls are O(class segments); Python work per
entry only assembles its tuple.
"""

from __future__ import annotations

import numpy as np

from .block import _O


def _segments(x, starts):
    """Per segment of ``x``'s last axis (``starts``): True where it holds
    one value."""
    return (np.minimum.reduceat(x, starts, -1)
            == np.maximum.reduceat(x, starts, -1))


def operands(forest, cls, kind, refs, of) -> tuple:
    """One class segment's imports read over its population's key-sorted
    members, ``refs[t]`` for every member: per element its address and
    row (a ``[2, elements]`` array) and its entry — ``of[t]``'s import of
    the member's block."""
    pop = forest.pops[cls.count]
    ar = forest.resolve(cls, refs).take(pop.members[kind], 2)
    return (ar.transpose(1, 0, 2).reshape(2, -1),
            (np.array(of)[:, None] * forest.n_nodes + pop.blk[kind]).ravel())


def wire(forest, slots) -> tuple:
    """Wire every import of every class segment for all of its depths or
    heights.  ``slots`` are the blocks in program order.  Returns per slot
    its imports' specs (as :class:`.forest._Block` reads them), the rows
    per slab, the slab writes ``(cid, out, sid, a, b)`` in slab order,
    and per column group and per slab its last read — ``slot * levels +
    level``, -1 for none."""
    step_m, levels = forest.step_m, forest.levels
    where = {(cls.index, seg, key): i
             for i, (cls, seg, key, _) in enumerate(slots)}
    imports, flat, todo, progs = [()] * len(slots), [], [], []
    sizes, reader = [], []     # per entry: its elements, its read's key
    last = np.full(len(step_m), -1)
    for cls in forest.template.classes:
        for prog in cls.blocks:
            spans = forest.pops[cls.count].block[prog.kind]
            if not (spans and prog.n_levels and prog.imports):
                continue
            at = [where[cls.index, prog.seg, key] for key in spans]
            got, refs, of = [], [], []
            for rs, level, _ in prog.imports:
                if len(rs) == 1 and rs[0][0] == _O:   # an invariant
                    got.append([(rs[0][1], rs[0][2], None)] * len(at))
                    last[rs[0][1]] = max(last[rs[0][1]],
                                         max(at) * levels + level)
                    continue
                of += [len(todo)] * len(rs)
                refs += rs
                sizes += [len(rs) * m for _, _, m in spans.values()]
                reader += [slot * levels + level for slot in at]
                todo.append((got, len(got), len(at)))
                got.append(None)
            progs.append((got, at))
            if refs:
                flat.append(operands(forest, cls, prog.kind, refs, of))
    slabs, writes, reads = [], [], []
    if flat:
        slabs, writes, reads = _entries(forest, flat, todo, sizes, reader,
                                        last)
    for got, at in progs:   # per block its imports, in import order
        for i, specs in zip(at, zip(*got)):
            imports[i] = specs
    return imports, slabs, writes, last, reads


def _entries(forest, flat, todo, sizes, reader, last) -> tuple:
    """Wire every entry of the non-invariant imports, in place of the
    ``todo`` placeholders; note each column group's last read by one
    producer."""
    bits, mask, step_m = forest.bits, forest.mask, np.array(forest.step_m)
    ar, order = (np.concatenate(col, axis=-1) for col in zip(*flat))
    a, r = ar.take(order.argsort(kind="stable"), 1)
    size, rk = np.array(sizes), np.array(reader)
    es = size.cumsum() - size                       # entry starts
    local = np.arange(len(a)) - es.repeat(size)     # member-order row
    single, run = _segments(a, es), _segments(r - local, es)
    head, first = a[es], r[es]
    alias = run & (step_m[head >> bits] == size)
    one = single.repeat(size)
    if one.any():
        _last(last, a[one] >> bits, rk.repeat(size)[one])
    slab, slabs, writes, reads = _lay_slabs(forest, a, r, ~single, size, rk,
                                            step_m, last)
    out, q, own = [], 0, forest.own
    for s, m, h, f, ok, c, al in zip(
            es.tolist(), size.tolist(), head.tolist(), first.tolist(),
            single.tolist(), run.tolist(), alias.tolist()):
        if ok:
            out.append((h >> bits, h & mask, (None if al else slice(
                f, f + m)) if c else own(r[s:s + m])))
        else:
            out.append(slab[q])
            q += 1
    at = 0
    for got, i, n in todo:
        got[i] = out[at:at + n]
        at += n
    return slabs, writes, reads


def _last(last, cids, keys) -> None:
    """Raise ``last[cid]`` to the greatest of its ``keys``."""
    by = (cids * (int(keys.max()) + 1) + keys).argsort(kind="stable")
    cids, keys = cids[by], keys[by]
    ends = np.concatenate(((cids[1:] != cids[:-1]).nonzero()[0],
                           [len(cids) - 1]))
    last[cids[ends]] = np.maximum(last[cids[ends]], keys[ends])


def _lay_slabs(forest, a, r, multi, size, rk, step_m, last) -> tuple:
    """Give the producer columns of every multi-producer import one slab
    per sweep: the columns that imports read together (joined
    transitively) lie back to back in one array, each filled once by its
    producer block as it finishes, so the import is one read of rows
    ``offset + row`` — no per-sweep concatenate or permutation.  Every
    address takes the least one an entry reads it with until none
    changes; a slab's columns lie in address order, slabs in the order
    of their least address.  Returns per multi entry ``(sid, rows)``,
    the rows per slab, its writes and per slab its last read (``rk``:
    per entry its read's order key) — no earlier than the last read of a
    block column in it (``last``), which reads the slab once filled."""
    bits, mask = forest.bits, forest.mask
    if not multi.any():
        return [], [], [], []
    sel, size, rk = multi.repeat(size), size[multi], rk[multi]
    starts = size.cumsum() - size
    a = a[sel]
    by = a.argsort(kind="stable")
    step = a[by][1:] != a[by][:-1]
    nodes = np.concatenate((a[by][:1], a[by][1:][step]))
    inv = np.empty(len(a), dtype=np.intp)
    inv[by] = np.concatenate(([0], step.cumsum()))
    heads = np.concatenate(([0], step.nonzero()[0] + 1))   # per node
    label, of = np.arange(len(nodes)), np.arange(len(size)).repeat(size)
    while True:     # per node the least label of any entry reading it
        low = np.minimum.reduceat(
            np.minimum.reduceat(label[inv], starts)[of][by], heads)
        low = low[low]
        if (low == label).all():
            break
        label = low
    keep = label.argsort(kind="stable")
    cids = nodes[keep] >> bits
    rows = step_m[cids]
    new = np.concatenate(([True], label[keep][1:] != label[keep][:-1]))
    heads, group = new.nonzero()[0], new.cumsum() - 1
    off = rows.cumsum() - rows
    off -= off[heads][group]
    sid = np.empty(len(nodes), dtype=np.intp)
    sid[keep] = len(step_m) + group
    at = np.empty(len(nodes), dtype=np.intp)
    at[keep] = off
    writes = [(x >> bits, x & mask, s, o, o + m) for x, s, o, m in zip(
        nodes[keep].tolist(), sid[keep].tolist(), off.tolist(),
        rows.tolist())]
    read = at[inv] + r[sel]
    run = _segments(read - np.arange(len(read)), starts).tolist()
    # invariants stay shared columns: only block columns read the slab
    reads = np.maximum.reduceat(np.where(
        cids > len(forest.template.once), last[cids], -1), heads).tolist()
    slab = []
    for s, b, m, c, k in zip(sid[inv[starts]].tolist(), starts.tolist(),
                             size.tolist(), run, rk.tolist()):
        f = int(read[b])
        slab.append((s, slice(f, f + m) if c
                     else forest.own(read[b:b + m])))
        reads[s - len(step_m)] = max(reads[s - len(step_m)], k)
    return slab, np.add.reduceat(rows, heads).tolist(), writes, reads
