"""Wire: every import of every block of one forest, by class segment.

An *entry* is one import of one block: its members' (address, row)
pairs, op-major — member ``j`` of merged op ``k`` at ``k * m + j``.
Each class segment reads all of its imports over its population's
key-sorted members at once (:func:`operands`); :func:`wire` sorts the
elements of every entry of the forest together and decides each entry's
wiring with segmented numpy over the entry and op starts — one producer
(the column itself; a slice, so the operand is a view of the column, as
kernels never write their inputs; else a ``take``), one producer per
merged op, or several per op, parted by address through one stable sort
by (entry, address) — and :func:`_lay_slabs` joins the columns that
multi-producer entries read into slabs.  numpy calls are O(class
segments); Python work per entry only assembles its tuple.
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
    sizes, ops, reader = [], [], []   # per entry: elements, ops, read key
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
                ops += [len(rs)] * len(at)
                reader += [slot * levels + level for slot in at]
                todo.append((got, len(got), len(at)))
                got.append(None)
            progs.append((got, at))
            if refs:
                flat.append(operands(forest, cls, prog.kind, refs, of))
    slabs, writes, reads = [], [], []
    if flat:
        slabs, writes, reads = _entries(forest, flat, todo, sizes, ops,
                                        reader, last)
    for got, at in progs:   # per block its imports, in import order
        for i, specs in zip(at, zip(*got)):
            imports[i] = specs
    return imports, slabs, writes, last, reads


def _entries(forest, flat, todo, sizes, ops, reader, last) -> tuple:
    """Wire every entry of the non-invariant imports, in place of the
    ``todo`` placeholders; note each column group's last read."""
    bits, mask, step_m = forest.bits, forest.mask, np.array(forest.step_m)
    ar, order = (np.concatenate(col, axis=-1) for col in zip(*flat))
    a, r = ar.take(order.argsort(kind="stable"), 1)
    size, ops, rk = np.array(sizes), np.array(ops), np.array(reader)
    es = size.cumsum() - size                       # entry starts
    _last(last, a >> bits, rk.repeat(size))
    local = np.arange(len(a)) - es.repeat(size)     # member-order row
    # (entry, op) starts: where a member position restarts at 0
    starts = (local % (size // ops).repeat(size) == 0).nonzero()[0]
    eo = ops.cumsum() - ops                         # an entry's first op
    o_one, shift = _segments(a, starts), r - local  # per (entry, op)
    o_run = _segments(shift, starts)
    head, lead = a[starts], shift[starts]
    one = np.minimum.reduceat(o_one, eo)
    single = np.minimum.reduceat(o_one & (head == head[eo].repeat(ops)), eo)
    joined = np.minimum.reduceat(o_run & (lead == lead[eo].repeat(ops)), eo)
    head, first = head[eo], r[es]
    alias = joined & (step_m[head >> bits] == size)
    g_parts, g_perm = _by_address(forest, a, r, local, size, ~one)
    opw, o_parts = one & ~single, None
    if opw.any():   # each merged op reads one column: parts in op order
        sel, k = opw.repeat(ops), ops[opw]
        o_parts = _parts(forest, a, r, starts[sel], np.concatenate(
            (starts[1:], [len(a)]))[sel], k.cumsum() - k, o_run[sel])
    slab, slabs, writes, reads = _lay_slabs(forest, a, r, ~single, size, rk,
                                            step_m)
    out, g, w, q, own = [], 0, 0, 0, forest.own
    for s, m, h, f, ok, o, run, al in zip(
            es.tolist(), size.tolist(), head.tolist(), first.tolist(),
            single.tolist(), one.tolist(), joined.tolist(), alias.tolist()):
        if ok:
            out.append((h >> bits, h & mask, (None if al else slice(
                f, f + m)) if run else own(r[s:s + m])))
            continue
        if o:
            spec = o_parts[w], None
            w += 1
        else:
            spec = g_parts[g], g_perm[g]
            g += 1
        out.append(spec + slab[q] if slab[q] else spec)
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


def _by_address(forest, a, r, local, size, gen) -> tuple:
    """The entries ``gen`` whose ops read several producers: per entry
    its parts by address and the permutation from their concatenation
    back to member order (``None`` when it already is) — one stable sort
    by (entry, address) for all of them."""
    if not gen.any():
        return None, None
    sel, size = gen.repeat(size), size[gen]
    starts = size.cumsum() - size
    base = starts.repeat(size)
    sa = a[sel]
    by = (base * (int(sa.max()) + 1) + sa).argsort(kind="stable")
    sa, sr, at = sa[by], r[sel].take(by), local[sel].take(by)
    j = np.arange(len(sa)) - base
    same = np.minimum.reduceat(at == j, starts)
    perm = np.empty(len(sa), dtype=np.intp)
    perm[base + at] = j
    ps = np.concatenate(([0], ((sa[1:] != sa[:-1]) | (j[1:] == 0)).nonzero()[
        0] + 1))
    parts = _parts(forest, sa, sr, ps, np.concatenate((ps[1:], [len(sa)])),
                   (j[ps] == 0).nonzero()[0],
                   _segments(sr - np.arange(len(sr)), ps))
    return parts, [None if s else forest.own(perm[b:b + m]) for s, b, m in
                   zip(same.tolist(), starts.tolist(), size.tolist())]


def _parts(forest, a, r, ps, pe, first, run) -> list:
    """Per entry (its first part in ``first``) the parts ``ps[i] : pe[i]``
    of ``(a, r)`` as ``(cid, out, rows)`` — a part holds one address; its
    rows a slice where ``run`` says they run consecutively."""
    bits, mask = forest.bits, forest.mask
    parts = [(h >> bits, h & mask, slice(f, f + e - s) if c
              else forest.own(r[s:e]))
             for h, f, c, s, e in zip(a[ps].tolist(), r[ps].tolist(),
                                      run.tolist(), ps.tolist(), pe.tolist())]
    cuts = first.tolist() + [len(parts)]
    return [tuple(parts[b:e]) for b, e in zip(cuts, cuts[1:])]


def _lay_slabs(forest, a, r, multi, size, rk, step_m) -> tuple:
    """Give the producer columns of every multi-producer import one slab
    per sweep: the columns that imports read together (joined
    transitively) lie back to back in one array, each filled once by its
    producer block as it finishes, so the import is one read of rows
    ``offset + row`` — no per-sweep concatenate or permutation.  The
    part-wise wiring stays behind it for a sweep whose columns do not
    share a dtype and row shape.  Every address takes the least one an
    entry reads it with until none changes; a slab's columns lie in
    address order, slabs in the order of their least address.  Returns
    per multi entry ``(sid, rows)`` (``()``: no slab), the rows per slab,
    its writes and per slab its last read (``rk``: per entry its read's
    order key)."""
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
    # the shared completion flag (cid 0): no block fills it
    bad = np.zeros(len(nodes), dtype=bool)
    bad[label[nodes >> bits == 0]] = True
    keep = (~bad[label]).nonzero()[0]
    keep = keep[label[keep].argsort(kind="stable")]
    rows = step_m[nodes[keep] >> bits]
    new = np.concatenate(([True], label[keep][1:] != label[keep][:-1]))
    heads, group = new.nonzero()[0], new.cumsum() - 1
    off = rows.cumsum() - rows
    off -= off[heads][group]
    sid = np.full(len(nodes), -1)
    sid[keep] = len(step_m) + group
    at = np.zeros(len(nodes), dtype=np.intp)
    at[keep] = off
    writes = [(x >> bits, x & mask, s, o, o + m) for x, s, o, m in zip(
        nodes[keep].tolist(), sid[keep].tolist(), off.tolist(),
        rows.tolist())]
    read = at[inv] + r[sel]
    run = _segments(read - np.arange(len(read)), starts).tolist()
    slab, reads = [], [-1] * len(heads)
    for s, b, m, c, k in zip(sid[inv[starts]].tolist(), starts.tolist(),
                             size.tolist(), run, rk.tolist()):
        if s < 0:
            slab.append(())
            continue
        f = int(read[b])
        slab.append((s, slice(f, f + m) if c
                     else forest.own(read[b:b + m])))
        reads[s - len(step_m)] = max(reads[s - len(step_m)], k)
    return slab, (np.add.reduceat(rows, heads).tolist()
                  if len(keep) else []), writes, reads
