"""Wire: every import of every block of one forest, by rank arithmetic.

The template has decided each (class, segment, import)'s wiring from the
definition alone (:meth:`.template.Template._wire_imports`): an
invariant; one column of the member's own key, whose rows follow from
the member count alone (an alias, a slice or a ``take``); one producer
block per block — the root's column, or the parent's depth — read by a
``take``; or several producers, read by a ``take`` from their slab,
whose columns the template also fixed.  Per forest only rows are left:
:func:`rows` resolves every ref those imports read, over the whole
forest at once, and a slab lays its columns out block by block
(:func:`_lay_slabs`), so a slab read is its producer's row plus that
column's slab offset.  Nothing per forest classifies entries, sorts
their elements or joins columns; numpy calls are O(1) per forest plus
O(class segments); Python work per entry only assembles its tuple.
"""

from __future__ import annotations

import numpy as np

from .block import _COL, _INV, _ONE, _SLAB


def rows(forest, plan) -> tuple:
    """Every ref a forest resolves, at once: ``plan`` lists per class
    segment its key-sorted members and its refs' resolver states; returns
    per element — ref-major, each ref over its segment's members — the
    address and the row it reads.  Rank arithmetic over the forest's
    populations: each element hops from node to node as its state says
    (:class:`.template._Resolver`) until it stands on a column's node or
    an invariant, whose block its key gives and whose row its count and
    rank give."""
    tpl, res = forest.template, forest.template.resolver
    state = np.array([sid for _, sids in plan for sid in sids],
                     dtype=np.intp).repeat(
        [len(mem) for mem, sids in plan for _ in sids])
    node = np.concatenate([mem for mem, sids in plan for _ in sids]
                          or [np.zeros(0, dtype=np.intp)])
    # per hop and node: the node the hop reaches, and its site there
    n = forest.n_nodes
    reach = np.empty((3 + tpl.max_count, n), dtype=np.intp)
    site = np.zeros_like(reach)
    reach[0] = np.arange(n)
    reach[1], site[1] = forest.P, forest.S
    reach[2], site[2] = forest.P[forest.T], forest.S[forest.T]
    reach[3:] = forest.F + np.arange(tpl.max_count)[:, None]
    reach, site = reach.reshape(-1), site.reshape(-1)
    for _ in range(len(res.hop)):   # a chain visits a state at most once
        hop = res.hop[state]
        if not hop.any():
            break
        at = hop * n + node
        node = reach[at]
        state = res.next[state * res.ni + forest.pop_of[node] * res.ns
                         + site[at]]
    # the column's block by its key kind (2: an invariant, no key), the
    # row by the block's count and the node's rank
    at = (res.kind * n)[state] + node
    key = forest.key_of[at]
    addr = (forest.bases.reshape(-1)[(res.prog * forest.width)[state]
                                     + key] << forest.bits) + res.xo[state]
    row = (forest.cnt_flat[(res.cq * forest.width)[state] + key]
           * res.k[state] + forest.rank_of[at])
    return addr, row


def wire(forest, slots) -> tuple:
    """Wire every import of every class segment for all of its depths or
    heights.  ``slots`` are the blocks in program order.  Returns per slot
    its imports' specs (as :class:`.forest._Block` reads them), the rows
    per slab, the slab writes ``(cid, out, sid, a, b)`` in slab order,
    per column group and per slab its last read — ``slot * levels +
    level``, -1 for none — and the addresses and rows of the root's
    call-site outputs, per fetch ref and run."""
    tpl, levels, memo = forest.template, forest.levels, forest.template.rows
    bits, mask = forest.bits, forest.mask
    where = {(cls.index, seg, key): i
             for i, (cls, seg, key, _) in enumerate(slots)}
    segs, used, plan, slabbed, e = [], {}, [], [], 0
    for cls in tpl.classes:
        for prog in cls.blocks:
            spans = forest.pops[cls.count].block[prog.kind]
            if spans and prog.n_levels and prog.imports:
                mem = forest.pops[cls.count].members[prog.kind]
                segs.append((prog, list(spans.items()), [
                    where[cls.index, prog.seg, key] * levels
                    for key in spans], e, len(mem)))
                used.update((w[1], None) for w in prog.wiring
                            if w[0] == _SLAB)
                plan.append((mem, prog.resolved))
                slabbed += [w[0] == _SLAB for (refs, _, _), w in zip(
                    prog.imports, prog.wiring) if w[0] >= _ONE for _ in refs]
                e += len(prog.refs) * len(mem)
    roots = forest.pops[None].members[0]
    plan.append((roots, tpl.fetched))
    addr, row = rows(forest, plan)
    sid_of, slabs, writes, off = _lay_slabs(forest, sorted(used))
    # one array of rows a plan keeps views of: a slab read is its
    # producer's row plus the column's offset in the slab
    read = row + off[addr] * np.repeat(
        slabbed + [False] * len(tpl.fetches),
        [len(mem) for mem, sids in plan for _ in sids])
    imports, last = [()] * len(slots), [-1] * len(forest.step_m)
    reads = [-1] * len(slabs)
    first = len(forest.step_m)
    for prog, spans, at, e, width in segs:
        got, top = [], max(at)
        for (refs, level, _), w in zip(prog.imports, prog.wiring):
            kind = w[0]
            if kind == _INV:
                got.append([(w[1], w[2], None)] * len(at))
                last[w[1]] = max(last[w[1]], top + level)
                continue
            specs = []
            got.append(specs)
            if kind == _COL:
                _, ci, seg, xi, out, ks, n = w
                base = forest.base[ci, seg]
                for (key, (_, _, m)), k in zip(spans, at):
                    cid = int(base[key]) + xi
                    rows_ = memo.get((ks, n, m), memo)
                    if rows_ is memo:
                        rows_ = memo[ks, n, m] = _rows(ks, n, m)
                    specs.append((cid, out, rows_))
                    if k + level > last[cid]:
                        last[cid] = k + level
                continue
            # this import's elements: ``len(refs)`` runs of ``width``
            part, e = read[e:e + len(refs) * width], e + len(refs) * width
            if len(refs) == 1:
                taken = [part[s:s + m] for _, (_, s, m) in spans]
            else:
                part = part.reshape(len(refs), width)
                taken = [part[:, s:s + m].reshape(-1)
                         for _, (_, s, m) in spans]
            if kind == _ONE:
                heads = addr[[e - len(refs) * width + s
                              for _, (_, s, _) in spans]].tolist()
                for h, rows_, k in zip(heads, taken, at):
                    specs.append((h >> bits, h & mask, rows_))
                    if k + level > last[h >> bits]:
                        last[h >> bits] = k + level
                continue
            if not w[2]:    # one slab for every key
                sid = sid_of[w[1]]
                specs += [(sid, rows_) for rows_ in taken]
                reads[sid - first] = max(reads[sid - first], top + level)
                continue
            for (key, _), rows_, k in zip(spans, taken, at):
                sid = sid_of[w[1], key]
                specs.append((sid, rows_))
                if k + level > reads[sid - first]:
                    reads[sid - first] = k + level
        for i, specs in zip(at, zip(*got)):
            imports[i // levels] = specs
    # a block column filled into a slab is read there from then on
    once = len(tpl.once)
    for cid, _, sid, _, _ in writes:
        if cid > once and last[cid] > reads[sid - first]:
            reads[sid - first] = last[cid]
    fetch = (addr[len(addr) - len(tpl.fetches) * len(roots):]
             .reshape(-1, len(roots)),
             row[len(row) - len(tpl.fetches) * len(roots):]
             .reshape(-1, len(roots)))
    return imports, slabs, writes, last, reads, fetch


def _rows(ks, n, m):
    """The rows a ``_COL`` import reads of its producer column, whose
    ``n`` merged ops hold ``m`` members each: merged op ``k`` reads op
    ``ks[k]`` — the column itself, a slice of it, else a ``take``."""
    lo = ks[0]
    if ks == tuple(range(lo, lo + len(ks))):
        return None if len(ks) == n else slice(lo * m, (lo + len(ks)) * m)
    return (np.array(ks, dtype=np.intp)[:, None] * m
            + np.arange(m)).reshape(-1)


def _lay_slabs(forest, used) -> tuple:
    """Lay out the template's slabs ``used`` in this forest: each is its
    columns back to back, block by block in address order, each filled
    once by its producer block as it finishes, so an import reads rows
    ``offset + row`` — no per-sweep concatenate or permutation.  A keyed
    slab is laid out once per key, ``(q, key)``.  Returns per used slab
    its id, the rows per slab, the writes and per address its offset in
    its slab."""
    tpl, step_m, bits = forest.template, forest.step_m, forest.bits
    sid_of, sizes, writes, addrs, offs = {}, [], [], [], []
    for q in used:
        keyed, groups = tpl.slabs[q]
        lay: dict = {}  # per slab of ``q`` (per key when keyed): columns
        for ci, seg, outs in groups:
            if ci is None:      # invariants: (cid, out) pairs
                lay.setdefault(q, []).extend(outs)
                continue
            cls = tpl.classes[ci]
            width, base = len(cls.blocks[seg].exports), forest.base[ci, seg]
            spans = forest.pops[cls.count].block[cls.blocks[seg].kind]
            for b, key in enumerate(spans):
                if not b:
                    start = int(base[key])
                lay.setdefault((q, key) if keyed else q, []).extend(
                    [(start + b * width + xi, out) for xi, out in outs])
        for name, cols in lay.items():
            sid = sid_of[name] = len(step_m) + len(sizes)
            at = 0
            for cid, out in cols:
                m = step_m[cid]
                writes.append((cid, out, sid, at, at + m))
                addrs.append(cid << bits | out)
                offs.append(at)
                at += m
            sizes.append(at)
    off = np.zeros(len(step_m) << bits, dtype=np.int64)
    off[addrs] = offs
    return sid_of, sizes, writes, off
