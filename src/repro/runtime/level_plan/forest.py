"""Instantiate: per admitted forest (all runs flushed together, of any
shapes).

One linearisation walk per run yields per-node arrays; members of a
block are the nodes of its class at one depth (forward pre-call,
top-down) or one height (post-call, bottom-up; gradient pre-call, by
*descending* height — a parent is higher than its child — so a backward
block has the members, in the order, of the forward post-call block it
mirrors and reads that block's columns in place), and every import spec
is filled by numpy index arithmetic: Python work is O(blocks) plus
O(nodes) for frame-key suffixes — never O(nodes × body ops), nor
O(template steps × depths).
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Optional

import numpy as np

from ..stats import RunStats
from .block import _B, _C, _M, _O, _S
from .template import Template, template_for

#: LRU cap of the per-graph instantiation memo: an instantiation holds
#: index arrays proportional to its forest, so adversarial long-tail
#: shape streams must not grow the memo without bound
LEVEL_PLAN_CAP = 256
#: reason: the profile has undetermined (``None``) subtrees — the whole
#: root then runs on the dynamic tier
HOLES = "profile has undetermined subtrees"

#: one run's profile as per-node lists in BFS order; node 0 is the run's
#: virtual root (the root frame), whose children are the trees;
#: ``max_depth`` is the deepest frame the run would spawn
_Lin = namedtuple("_Lin", "profiles c parent site depth height first tree "
                  "max_depth")


def linearise(tpl: Template, shape_profile):
    """Walk one run's profiles once: returns its :class:`_Lin`, or the
    reason string it cannot be instantiated (:data:`HOLES` when a
    subtree is undetermined)."""
    try:
        profiles = tuple(shape_profile)
        # the instantiation memo keys on it: a repeated batch finds its
        # walk there (read-only) instead of redoing it
        lp = tpl.graph._level_plans.get("instances", {}).get((tpl, profiles))
    except TypeError:
        return "profile is not a nested tuple"
    if lp is not None:
        return lp.lin
    if len(profiles) != len(tpl.root_sites):
        return "profile count does not match root call sites"
    counts = tpl.fwd
    c, parent, site, depth, first, tree = [], [], [], [], [], []
    frontier = [(profiles, -1, 0)]
    d = -1
    try:
        while frontier:
            d += 1
            base = len(c) + len(frontier)
            nxt = []
            for p, par, s in frontier:
                if p is None:
                    return HOLES
                if d and len(p) not in counts:
                    return "profile child count does not match call sites"
                i = len(c)
                tree.append(i if d < 2 else tree[par])
                first.append(base + len(nxt))
                c.append(len(p))
                parent.append(par)
                site.append(s)
                depth.append(d)
                for j, child in enumerate(p):
                    nxt.append((child, i, j))
            frontier = nxt
    except TypeError:
        return "profile is not a nested tuple"
    height = [0] * len(c)
    for i in range(len(c) - 1, 0, -1):
        par = parent[i]
        if height[par] <= height[i]:
            height[par] = height[i] + 1
    return _Lin(profiles, c, parent, site, depth, height, first, tree,
                1 + (d - 1) * tpl.stride + tpl.depth_off)


class _Block:
    """One block program instantiated for its members — the nodes of its
    class at one depth or height (:func:`_kind`), in node order: the unit
    of dispatch of a sweep.

    Export slot ``xi`` of the program owns column group ``base + xi``:
    one column per output, member ``j`` of merged op ``k`` on row
    ``k * m + j``.  ``imports[i]`` wires the program's import ``i``:
    ``(cid, out, rows)`` when one producer feeds every member (``rows is
    None``: the column itself — same members, same order; a slice: a
    view of it; else an ``intp`` row index for one ``take``), otherwise
    ``(parts, perm, sid, rows)``: one such ``rows`` read of slab
    ``sid``, which holds the producer columns back to back
    (:meth:`LevelPlan._lay_slabs`), over the part-wise read that stands
    in while the slab is unfilled — ``parts``, one such triple per
    producer (per merged op, in op order, when each reads one column),
    and ``perm``, the permutation that puts their concatenation into
    member order (``None`` when it already is); ``(parts, perm)`` alone
    where no block fills a producer.  ``slabs`` lists the block's
    writes, ``(xi, out, sid, a, b)``: output ``out`` of export ``xi``
    fills rows ``a:b`` of slab ``sid``.  ``keys[frame]`` addresses
    the members' frames — ``(runs, suffixes, record)`` — for cache and
    accumulator keys; ``okeys`` memoises per keyed step the members'
    order keys, which are static while no run carries a key prefix.
    ``release`` lists the column groups and slabs whose last reader is
    this block, by level.
    """

    __slots__ = ("prog", "m", "hist", "base", "imports", "keys", "runs",
                 "release", "okeys", "slabs")

    def __init__(self, prog, m, hist, base, imports=(), keys=None,
                 runs=None):
        self.prog, self.m, self.hist = prog, m, hist
        self.base, self.imports, self.keys, self.runs = (base, imports, keys,
                                                         runs)
        self.release: list = []
        self.okeys: dict = {}
        self.slabs: list = []


def _producers(spec):
    """The column groups a wired input reads."""
    return (spec[0],) if len(spec) == 3 else (p[0] for p in spec[0])


class _Pop:
    """The members of one class population — the virtual roots, or the
    nodes of one child count — grouped by depth (kind 0) and by height
    (kind 1): member lists, per-key counts, per-node ranks."""

    __slots__ = ("cnt", "rank", "start", "members")

    def __init__(self, nodes, keys, n):
        self.cnt, self.rank, self.start, self.members = [], [], [], []
        for key in keys:
            k = key[nodes]
            order = np.argsort(k, kind="stable")
            members = nodes[order]
            cnt = np.bincount(k, minlength=int(key.max()) + 2)
            start = np.concatenate(([0], np.cumsum(cnt)))
            rank = np.zeros(n, dtype=np.intp)
            rank[members] = np.arange(len(nodes)) - start[k[order]]
            self.cnt.append(cnt)
            self.rank.append(rank)
            self.start.append(start.tolist())
            self.members.append(members)

    def at(self, kind, key):
        start = self.start[kind]
        return self.members[kind][start[key]:start[key + 1]]


def _kind(cls, seg) -> int:
    """What keys a class segment's members: 0 depth (every root stage,
    forward pre-call segments), 1 height (post-call segments; both
    segments of a gradient class, whose blocks thereby have the members,
    in the order, of the forward post-call blocks they mirror)."""
    return 1 if cls.family == "grad" or (seg and cls.family == "fwd") else 0


class _Forest:
    """The linearised forest of one instantiation and the index
    arithmetic over it; lives only while :class:`LevelPlan` is built."""

    def __init__(self, tpl: Template, lins):
        self.template = tpl
        self.bits, self.mask = tpl.out_bits, (1 << tpl.out_bits) - 1
        sizes = [len(lin.c) for lin in lins]
        offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        self.n_nodes = n = sum(sizes)

        def column(name, shift=False):
            return np.concatenate([
                np.asarray(getattr(lin, name), dtype=np.intp)
                + (off if shift else 0) for lin, off in zip(lins, offs)])

        self.C, self.S = column("c"), column("site")
        self.D, self.H = column("depth"), column("height")
        # a virtual root's parent (-1 + off) is never read
        self.P, self.F = column("parent", True), column("first", True)
        self.T = column("tree", True)
        self.R = np.repeat(np.arange(len(lins), dtype=np.intp), sizes)
        self._iota = np.arange(n * tpl.max_merge + 1, dtype=np.intp)
        keys = (self.D, self.H)
        self.pops = {c: _Pop(np.flatnonzero((self.C == c) & (self.D > 0)),
                             keys, n) for c in tpl.fwd}
        self.pops[None] = _Pop(offs.astype(np.intp), keys, n)
        self._resolved: dict = {}     # (class / family, ref) -> arrays
        self._keyed: dict = {}        # (class, frame, segment, key) -> keys
        self._suffixes = None
        # one column group per (exported step, depth or height) that has
        # members, a block's exports adjacent; ids need not follow
        # execution order
        self.step_m = step_m = [1] * (1 + len(tpl.once))
        self.base: dict = {}          # (class, segment) -> first cid by key
        for cls in tpl.classes:
            for prog in cls.blocks:
                cnt = self.pops[cls.count].cnt[_kind(cls, prog.seg)]
                present = np.flatnonzero(cnt)
                widths = np.array([len(st.ops) for st in prog.exports],
                                  dtype=np.intp)
                tab = np.zeros(len(cnt), dtype=np.int64)
                tab[present] = (len(step_m)
                                + self._iota[:len(present)] * len(widths))
                self.base[cls.index, prog.seg] = tab
                step_m.extend(np.multiply.outer(cnt[present],
                                                widths).ravel().tolist())

    # -- symbolic refs -> (address, row) arrays ------------------------------

    def resolve(self, cls, ref):
        """Per node (valid on the members of ``cls``): the packed column
        address and the row holding ``ref``'s value."""
        key = (cls.family if ref[0] in (_B, _O) else cls.index, ref)
        hit = self._resolved.get(key)
        if hit is not None:
            return hit
        kind = ref[0]
        if kind == _S:
            o = cls.ops[ref[1]]
            pop, by = self.pops[cls.count], _kind(cls, o.seg)
            key_of = self.H if by else self.D
            assert o.step.xi >= 0, "a block-local value read across blocks"
            addr = (self.base[cls.index, o.seg][key_of] + o.step.xi
                    << self.bits | ref[2])
            row = o.k * pop.cnt[by][key_of] + pop.rank[by]
        elif kind == _O:
            addr = np.full(self.n_nodes, ref[1] << self.bits | ref[2])
            row = np.zeros(self.n_nodes, dtype=np.intp)
        elif kind == _M:
            addr, row = self.resolve(cls.mirror, ref[1])
        elif kind == _B:
            addr, row = self._bound(cls.family, ref[1])
        else:
            addr, row = self._called(cls, cls.sites[ref[1]], ref[2])
        self._resolved[key] = addr, row
        return addr, row

    def family(self, name) -> list:
        return list(getattr(self.template, name).values())

    def _read(self, nodes, src, picks):
        """Per node: ``nodes[sel]`` holds what ``src[sel]`` holds for
        ``ref`` in ``cls``, over the ``(cls, ref, mask)`` picks."""
        addr = np.zeros(self.n_nodes, dtype=np.int64)
        row = np.zeros(self.n_nodes, dtype=np.intp)
        for cls, ref, mask in picks:
            sel = np.flatnonzero(mask)
            if len(sel):
                a, r = self.resolve(cls, ref)
                addr[nodes[sel]] = a[src[sel]]
                row[nodes[sel]] = r[src[sel]]
        return addr, row

    def _bound(self, family, name):
        """A bound placeholder: the parent's value at the call site —
        the tree root's call site for names passed down unchanged."""
        inherited = name in self.template.inherited[family]
        nodes = np.flatnonzero(self.D > 0)
        src = self.T[nodes] if inherited else nodes
        par = self.P[src]
        top, pc, ps = self.D[par] == 0, self.C[par], self.S[src]
        root = self.template.root
        return self._read(nodes, par, (
            (cls, site.bind[name], (ps == site.child)
             & (top if cls is root else ~top & (pc == cls.count)))
            for cls in ([root] if inherited else [root, *self.family(family)])
            for site in cls.sites if site.family == family))

    def _called(self, cls, site, j):
        """Output ``j`` of a recursive call site: the child frame's
        output, whichever class the child's own count selects."""
        at = self.pops[cls.count].members[0]
        child = self.F[at] + site.child
        cc = self.C[child]
        return self._read(at, child, ((u, u.outputs[j], cc == u.count)
                                      for u in self.family(site.family)))

    # -- input specs ---------------------------------------------------------

    def _wired(self, rows):
        """A row index as wired: a contiguous ascending run becomes a
        basic slice, so the operand is a view of the producer column
        instead of a copy (kernels never write their inputs)."""
        first, n = int(rows[0]), len(rows)
        if int(rows[-1]) - first == n - 1 and (
                n < 3 or (rows == self._iota[first:first + n]).all()):
            return slice(first, first + n)
        return rows

    def _pack(self, addr, rows):
        """Wire one input from its per-member addresses and rows."""
        first = int(addr[0])
        if int(addr[-1]) == first and (addr == first).all():
            cid, n = first >> self.bits, len(rows)
            if self.step_m[cid] == n and int(rows[0]) == 0 \
                    and (rows == self._iota[:n]).all():
                return cid, first & self.mask, None
            return cid, first & self.mask, self._wired(rows)
        order = np.argsort(addr, kind="stable")
        sa, sr = addr[order], rows[order]
        cuts = [0, *(np.flatnonzero(sa[1:] != sa[:-1]) + 1).tolist(),
                len(sa)]
        parts = tuple((int(sa[b]) >> self.bits, int(sa[b]) & self.mask,
                       self._wired(sr[b:e])) for b, e in zip(cuts, cuts[1:]))
        if (order[1:] > order[:-1]).all():
            return parts, None
        perm = np.empty(len(order), dtype=np.intp)
        perm[order] = self._iota[:len(order)]
        return parts, perm

    def spec(self, cls, refs, mem):
        """Wire one import of a block: ``refs[k]`` is merged op ``k``'s
        source.  Several producers: ``(parts, perm, addr, rows)`` — the
        per-member addresses and rows kept for :meth:`LevelPlan._lay_slabs`
        to wire the slab read from."""
        if len(refs) == 1 and refs[0][0] == _O:
            return refs[0][1], refs[0][2], None
        pairs = [(a[mem], r[mem]) for a, r in (self.resolve(cls, ref)
                                               for ref in refs)]
        heads = [int(a[0]) for a, _ in pairs]
        addr, rows = pairs[0] if len(pairs) == 1 else (
            np.concatenate([a for a, _ in pairs]),
            np.concatenate([r for _, r in pairs]))
        if len(set(heads)) > 1 and all((a == h).all()
                                       for (a, _), h in zip(pairs, heads)):
            # each merged op reads one producer column: parts in op order
            return tuple((h >> self.bits, h & self.mask, self._wired(r))
                         for (_, r), h in zip(pairs, heads)), None, addr, rows
        spec = self._pack(addr, rows)
        return spec if len(spec) == 3 else spec + (addr, rows)

    def keys(self, cls, fi, seg, key, mem) -> tuple:
        """``(runs, suffixes, record)`` of frame ``fi`` of the members
        ``mem`` of one block — shared by every store and stateful step
        of that frame there.  Node suffixes are O(nodes) tuple
        concatenations along the parent chain — the one per-node Python
        loop, run only when something needs a key."""
        memo_key = (cls.index, fi, seg, key)
        got = self._keyed.get(memo_key)
        if got is not None:
            return got
        if self._suffixes is None:
            tpl = self.template
            paths = {c: [s.path for s in u.sites] for c, u in tpl.fwd.items()}
            roots = [s.path for s in tpl.root_sites]
            C, P, S = self.C.tolist(), self.P.tolist(), self.S.tolist()
            out = self._suffixes = [()] * self.n_nodes
            for n, d in enumerate(self.D.tolist()):
                if d:
                    p = P[n]
                    out[n] = (roots[S[n]] if d == 1
                              else out[p] + paths[C[p]][S[n]])
        base, frame = self._suffixes, cls.frames[fi]
        got = self._keyed[memo_key] = (
            self.R[mem].tolist(), [base[n] + frame.rel for n in mem.tolist()],
            frame.record)
        return got


class LevelPlan:
    """One instantiated forest: the block program of a sweep.

    ``program`` is the sweep — per level the :class:`_Block`s of one
    depth or height, one per class with members there, independent of
    each other — and ``step_m`` the member count per column group.  A
    frame's key is its run's root key plus the node's suffix, which is
    exactly the dynamic ``child_key`` chain.  An instantiation keeps its
    program, not its forest (a one-run forest also its read-only
    linearisation: the memo probe hands it back instead of a re-walk).
    """

    def __init__(self, tpl: Template, lins):
        self.template = tpl
        self.n_runs = len(lins)
        self.lin = lins[0] if len(lins) == 1 else None
        #: memoised accounting of one sweep: a RunStats delta
        self.booked = None
        forest = _Forest(tpl, lins)
        self.step_m = forest.step_m
        #: [scalar members, bucket calls, bucket members]: what the cost
        #: model charges a sweep
        self.cost_terms = [len(tpl.once), 0, 0]
        prologue = _Block(tpl.prologue, 1, 0, 1)
        program = [(prologue,)]
        self.n_blocks = 1
        #: per column group the (block, level) that reads it last: while
        #: nobody outside its block does, the block's own last read
        born = [(1 + i, (prologue, 0)) for i in range(len(tpl.once))]
        last_use: dict = {}
        root, hist = tpl.root, 0
        forests = {stage: family for family, stage in tpl.stages.items()}
        tops = (int(forest.D.max()), int(forest.H.max()))
        #: (nodes, depth keys, height keys) of the forest
        self.shape = (forest.n_nodes, tops[0], tops[1] + 1)
        for stage in range(len(root.blocks)):
            hist += 1
            self._level(forest, program, last_use, born, (root,), stage, 0,
                        hist)
            family = forests.get(stage)
            classes = forest.family(family) if family else ()
            # pre-call top-down: by depth, gradients by descending height
            # (a parent is higher than its child); post-call bottom-up
            down = (range(tops[1], -1, -1) if family == "grad"
                    else range(1, tops[0] + 1))
            for seg, keys in ((0, down), (1, range(tops[1] + 1))):
                for key in keys:
                    hist += 1
                    self._level(forest, program, last_use, born, classes,
                                seg, key, hist)
        # columns behind any root-frame value stay (fetch candidates):
        # per root op its (column, merge position), per call-site output
        # its per-run address
        self._root = [(int(forest.base[root.index, o.seg][0]) + o.step.xi,
                       o.k) for o in root.ops]
        self._fetch: dict = {}
        pinned = {cid for cid, _ in self._root}
        at = forest.pops[None].members[0]
        for ref in {r for f in root.frames for rs in f.refs for r in rs
                    if r[0] == _C}:
            addr, row = forest.resolve(root, ref)
            cids = (addr[at] >> forest.bits).tolist()
            self._fetch[ref] = (cids, (addr[at] & forest.mask).tolist(),
                                row[at].tolist())
            pinned.update(cids)
        for cid, at in born:
            if cid not in pinned:
                blk, level = last_use.get(cid, at)
                blk.release.append((level, cid))
        #: rows per slab; slab ``i`` is column group ``len(step_m) + i``
        self.slabs = self._lay_slabs(forest, program, born)
        self.program = tuple(program)
        #: per class its member count (accounting)
        self.members = [len(forest.pops[cls.count].members[0])
                        for cls in tpl.classes]

    def _lay_slabs(self, forest, program, born) -> list:
        """Give the producer columns of every multi-producer import one
        slab per sweep: the columns that imports read together (joined
        transitively) lie back to back in one array, each filled once by
        its producer block as it finishes, so the import is one read of
        rows ``offset + row`` — no per-sweep concatenate or permutation.
        The part-wise wiring stays behind it for a sweep whose columns do
        not share a dtype and row shape.  A slab dies after its last
        reader, like a column."""
        bits, mask = forest.bits, forest.mask
        # (block, import, last level reading it) of every import that
        # several producer columns feed, in program order
        multi = [(blk, i, blk.prog.imports[i][1]) for level in program
                 for blk in level for i, spec in enumerate(blk.imports)
                 if len(spec) == 4]
        root: dict = {}         # union-find over producer addresses

        def find(a):
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a
        for blk, i, _ in multi:
            first = None
            for cid, out, _ in blk.imports[i][0]:
                a = cid << bits | out
                h = find(root.setdefault(a, a))
                if first is None:
                    first = h
                elif h != first:
                    root[h] = first
        groups: dict = {}
        for a in sorted(root):
            groups.setdefault(find(a), []).append(a)
        owner = {cid: blk for cid, (blk, _) in born}
        step_m, sizes, slab_of = self.step_m, [], {}
        for head, addrs in groups.items():
            cids = [a >> bits for a in addrs]
            if not all(cid in owner for cid in cids):
                continue  # the shared completion flag: no block fills it
            sid, n = len(step_m) + len(sizes), 0
            offs = []
            for a, cid in zip(addrs, cids):
                blk = owner[cid]
                offs.append(n)
                blk.slabs.append((cid - blk.base, a & mask, sid, n,
                                  n + step_m[cid]))
                n += step_m[cid]
            slab_of[head] = sid, np.array(addrs), np.array(offs)
            sizes.append(n)
        if sizes and max(sizes) >= len(forest._iota):
            forest._iota = np.arange(max(sizes) + 1, dtype=np.intp)
        last_use: dict = {}
        for blk, i, level in multi:
            parts, perm, addr, rows = blk.imports[i]
            cid, out, _ = parts[0]
            slab = slab_of.get(find(cid << bits | out))
            imports = list(blk.imports)
            if slab is None:
                imports[i] = parts, perm
            else:
                sid, addrs, offs = slab
                imports[i] = (parts, perm, sid, forest._wired(
                    offs[np.searchsorted(addrs, addr)] + rows))
                seen = last_use.get(sid)
                if seen is None or seen[0] is not blk or seen[1] < level:
                    last_use[sid] = blk, level
            blk.imports = tuple(imports)
        for sid, (blk, level) in last_use.items():
            blk.release.append((level, sid))
        return sizes

    def fetch_ref(self, ref, r: int) -> tuple:
        """The ``(cid, out, row)`` address of a root value for run ``r``."""
        if ref[0] == _S:
            cid, k = self._root[ref[1]]
            return cid, ref[2], k * self.n_runs + r
        if ref[0] == _O:
            return ref[1], ref[2], 0
        cids, outs, rows = self._fetch[ref]
        return cids[r], outs[r], rows[r]

    def _level(self, forest, program, last_use, born, classes, seg, key,
               hist) -> None:
        """Instantiate one program level: per class with members at this
        depth / height its block — imports wired, export columns
        allocated, frame keys addressed.  O(imports + exports) each."""
        level = []
        for cls in classes:
            prog = cls.blocks[seg]
            mem = forest.pops[cls.count].at(_kind(cls, seg), key)
            if not len(mem) or not prog.n_levels:
                continue
            m = len(mem)
            blk = _Block(
                prog, m, hist,
                int(forest.base[cls.index, seg][key]),
                tuple(forest.spec(cls, refs, mem)
                      for refs, _, _ in prog.imports),
                {fi: forest.keys(cls, fi, seg, key, mem)
                 for fi in prog.frames},
                forest.R[mem] if cls.checks else None)
            self.n_blocks += 1
            for spec, (_, at, _) in zip(blk.imports, prog.imports):
                for cid in _producers(spec):
                    seen = last_use.get(cid)
                    if seen is None or seen[0] is not blk or seen[1] < at:
                        last_use[cid] = blk, at
            born.extend((blk.base + st.xi, (blk, st.last))
                        for st in prog.exports)
            scalars, calls, members = prog.terms
            self.cost_terms[0] += scalars * m
            self.cost_terms[1] += calls
            self.cost_terms[2] += members * m
            level.append(blk)
        if level:
            program.append(tuple(level))


def instance_for(tpl: Template, lins, stats=None) -> "LevelPlan":
    """The instantiation of one forest — ``lins`` in run order.  A probe
    is one LRU lookup keyed by the profile tuple, a miss builds one
    :class:`LevelPlan`; the memo is LRU-bounded (:data:`LEVEL_PLAN_CAP`)
    and holds one-run forests only (a repeated ``Session.run`` batch, a
    lone request): a merged forest is keyed by the ordered profiles of
    all its runs, which a request stream does not repeat."""
    graph, stats = tpl.graph, stats or RunStats()
    instances = graph._level_plans.setdefault("instances", {})
    key = (tpl, lins[0].profiles) if len(lins) == 1 else None
    lp = instances.get(key)
    if lp is not None:
        stats.level_plan_cache_hits += 1
        with graph._lock:  # LRU touch: move to end
            instances[key] = instances.pop(key, lp)
        return lp
    stats.level_plan_cache_misses += 1
    t0 = time.perf_counter()
    lp = LevelPlan(tpl, lins)
    stats.level_plan_compile_ms += (time.perf_counter() - t0) * 1e3
    with graph._lock:
        if key is not None:
            instances[key] = lp
        while LEVEL_PLAN_CAP > 0 and len(instances) > LEVEL_PLAN_CAP:
            del instances[next(iter(instances))]
            stats.level_plan_evictions += 1
    return lp


def level_plan_for(graph, root_plan, shape_profile, record: bool,
                   stats=None) -> Optional["LevelPlan"]:
    """Template + linearise + instantiate for one run: the compiled
    program of ``shape_profile`` (per-root-call-site shape profiles in
    op-id order — ``TreeBatch.profiles`` for the tree models), or
    ``None`` when the definition or the profile is not compilable."""
    tpl = template_for(graph, root_plan, record, stats)
    lin = tpl if isinstance(tpl, str) else linearise(tpl, shape_profile)
    return None if isinstance(lin, str) else instance_for(tpl, [lin], stats)
