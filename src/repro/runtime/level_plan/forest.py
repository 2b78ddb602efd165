"""Instantiate: per admitted forest (all runs flushed together, of any
shapes).

One linearisation walk per run yields per-node lists; the forest stacks
them into per-node arrays and sorts every class population once, by
depth and by height.  Members of a block are the nodes of its class at
one depth (forward pre-call, top-down) or one height (post-call,
bottom-up; gradient pre-call, by *descending* height — a parent is
higher than its child — so a backward block has the members, in the
order, of the forward post-call block it mirrors and reads that block's
columns in place).  The template has decided every import's wiring;
what is left per forest is rank arithmetic over the arrays kept here —
per population and key kind the counts and ranks, per block program
its blocks' first column ids — which :mod:`.wiring` applies to every
import of the forest in one pass: numpy calls are O(1) per forest and
O(class segments) for the slab offsets, never O(blocks × imports);
Python work per block only assembles its tuples, plus O(nodes) for
frame-key suffixes when something records or accumulates.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from typing import Optional

import numpy as np

from ..stats import RunStats
from . import wiring
from .block import _O, _S
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
#: ``max_depth`` is the deepest frame the run would spawn (a node's
#: children follow each other, after its elder siblings' children)
_Lin = namedtuple("_Lin", "profiles c parent depth height tree max_depth")


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
    c, parent, depth, tree = [], [], [], []
    frontier = [(profiles, -1)]
    d = -1
    try:
        while frontier:
            d += 1
            nxt = []
            for p, par in frontier:
                if p is None:
                    return HOLES
                if d and len(p) not in counts:
                    return "profile child count does not match call sites"
                i = len(c)
                tree.append(i if d < 2 else tree[par])
                c.append(len(p))
                parent.append(par)
                depth.append(d)
                for child in p:
                    nxt.append((child, i))
            frontier = nxt
    except TypeError:
        return "profile is not a nested tuple"
    height = [0] * len(c)
    for i in range(len(c) - 1, 0, -1):
        par = parent[i]
        if height[par] <= height[i]:
            height[par] = height[i] + 1
    return _Lin(profiles, c, parent, depth, height, tree,
                1 + (d - 1) * tpl.stride + tpl.depth_off)


class _Block:
    """One block program instantiated for its members — the nodes of its
    class at one depth or height (``prog.kind``), in node order: the unit
    of dispatch of a sweep.

    Export slot ``xi`` of the program owns column group ``base + xi``:
    one column per output, member ``j`` of merged op ``k`` on row
    ``k * m + j``.  ``imports[i]`` wires the program's import ``i``:
    ``(cid, out, rows)`` when one producer feeds every member (``rows is
    None``: the column itself — same members, same order; a slice: a
    view of it; else an ``intp`` row index for one ``take``), otherwise
    ``(sid, rows)``: such a ``rows`` read of slab ``sid``, which holds
    the producer columns back to back (:func:`.wiring._lay_slabs`).
    ``slabs`` lists the block's writes, ``(cid, out, sid, a, b)``:
    output ``out`` of column group ``cid`` fills rows ``a:b`` of slab
    ``sid`` (the prologue's also write the completion flag, cid 0).
    ``keys[frame]`` addresses the members' frames — ``(runs, suffixes,
    record)`` — for cache and accumulator keys; ``okeys`` memoises per
    keyed step the members' order keys, which are static while no run
    carries a key prefix.
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


class _Pop:
    """The members of one class population — the virtual roots, or the
    nodes of one child count — grouped by depth (kind 0) and by height
    (kind 1): per kind the key-sorted member list, per-key counts, per
    node its rank among its key's members (valid on members), and the
    blocks — the keys with members: ``block`` maps a key to its index,
    start and size in the member list."""

    __slots__ = ("cnt", "rank", "members", "block")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, [])


def _populations(pop_of, keys, n_pops) -> tuple:
    """Every population's members by depth and by height at once: one
    stable sort over (key kind, population, key).  Also returns the
    counts of every (key kind, population) by key as one flat table of
    rows ``width`` apart, and per key kind and node its rank."""
    pops, n = [_Pop() for _ in range(n_pops)], len(pop_of)
    width = int(keys.max()) + 2
    joint = ((pop_of + np.arange(0, len(keys) * n_pops, n_pops)[:, None])
             * width + keys).reshape(-1)
    order = joint.argsort(kind="stable")
    cnt = np.bincount(joint, minlength=len(keys) * n_pops * width)
    start = cnt.cumsum() - cnt
    rank = np.empty(len(joint), dtype=np.intp)
    rank[order] = np.arange(len(joint)) - start[joint[order]]
    order %= n
    present = cnt.nonzero()[0]
    spans = list(zip(present.tolist(), start[present].tolist(),
                     cnt[present].tolist()))
    bounds = [0, *(cnt.reshape(-1, width) > 0).sum(1).cumsum().tolist()]
    flat, cnt = cnt, cnt.reshape(-1, width)
    lows = [*start[::width].tolist(), len(joint)]
    for q, c in enumerate(cnt):
        pop, b0, lo, hi = pops[q % n_pops], bounds[q], lows[q], lows[q + 1]
        pop.cnt.append(c)
        pop.rank.append(rank[q // n_pops * n:][:n])
        pop.members.append(order[lo:hi])
        pop.block.append({k - q * width: (b, s - lo, m) for b, (k, s, m)
                          in enumerate(spans[b0:bounds[q + 1]])})
    return pops, flat, rank.reshape(len(keys), n), width


class _Forest:
    """The linearised forest of one instantiation and the arrays its
    rank arithmetic reads — per node its population (``pop_of``), its
    key (``key_of``) and rank (``rank_of``) per key kind, per (key kind,
    population) its counts by key (``cnt_flat``, rows ``width`` apart),
    per block program its blocks' first column ids by key (``bases``);
    lives only while :class:`LevelPlan` is built."""

    def __init__(self, tpl: Template, lins):
        self.template = tpl
        self.bits, self.mask = tpl.out_bits, (1 << tpl.out_bits) - 1
        sizes = [len(lin.c) for lin in lins]
        offs = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        self.n_nodes, self.n_runs = sum(sizes), len(lins)
        self.R = np.repeat(np.arange(len(lins), dtype=np.intp), sizes)
        cols = np.fromiter(itertools.chain.from_iterable(
            getattr(lin, name) for name in _Lin._fields[1:6] for lin in lins),
            dtype=np.intp, count=5 * self.n_nodes).reshape(5, -1)
        # node ids shift by their run's offset; a virtual root's parent
        # (-1 + off) is never read
        cols[[1, 4]] += offs[self.R]
        self.C, self.P, self.D, self.H, self.T = cols
        # BFS order: a node's first child follows every child of the
        # nodes before it (a run's nodes but its root are children); its
        # site is which child of its parent it is
        self.F = self.C.cumsum() - self.C + 1 + self.R
        self.S = np.arange(self.n_nodes) - self.F[self.P]
        self.S[offs] = 0
        # population of a node: its child count's class, virtual roots last
        pop_of = self.pop_of = tpl.pop_of[self.C]
        pop_of[offs] = len(tpl.fwd)
        pops, self.cnt_flat, ranks, self.width = _populations(
            pop_of, cols[2:4], len(tpl.fwd) + 1)
        #: per key kind and node (flat, ``n_nodes`` apart) its key — depth,
        #: height — and its rank among its key's members; kind 2 is no
        #: key (an invariant's): zeros
        self.key_of = np.zeros(3 * self.n_nodes, dtype=np.intp)
        self.key_of[:2 * self.n_nodes] = cols[2:4].reshape(-1)
        self.rank_of = np.zeros(3 * self.n_nodes, dtype=np.intp)
        self.rank_of[:2 * self.n_nodes] = ranks.reshape(-1)
        self.pops = dict(zip([*tpl.fwd, None], pops))
        self.levels = tpl.levels
        self._keyed: dict = {}        # (class, frame, segment, key) -> keys
        self._suffixes = None
        # one column group per (exported step, depth or height) that has
        # members, a block's exports adjacent; ids need not follow
        # execution order
        self.step_m = step_m = [1] * (1 + len(tpl.once))
        #: per program (``prog.pid``) and key its blocks' first cid; the
        #: last row (no program: an invariant) zeros
        self.bases = np.zeros((tpl.n_progs + 1, self.width), dtype=np.int64)
        self.base: dict = {}          # (class, segment) -> first cid by key
        for cls in tpl.classes:
            for prog in cls.blocks:
                spans, first = (self.pops[cls.count].block[prog.kind],
                                len(step_m))
                widths = prog.widths
                tab = self.base[cls.index, prog.seg] = self.bases[prog.pid]
                tab[list(spans)] = [first + b * len(widths)
                                    for b in range(len(spans))]
                step_m.extend(m * w for _, _, m in spans.values()
                              for w in widths)

    def family(self, name) -> list:
        return list(getattr(self.template, name).values())

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
        tops = (int(forest.D.max()), int(forest.H.max()))
        #: (nodes, depth keys, height keys) of the forest
        self.shape = (forest.n_nodes, tops[0], tops[1] + 1)
        slots = self._schedule(forest, tops)
        #: rows per slab; slab ``i`` is column group ``len(step_m) + i``
        imports, self.slabs, writes, last, reads, fetch = wiring.wire(
            forest, slots)
        prologue = _Block(tpl.prologue, 1, 0, 1)
        #: per column group the block that fills it and the level of its
        #: last read there
        born = [(1 + i, (prologue, 0)) for i in range(len(tpl.once))]
        blocks, runs = [], {}   # per checked (class, kind): members' runs
        for (cls, seg, key, hist), specs in zip(slots, imports):
            prog, pop = cls.blocks[seg], forest.pops[cls.count]
            b, s, m = pop.block[prog.kind][key]
            mem = pop.members[prog.kind][s:s + m]
            if cls.checks and (cls.count, prog.kind) not in runs:
                runs[cls.count, prog.kind] = forest.R[pop.members[prog.kind]]
            blk = _Block(prog, m, hist, int(forest.base[cls.index, seg][key]),
                         specs, {fi: forest.keys(cls, fi, seg, key, mem)
                                 for fi in prog.frames},
                         runs[cls.count, prog.kind][s:s + m]
                         if cls.checks else None)
            born.extend((blk.base + st.xi, (blk, st.last))
                        for st in prog.exports)
            scalars, calls, members = prog.terms
            self.cost_terms[0] += scalars * m
            self.cost_terms[1] += calls
            self.cost_terms[2] += members * m
            blocks.append(blk)
        self.n_blocks = 1 + len(blocks)
        self.program = ((prologue,), *(tuple(level) for _, level in (
            itertools.groupby(blocks, key=lambda blk: blk.hist))))
        # columns behind any root-frame value stay (fetch candidates):
        # per root op its (column, merge position), per call-site output
        # its per-run address
        root = tpl.root
        self._root = [(int(forest.base[root.index, o.seg][0]) + o.step.xi,
                       o.k) for o in root.ops]
        pinned = {cid for cid, _ in self._root}
        cids = (fetch[0] >> forest.bits).tolist()
        self._fetch = dict(zip(tpl.fetches, zip(cids, (
            fetch[0] & forest.mask).tolist(), fetch[1].tolist())))
        pinned.update(cid for run in cids for cid in run)
        # a column dies after its last read outside its block, else after
        # its block's own — once filled into a slab, after the fill; a
        # slab after its last read, or never with a pinned column in it
        levels = forest.levels
        owner = {cid: blk for cid, (blk, _) in [(0, (prologue, 0)), *born]}
        for cid, out, sid, a, b in writes:
            owner[cid].slabs.append((cid, out, sid, a, b))
        filled = {cid for cid, _, _, _, _ in writes}
        for cid, (blk, level) in born:
            if cid not in pinned:
                if last[cid] >= 0:
                    blk, level = blocks[last[cid] // levels], \
                        last[cid] % levels
                elif cid in filled:
                    level = blk.prog.n_levels - 1
                blk.release.append((level, cid))
        kept = {sid for cid, _, sid, _, _ in writes if cid in pinned}
        for sid, read in enumerate(reads, len(self.step_m)):
            if sid not in kept:
                blocks[read // levels].release.append((read % levels, sid))
        #: per class its member count (accounting)
        self.members = [len(forest.pops[cls.count].members[0])
                        for cls in tpl.classes]

    def _schedule(self, forest, tops) -> list:
        """The blocks in program order, as ``(class, segment, key,
        level id)``: per root stage the root block, then its family's
        pre-call segments top-down — by depth, gradients by descending
        height (a parent is higher than its child) — and post-call
        segments bottom-up; a level's blocks, one per class with members
        at its key, share the level id."""
        tpl, slots, hist = self.template, [], 0
        stages = {stage: family for family, stage in tpl.stages.items()}
        for stage in range(len(tpl.root.blocks)):
            family = stages.get(stage)
            classes = forest.family(family) if family else ()
            down = (range(tops[1], -1, -1) if family == "grad"
                    else range(1, tops[0] + 1))
            for classes, seg, key in [((tpl.root,), stage, 0), *(
                    (classes, seg, key) for seg, keys in
                    ((0, down), (1, range(tops[1] + 1))) for key in keys)]:
                hist += 1
                slots += [(cls, seg, key, hist) for cls in classes
                          if cls.blocks[seg].n_levels and key in
                          forest.pops[cls.count].block[cls.blocks[seg].kind]]
        return slots

    def fetch_ref(self, ref, r: int) -> tuple:
        """The ``(cid, out, row)`` address of a root value for run ``r``."""
        if ref[0] == _S:
            cid, k = self._root[ref[1]]
            return cid, ref[2], k * self.n_runs + r
        if ref[0] == _O:
            return ref[1], ref[2], 0
        cids, outs, rows = self._fetch[ref]
        return cids[r], outs[r], rows[r]


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
