"""Import wiring of an instantiation against a per-block reference.

:class:`LevelPlan` wires each (class, segment, import) once for all of
its depths or heights by segmented numpy.  The reference below wires
one block at a time — per block and import, its members' addresses and
rows — then joins the columns of every multi-producer import into slabs
by union-find, the way instantiation worked before.  On generated
forests of 1–16 runs (one-leaf runs, single-member blocks, classes
absent at some depths or heights, recorded training forests with frame
keys) both must give the same blocks: members and widths, every import
— single-producer and slab alike — by the (producer column, row) each
member reads (single-producer rows also by kind), slabs that tile their
columns back to back, releases.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.models import TreeLSTMSentiment, tree_lstm_config
from repro.runtime.level_plan import Template, linearise, template_for
from repro.runtime.level_plan.block import _O
from repro.runtime.level_plan.forest import LevelPlan, _Block, _Forest
from repro.runtime.plan import plan_for_fetches
from repro.runtime import Runtime
from tests.test_level_template import _Model, _profiles, _settings


class _PerBlock(_Forest):
    """The reference: every import of every block wired on its own."""

    def __init__(self, tpl, lins):
        super().__init__(tpl, lins)
        self._iota = np.arange(self.n_nodes * tpl.max_merge + 1,
                               dtype=np.intp)

    def wired_rows(self, rows):
        first, n = int(rows[0]), len(rows)
        if int(rows[-1]) - first == n - 1 and (
                n < 3 or (rows == self._iota[first:first + n]).all()):
            return slice(first, first + n)
        return rows

    def spec(self, cls, refs, mem):
        """``(cid, out, rows)`` when one producer feeds every member,
        else the members' addresses and rows."""
        if len(refs) == 1 and refs[0][0] == _O:
            return refs[0][1], refs[0][2], None
        pairs = [(a[mem], r[mem]) for a, r in (self.resolve(cls, [ref])[0]
                                               for ref in refs)]
        addr = np.concatenate([a for a, _ in pairs])
        rows = np.concatenate([r for _, r in pairs])
        first = int(addr[0])
        if not (addr == first).all():
            return addr, rows
        cid, n = first >> self.bits, len(rows)
        if self.step_m[cid] == n and int(rows[0]) == 0 \
                and (rows == self._iota[:n]).all():
            return cid, first & self.mask, None
        return cid, first & self.mask, self.wired_rows(rows)


def _reference(tpl, lins):
    """``(program, slabs, step_m, owner)`` as the per-block path builds
    them: the blocks with their specs and releases, per slab the sorted
    addresses it joins (in the order of their least address), per column
    group the position of its producer block in program order."""
    forest = _PerBlock(tpl, lins)
    bits = forest.bits
    prologue = _Block(tpl.prologue, 1, 0, 1)
    program, blocks, born = [(prologue,)], [prologue], []
    last_use, multi = {}, []     # cid -> (position, level); slab reads
    born += [(1 + i, (0, 0)) for i in range(len(tpl.once))]
    root, hist = tpl.root, 0
    stages = {stage: family for family, stage in tpl.stages.items()}
    tops = (int(forest.D.max()), int(forest.H.max()))

    def level(classes, seg, key):
        start = len(blocks)
        for cls in classes:
            prog = cls.blocks[seg]
            kind = int(cls.family == "grad" or (seg and cls.family == "fwd"))
            mem = np.flatnonzero(
                (forest.H if kind else forest.D) == key) if cls is root \
                else np.flatnonzero((forest.C == cls.count) & (forest.D > 0)
                                    & ((forest.H if kind else forest.D)
                                       == key))
            if cls is root:
                mem = mem[forest.D[mem] == 0]
            if not len(mem) or not prog.n_levels:
                continue
            blk = _Block(prog, len(mem), hist,
                         int(forest.base[cls.index, seg][key]),
                         tuple(forest.spec(cls, refs, mem)
                               for refs, _, _ in prog.imports),
                         {fi: forest.keys(cls, fi, seg, key, mem)
                          for fi in prog.frames},
                         forest.R[mem] if cls.checks else None)
            at = len(blocks)
            for spec, (_, lvl, _) in zip(blk.imports, prog.imports):
                if len(spec) == 3:
                    last_use[spec[0]] = max(last_use.get(spec[0], (-1, -1)),
                                            (at, lvl))
                else:
                    multi.append((at, lvl, spec[0]))
            born.extend((blk.base + st.xi, (at, st.last))
                        for st in prog.exports)
            blocks.append(blk)
        if len(blocks) > start:
            program.append(tuple(blocks[start:]))

    for stage in range(len(root.blocks)):
        hist += 1
        level((root,), stage, 0)
        family = stages.get(stage)
        classes = forest.family(family) if family else ()
        down = (range(tops[1], -1, -1) if family == "grad"
                else range(1, tops[0] + 1))
        for seg, keys in ((0, down), (1, range(tops[1] + 1))):
            for key in keys:
                hist += 1
                level(classes, seg, key)
    pinned = {int(forest.base[root.index, o.seg][0]) + o.step.xi
              for o in root.ops}
    at = forest.pops[None].members[0]
    for ref in {r for f in root.frames for rs in f.refs for r in rs
                if r[0] == 3}:
        pinned.update((forest.resolve(root, [ref])[0, 0][at]
                       >> forest.bits).tolist())
    # the slabs: union-find over every multi-producer import's addresses
    head: dict = {}

    def find(a):
        while head[a] != a:
            head[a] = head[head[a]]
            a = head[a]
        return a
    for _, _, addr in multi:
        first, *rest = (find(head.setdefault(a, a))
                        for a in np.unique(addr).tolist())
        for h in rest:
            if find(h) != find(first):
                head[find(h)] = find(first)
    groups: dict = {}
    for a in sorted(head):
        groups.setdefault(find(a), []).append(a)
    slabs = sorted(groups.values())
    n = len(forest.step_m)
    slab_of = {a: n + i for i, addrs in enumerate(slabs) for a in addrs}
    filled = {a >> bits for a in slab_of}
    for cid, (p, lvl) in born:
        if cid not in pinned:
            if cid in last_use:
                p, lvl = last_use[cid]
            elif cid in filled:
                lvl = blocks[p].prog.n_levels - 1
            blocks[p].release.append((lvl, cid))
    reads: dict = {}
    for p, lvl, addr in multi:
        sid = slab_of[int(addr[0])]
        reads[sid] = max(reads.get(sid, (-1, -1)), (p, lvl))
    for a, sid in slab_of.items():   # a filled column is read there
        if a >> bits > len(tpl.once) and a >> bits in last_use:
            reads[sid] = max(reads[sid], last_use[a >> bits])
    kept = {sid for a, sid in slab_of.items() if a >> bits in pinned}
    for sid, (p, lvl) in reads.items():
        if sid not in kept:
            blocks[p].release.append((lvl, sid))
    owner = {0: 0, **{cid: p for cid, (p, _) in born}}
    return program, slabs, forest.step_m, owner


def _rows(rows, n=None):
    """What a wired row index selects, and how it is wired."""
    if rows is None:
        return "column", tuple(range(n))
    if isinstance(rows, slice):
        return "slice", tuple(range(rows.start, rows.stop))
    return "take", tuple(np.asarray(rows).tolist())


def assert_same_blocks(tpl, lins):
    """The instantiation equals the per-block reference, block for
    block."""
    lp = LevelPlan(tpl, lins)
    program, slabs, step_m, owner = _reference(tpl, lins)
    bits, mask, n = tpl.out_bits, (1 << tpl.out_bits) - 1, len(step_m)
    assert lp.step_m == step_m
    assert [len(level) for level in lp.program] == [len(level)
                                                    for level in program]
    got_blocks = [b for level in lp.program for b in level]
    # per slab its writes, by the blocks that own the columns, back to
    # back in address order; per slab row the (column, out, row) it holds
    writes: dict = {}
    for at, blk in enumerate(got_blocks):
        for cid, out, sid, a, b in blk.slabs:
            assert owner[cid] == at
            writes.setdefault(sid, []).append((cid << bits | out, a, b))
    assert sorted(writes) == list(range(n, n + len(lp.slabs)))
    held = {}
    for sid, ws in writes.items():
        ws.sort()
        assert [a for _, a, _ in ws] == [0] + [b for _, _, b in ws[:-1]]
        assert ws[-1][2] == lp.slabs[sid - n]
        assert all(b - a == step_m[x >> bits] for x, a, b in ws)
        held[sid] = [(x >> bits, x & mask, j) for x, a, b in ws
                     for j in range(b - a)]
    assert [[x for x, _, _ in writes[sid]] for sid in sorted(writes)] \
        == slabs
    for got, ref in zip(got_blocks, (b for level in program for b in level)):
        assert got.prog is ref.prog
        assert (got.m, got.hist, got.base) == (ref.m, ref.hist, ref.base)
        assert len(got.imports) == len(ref.imports)
        for spec, want in zip(got.imports, ref.imports):
            if len(want) == 3:
                assert spec[:2] == want[:2]
                assert _rows(spec[2], step_m[spec[0]]) \
                    == _rows(want[2], step_m[want[0]])
                continue
            sid, rows = spec
            kind, sel = _rows(rows)
            assert kind == ("slice" if np.all(np.diff(sel) == 1)
                            else "take")
            addr, rows = want
            assert [held[sid][i] for i in sel] == list(zip(
                (addr >> bits).tolist(), (addr & mask).tolist(),
                rows.tolist()))
        assert sorted(got.release) == sorted(ref.release)
        assert got.keys == ref.keys
        assert (got.runs is None) == (ref.runs is None)
        if ref.runs is not None:
            assert np.array_equal(got.runs, ref.runs)
    return lp


def _template(model, train):
    plan = plan_for_fetches(model.graph, {t.op for t in model.fetches(train)})
    tpl = template_for(model.graph, plan, train)
    assert isinstance(tpl, Template)
    return tpl


_LSTM: dict = {}


def _lstm_template():
    """The TreeLSTM inference template of batch-1 requests (the serving
    workload's forests)."""
    if not _LSTM:
        model = TreeLSTMSentiment(tree_lstm_config(hidden=8, embed_dim=6),
                                  Runtime())
        built = model.build_recursive(1)
        plan = plan_for_fetches(built.graph, {built.root_logits.op})
        _LSTM["tpl"] = template_for(built.graph, plan, False)
    return _LSTM["tpl"]


def _lins(tpl, forest):
    return [linearise(tpl, (p,)) for p in forest]


class TestWiringMatchesPerBlock:

    @pytest.mark.parametrize("arity, train", [(2, True), (3, True),
                                              (2, False), (3, False)])
    @_settings(25)
    @given(data=st.data())
    def test_generated_forests(self, arity, train, data):
        tpl = _template(_Model.of(arity), train)
        forest = data.draw(st.lists(_profiles(arity), min_size=1,
                                    max_size=16))
        assert_same_blocks(tpl, _lins(tpl, forest))

    @_settings(25)
    @given(forest=st.lists(_profiles(2, max_leaves=12), min_size=1,
                           max_size=16))
    @example(forest=[()])
    @example(forest=[(), ((), ()), ()])
    def test_treelstm_serving_forests(self, forest):
        tpl = _lstm_template()
        assert_same_blocks(tpl, _lins(tpl, forest))

    @pytest.mark.parametrize("train", [True, False])
    def test_one_leaf_runs_and_single_member_blocks(self, train):
        tpl = _template(_Model.of(2), train)
        chain = ((), ((), ((), ())))
        singles = 0
        for forest in ([()], [(), ()], [chain], [(), chain, ()],
                       [((), ())] * 3):
            lp = assert_same_blocks(tpl, _lins(tpl, forest))
            singles += sum(blk.m == 1 for level in lp.program[1:]
                           for blk in level)
        assert singles

    def test_recorded_forests_carry_frame_keys(self):
        tpl = _template(_Model.of(3), True)
        lp = assert_same_blocks(tpl, _lins(tpl, [((), (), ()), ()]))
        assert any(blk.keys for level in lp.program for blk in level)
