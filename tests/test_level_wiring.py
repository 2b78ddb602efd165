"""Import wiring of an instantiation against a per-block reference.

:class:`LevelPlan` wires each (class, segment, import) once for all of
its depths or heights by segmented numpy.  The reference below wires
one block at a time — per block and import, its members' addresses and
rows, an ``argsort`` where several producers feed it, then a union-find
over every multi-producer import for the slabs — the way instantiation
worked before.  On generated forests of 1–16 runs (one-leaf runs,
single-member blocks, classes absent at some depths or heights, recorded
training forests with frame keys) both must give the same blocks:
members and widths, import specs (slices and index arrays compared by
the rows they select, and by kind), slab sizes and writes, releases.
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

    def pack(self, addr, rows):
        first = int(addr[0])
        if int(addr[-1]) == first and (addr == first).all():
            cid, n = first >> self.bits, len(rows)
            if self.step_m[cid] == n and int(rows[0]) == 0 \
                    and (rows == self._iota[:n]).all():
                return cid, first & self.mask, None
            return cid, first & self.mask, self.wired_rows(rows)
        order = np.argsort(addr, kind="stable")
        sa, sr = addr[order], rows[order]
        cuts = [0, *(np.flatnonzero(sa[1:] != sa[:-1]) + 1).tolist(),
                len(sa)]
        parts = tuple((int(sa[b]) >> self.bits, int(sa[b]) & self.mask,
                       self.wired_rows(sr[b:e]))
                      for b, e in zip(cuts, cuts[1:]))
        if (order[1:] > order[:-1]).all():
            return parts, None
        perm = np.empty(len(order), dtype=np.intp)
        perm[order] = self._iota[:len(order)]
        return parts, perm

    def spec(self, cls, refs, mem):
        if len(refs) == 1 and refs[0][0] == _O:
            return refs[0][1], refs[0][2], None
        pairs = [(a[mem], r[mem]) for a, r in (self.resolve(cls, [ref])[0]
                                               for ref in refs)]
        heads = [int(a[0]) for a, _ in pairs]
        addr, rows = pairs[0] if len(pairs) == 1 else (
            np.concatenate([a for a, _ in pairs]),
            np.concatenate([r for _, r in pairs]))
        if len(set(heads)) > 1 and all((a == h).all()
                                       for (a, _), h in zip(pairs, heads)):
            return tuple((h >> self.bits, h & self.mask, self.wired_rows(r))
                         for (_, r), h in zip(pairs, heads)), None, addr, rows
        spec = self.pack(addr, rows)
        return spec if len(spec) == 3 else spec + (addr, rows)


def _producers(spec):
    """The column groups a wired input reads."""
    return (spec[0],) if len(spec) == 3 else (p[0] for p in spec[0])


def _reference(tpl, lins):
    """``(program, slab sizes, step_m)`` as the per-block path builds
    them."""
    forest = _PerBlock(tpl, lins)
    prologue = _Block(tpl.prologue, 1, 0, 1)
    program, born, last_use = [(prologue,)], [], {}
    born += [(1 + i, (prologue, 0)) for i in range(len(tpl.once))]
    root, hist = tpl.root, 0
    stages = {stage: family for family, stage in tpl.stages.items()}
    tops = (int(forest.D.max()), int(forest.H.max()))

    def level(classes, seg, key):
        blocks = []
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
            for spec, (_, at, _) in zip(blk.imports, prog.imports):
                for cid in _producers(spec):
                    seen = last_use.get(cid)
                    if seen is None or seen[0] is not blk or seen[1] < at:
                        last_use[cid] = blk, at
            born.extend((blk.base + st.xi, (blk, st.last))
                        for st in prog.exports)
            blocks.append(blk)
        if blocks:
            program.append(tuple(blocks))

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
    for cid, at in born:
        if cid not in pinned:
            blk, lvl = last_use.get(cid, at)
            blk.release.append((lvl, cid))
    return program, _lay_slabs(forest, program, born), forest.step_m


def _lay_slabs(forest, program, born) -> list:
    """The union-find slab layout over every multi-producer import."""
    bits, mask = forest.bits, forest.mask
    multi = [(blk, i, blk.prog.imports[i][1]) for level in program
             for blk in level for i, spec in enumerate(blk.imports)
             if len(spec) == 4]
    root: dict = {}

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
    step_m, sizes, slab_of = forest.step_m, [], {}
    for head, addrs in groups.items():
        cids = [a >> bits for a in addrs]
        if not all(cid in owner for cid in cids):
            continue
        sid, n, offs = len(step_m) + len(sizes), 0, []
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
            imports[i] = (parts, perm, sid, forest.wired_rows(
                offs[np.searchsorted(addrs, addr)] + rows))
            seen = last_use.get(sid)
            if seen is None or seen[0] is not blk or seen[1] < level:
                last_use[sid] = blk, level
        blk.imports = tuple(imports)
    for sid, (blk, level) in last_use.items():
        blk.release.append((level, sid))
    return sizes


def _rows(rows, n=None):
    """What a wired row index selects, and how it is wired."""
    if rows is None:
        return "column", tuple(range(n))
    if isinstance(rows, slice):
        return "slice", tuple(range(rows.start, rows.stop))
    return "take", tuple(np.asarray(rows).tolist())


def _spec(spec, step_m):
    if len(spec) == 3:
        return spec[0], spec[1], _rows(spec[2], step_m[spec[0]])
    parts = tuple((cid, out, _rows(rows)) for cid, out, rows in spec[0])
    perm = None if spec[1] is None else tuple(spec[1].tolist())
    return parts, perm, spec[2:3], _rows(spec[3]) if len(spec) == 4 else ()


def assert_same_blocks(tpl, lins):
    """The instantiation equals the per-block reference, block for
    block."""
    lp = LevelPlan(tpl, lins)
    program, slabs, step_m = _reference(tpl, lins)
    assert lp.step_m == step_m
    assert lp.slabs == slabs
    assert [len(level) for level in lp.program] == [len(level)
                                                    for level in program]
    for got, ref in zip((b for level in lp.program for b in level),
                        (b for level in program for b in level)):
        assert got.prog is ref.prog
        assert (got.m, got.hist, got.base) == (ref.m, ref.hist, ref.base)
        assert [_spec(s, step_m) for s in got.imports] \
            == [_spec(s, step_m) for s in ref.imports]
        assert got.slabs == ref.slabs
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
