"""Import wiring of an instantiation against a per-block reference.

The template decides each (class, segment, import)'s wiring once, and
:class:`LevelPlan` computes only its rows per forest.  The reference
below wires one block at a time — per block and import, its members'
addresses and rows, the way instantiation worked before any of it moved
to the template.  On generated forests of 1–16 runs (one-leaf runs,
single-member blocks, classes absent at some depths or heights,
recorded training forests with frame keys) both must give the same
blocks: members and widths, and every import — single-producer and slab
alike — by the (producer column, out, row) each member reads; an import
the template wires as one column also by kind (alias, slice, take).
Slabs must tile their columns back to back, and every column and slab
must be released right after its last read.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.models import TreeLSTMSentiment, tree_lstm_config
from repro.runtime.level_plan import Template, linearise, template_for
from repro.runtime.level_plan.block import (_B, _C, _M, _O, _ONE, _S,
                                            _SLAB)
from repro.runtime.level_plan.forest import LevelPlan, _Block, _Forest
from repro.runtime.plan import plan_for_fetches
from repro.runtime import Runtime
from tests.test_level_template import _Model, _profiles, _settings


class _PerBlock(_Forest):
    """The reference: every import of every block wired on its own, each
    ref resolved on its own over all nodes (memoised per ref) by walking
    the class, site and binding it reads."""

    def __init__(self, tpl, lins):
        super().__init__(tpl, lins)
        self._iota = np.arange(self.n_nodes * tpl.max_merge + 1,
                               dtype=np.intp)
        self._resolved: dict = {}     # (class / family, ref) -> arrays
        self._picks: dict = {}        # what a bound / called ref reads
        self._bases: dict = {}        # (class, segment) -> per-node keys

    def resolve(self, cls, refs):
        """Per ref and node (valid on the members of ``cls``): the packed
        column address and the row holding the ref's value, as one
        ``[refs, 2, nodes]`` array.  Refs not yet resolved resolve
        together by kind — one class segment's steps, one family's bound
        names, one call site's outputs — memoised per ref."""
        memo = self._resolved
        keys = [(cls.family if ref[0] in (_B, _O) else cls.index, ref)
                for ref in refs]
        groups: dict = {}
        for key, ref in zip(keys, refs):
            if key not in memo:
                kind = ref[0]
                group = (cls.ops[ref[1]].seg if kind == _S else
                         ref[1] in self.template.inherited[cls.family]
                         if kind == _B else ref[1] if kind == _C else None)
                groups.setdefault((kind, group), {})[key] = ref
        for (kind, group), todo in groups.items():
            memo.update(zip(todo, self._resolve(cls, kind, group,
                                                list(todo.values()))))
        return np.array([memo[key] for key in keys])

    def _resolve(self, cls, kind, group, refs):
        """``refs`` of one kind and group resolved together."""
        n = self.n_nodes
        if kind == _S:
            base = self._bases.get((cls.index, group))
            if base is None:    # per node: its column group, count, rank
                pop, by = self.pops[cls.count], cls.blocks[group].kind
                key_of = self.H if by else self.D
                base = self._bases[cls.index, group] = (
                    self.base[cls.index, group][key_of] << self.bits,
                    pop.cnt[by][key_of], pop.rank[by])
            ops = [cls.ops[ref[1]] for ref in refs]
            assert all(o.step.xi >= 0 for o in ops), \
                "a block-local value read across blocks"
            got = np.empty((len(refs), 2, n), dtype=np.int64)
            got[:, 0] = base[0] + np.array(
                [o.step.xi << self.bits | ref[2]
                 for o, ref in zip(ops, refs)])[:, None]
            got[:, 1] = base[1] * np.array([o.k for o in ops])[:, None] \
                + base[2]
            return got
        if kind == _O:
            got = np.zeros((len(refs), 2, n), dtype=np.int64)
            got[:, 0] = np.array([ref[1] << self.bits | ref[2]
                                  for ref in refs])[:, None]
            return got
        if kind == _M:
            return self.resolve(cls.mirror, [ref[1] for ref in refs])
        if kind == _B:
            return self._bound(cls.family, group, [ref[1] for ref in refs])
        return self._called(cls, group, [ref[2] for ref in refs])

    def _read(self, key, picks, refs_of, n_refs):
        """Per node: what its source holds for refs in a class, over the
        ``(cls, site, mask)`` picks (memoised by ``key`` as the nodes and
        sources each selects): ``refs_of(cls, site)`` are the refs."""
        got = self._picks.get(key)
        if got is None:
            nodes, src, picks = picks()
            got = self._picks[key] = [
                (cls, site, nodes[sel], src[sel]) for cls, site, sel in (
                    (c, s, m.nonzero()[0]) for c, s, m in picks)
                if len(sel)]
        out = np.zeros((n_refs, 2, self.n_nodes), dtype=np.int64)
        for cls, site, nodes, src in got:
            out[:, :, nodes] = self.resolve(cls, refs_of(cls, site)).take(
                src, 2)
        return out

    def _bound(self, family, inherited, names):
        """Bound placeholders: the parent's value at the call site — the
        tree root's call site for names passed down unchanged."""
        def picks():
            nodes = (self.D > 0).nonzero()[0]
            src = self.T[nodes] if inherited else nodes
            par = self.P[src]
            top, pc, ps = self.D[par] == 0, self.C[par], self.S[src]
            root = self.template.root
            return nodes, par, [
                (cls, site, (ps == site.child)
                 & (top if cls is root else ~top & (pc == cls.count)))
                for cls in ([root] if inherited
                            else [root, *self.family(family)])
                for site in cls.sites if site.family == family]
        return self._read((family, inherited), picks, lambda cls, site: [
            site.bind[name] for name in names], len(names))

    def _called(self, cls, si, outs):
        """Outputs ``outs`` of recursive call site ``si``: the child
        frame's, whichever class the child's own count selects."""
        site = cls.sites[si]

        def picks():
            at = self.pops[cls.count].members[0]
            child = self.F[at] + site.child
            cc = self.C[child]
            return at, child, [(u, None, cc == u.count)
                               for u in self.family(site.family)]
        return self._read((cls.index, si), picks, lambda u, _: [
            u.outputs[j] for j in outs], len(outs))


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
    """``(program, owner)`` as the per-block path builds them: the blocks
    with their specs, and per column group the position of its producer
    block in program order."""
    forest = _PerBlock(tpl, lins)
    prologue = _Block(tpl.prologue, 1, 0, 1)
    program, blocks, born = [(prologue,)], [prologue], []
    born += [(1 + i, 0) for i in range(len(tpl.once))]
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
            born.extend((blk.base + st.xi, len(blocks))
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
    return program, {0: 0, **dict(born)}


def _rows(rows, n=None):
    """What a wired row index selects, and how it is wired."""
    if rows is None:
        return "column", tuple(range(n))
    if isinstance(rows, slice):
        return "slice", tuple(range(rows.start, rows.stop))
    return "take", tuple(np.asarray(rows).tolist())


def _releases(lp, tpl, blocks, owner):
    """Per block the releases its plan's own reads imply: a column after
    its last read by another block, else — filled into a slab — after
    its block's last level, else after its last read in its block; a
    slab after its last read or that of a block column in it; nothing
    behind a root value (a fetch candidate) ever."""
    n, once = len(lp.step_m), len(tpl.once)
    last, slab_of = {}, {}
    for at, blk in enumerate(blocks):
        for cid, _, sid, _, _ in blk.slabs:
            slab_of.setdefault(cid, set()).add(sid)
        for spec, (_, level, _) in zip(blk.imports, blk.prog.imports):
            key = spec[0] if len(spec) == 2 or spec[0] <= once \
                or owner[spec[0]] != at else None
            if key is not None:
                last[key] = max(last.get(key, (-1, -1)), (at, level))
    for cid, sids in slab_of.items():
        if cid > once and cid in last:
            for sid in sids:
                last[sid] = max(last[sid], last[cid])
    pinned = {cid for cid, _ in lp._root}
    pinned.update(cid for cids, _, _ in lp._fetch.values() for cid in cids)
    want = [[] for _ in blocks]
    for at, blk in enumerate(blocks):
        for st in blk.prog.exports:
            cid = blk.base + st.xi
            if cid in pinned:
                continue
            if cid in last:
                p, level = last[cid]
            else:
                p, level = at, (blk.prog.n_levels - 1 if cid in slab_of
                                else st.last)
            want[p].append((level, cid))
    kept = {sid for cid in pinned for sid in slab_of.get(cid, ())}
    for sid in range(n, n + len(lp.slabs)):
        if sid not in kept:
            p, level = last[sid]
            want[p].append((level, sid))
    return want


def assert_same_blocks(tpl, lins):
    """The instantiation equals the per-block reference, block for
    block."""
    lp = LevelPlan(tpl, lins)
    program, owner = _reference(tpl, lins)
    bits, mask, n = tpl.out_bits, (1 << tpl.out_bits) - 1, len(lp.step_m)
    step_m = lp.step_m
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
    for got, ref in zip(got_blocks, (b for level in program for b in level)):
        assert got.prog is ref.prog
        assert (got.m, got.hist, got.base) == (ref.m, ref.hist, ref.base)
        assert len(got.imports) == len(ref.imports)
        for spec, want, wired in zip(got.imports, ref.imports,
                                     got.prog.wiring):
            if len(want) == 3:   # one producer
                cid, out, rows = want
                reads = [(cid, out, r) for r in _rows(rows, step_m[cid])[1]]
            else:
                addr, rows = want
                reads = list(zip((addr >> bits).tolist(),
                                 (addr & mask).tolist(), rows.tolist()))
            if wired[0] == _SLAB:
                sid, rows = spec
                assert _rows(rows)[0] == "take"
                assert [held[sid][i] for i in _rows(rows)[1]] == reads
                continue
            # the template proved one producer: so does the reference
            assert len(want) == 3 and spec[:2] == want[:2]
            kind, sel = _rows(spec[2], step_m[spec[0]])
            assert [(spec[0], spec[1], r) for r in sel] == reads
            if wired[0] == _ONE:
                assert kind == "take"
            else:   # wired from the definition: the reference's kind
                assert kind == _rows(want[2], step_m[want[0]])[0]
        assert got.keys == ref.keys
        assert (got.runs is None) == (ref.runs is None)
        if ref.runs is not None:
            assert np.array_equal(got.runs, ref.runs)
    for got, want in zip(got_blocks, _releases(lp, tpl, got_blocks, owner)):
        assert sorted(got.release) == sorted(want)
    return lp


def _template(model, train):
    plan = plan_for_fetches(model.graph, {t.op for t in model.fetches(train)})
    tpl = template_for(model.graph, plan, train)
    assert isinstance(tpl, Template)
    return tpl


_LSTM: dict = {}


def _lstm_template(train=False):
    """The TreeLSTM template of batch-1 requests: inference (the serving
    workload's forests) or a recorded gradient step."""
    if train not in _LSTM:
        model = TreeLSTMSentiment(tree_lstm_config(hidden=8, embed_dim=6),
                                  Runtime())
        built = model.build_recursive(1)
        fetches = [built.root_logits]
        if train:
            fetches += [built.loss] + [
                op.outputs[-1] for op in repro.gradients(built.loss, [])[1]]
        plan = plan_for_fetches(built.graph, {t.op for t in fetches})
        _LSTM[train] = template_for(built.graph, plan, train)
    return _LSTM[train]


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

    @_settings(15)
    @given(forest=st.lists(_profiles(2, max_leaves=12), min_size=1,
                           max_size=8))
    @example(forest=[()])
    def test_treelstm_training_forests(self, forest):
        """Gradient blocks read the forward columns of their key, and
        slabs join many columns: the most wiring kinds of any forest."""
        tpl = _lstm_template(train=True)
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
