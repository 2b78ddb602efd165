"""Weight gradients without per-frame outer products.

``MatMul``'s gradient no longer materialises ``aᵀ @ g`` per frame when
``b`` is a variable: the frame hands its factor rows ``(a, g)`` to the
:class:`~repro.runtime.variables.GradientAccumulator` under its
structural order key, and ``read`` contracts all rows of a variable in
one ``A.T @ G``.  Compiled sweeps hand over whole columns through the
keyed columnar entry of ``AccumGrad``.  Pinned here:

* the accumulator's combination rule — any arrival order and any
  grouping into blocks of a mixed entry set (dense, ``IndexedSlices``,
  factor rows, un-keyed) reads the same bits; the dtype/shape fallback
  is the exact per-frame fold; ``retained_bytes`` counts factor rows;
* what autodiff emits, and where it must *not* defer;
* gradients ``array_equal`` across executors x tiers for the three tree
  models, and for loop-body frames of the iterative baseline;
* an independent finite-difference oracle on the *compiled* tier for a
  weight used by two matmuls and an elementwise op in one body, with
  two rows per frame — and the same definition by induction on the
  recursion (leaf root, depth 2, ``n -> n + 1``);
* the marshalling satellites: sliced operands are views nobody writes,
  and live-bytes bookkeeping closes at zero with alias outputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import batch_trees, make_treebank
from repro.graph.sparse import IndexedSlices
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)
from repro.runtime import level_plan
from repro.runtime.level_plan.block import _ONE, _SLAB
from repro.runtime.variables import GradientAccumulator, Variable, order_key

ENGINES = ["event", "workerpool"]
K, H = 3, 2


def _settings(examples):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=list(HealthCheck))


# -- the accumulator ---------------------------------------------------------

def _entry(kind, rng):
    """One contribution to a [K, H] variable: the values ``add`` takes."""
    if kind == "dense":
        return (rng.normal(size=(K, H)).astype(np.float32),)
    if kind == "sparse":
        rows = rng.choice(K, size=int(rng.integers(1, K + 1)), replace=False)
        return (IndexedSlices(rows, rng.normal(size=(len(rows), H))
                              .astype(np.float32), (K, H)),)
    r = int(rng.integers(1, 4))  # rows of one frame
    return (rng.normal(size=(r, K)).astype(np.float32),
            rng.normal(size=(r, H)).astype(np.float32))


def _reference(entries):
    """The documented rule, spelled out: contraction of the factor rows
    in key order, then gradient entries in key order, un-keyed last."""
    keyed = sorted((e for e in entries if e[0] is not None),
                   key=lambda e: e[0])
    ordered = keyed + [e for e in entries if e[0] is None]
    factors = [e for e in ordered if len(e) == 3]
    total = np.zeros((K, H), np.float32)
    started = False
    if factors:
        total = (np.concatenate([a for _, a, _ in factors]).T
                 @ np.concatenate([g for _, _, g in factors]))
        started = True
    for e in ordered:
        if len(e) == 3:
            continue
        grad = e[1].to_dense() if isinstance(e[1], IndexedSlices) else e[1]
        total = total + grad if started else np.array(grad)
        started = True
    return total


class TestAccumulatorRule:
    @_settings(60)
    @given(kinds=st.lists(st.sampled_from(["dense", "sparse", "factor"]),
                          min_size=1, max_size=10),
           unkeyed=st.integers(0, 2), seed=st.integers(0, 2**16),
           data=st.data())
    def test_any_arrival_order_and_blocking_reads_the_same(
            self, kinds, unkeyed, seed, data):
        rng = np.random.default_rng(seed)
        entries = [(order_key(((i % 3, i), 7)),) + _entry(kind, rng)
                   for i, kind in enumerate(kinds)]
        tail = [(None,) + _entry("dense", rng) for _ in range(unkeyed)]
        want = _reference(entries + tail)
        reads = []
        for _ in range(3):
            order = data.draw(st.permutations(range(len(entries))))
            acc = GradientAccumulator()
            pending = [entries[i] for i in order]
            while pending:
                # group a run of same-arity entries into one block, the
                # way a compiled step hands over a column
                n = data.draw(st.integers(1, len(pending)))
                run = [pending[0]]
                while len(run) < n and len(pending[len(run)]) == len(run[0]):
                    run.append(pending[len(run)])
                del pending[:len(run)]
                cols = [[e[j] for e in run] for j in range(1, len(run[0]))]
                shapes = {v.shape for v in cols[-1]
                          if isinstance(v, np.ndarray)}
                if len(shapes) == 1 and len(cols[-1]) == len(run) \
                        and all(isinstance(v, np.ndarray)
                                and v.shape == c[0].shape
                                for c in cols for v in c):
                    cols = [np.stack(c) for c in cols]  # array columns
                acc.add_block("w", [e[0] for e in run], *cols)
            for e in tail:  # host-side callers: arrival order is theirs
                acc.add("w", *e[1:])
            reads.append((np.copy(acc.read("w")), acc.read("w", dense=False)))
        for dense, loose in reads:
            assert np.array_equal(dense, want)
            assert dense.dtype == want.dtype
            if isinstance(loose, IndexedSlices):
                assert all(k == "sparse" for k in kinds) and not unkeyed
                assert np.array_equal(loose.to_dense(), want)
            else:
                assert np.array_equal(loose, want)

    def test_rows_of_one_frame_flatten_in_frame_order(self):
        """More than one row under one key: the frame's rows stay
        adjacent and ordered, wherever its block arrives."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2, K)).astype(np.float32)
        g = rng.normal(size=(3, 2, H)).astype(np.float32)
        keys = [order_key(((i,), 1)) for i in range(3)]
        acc = GradientAccumulator()
        acc.add_block("w", keys[::-1], a[::-1], g[::-1])
        want = a.reshape(6, K).T @ g.reshape(6, H)
        assert np.array_equal(acc.read("w"), want)

    def test_disagreeing_factor_rows_fold_per_frame(self):
        """Blocks that disagree on dtype (or inner shape) cannot share a
        GEMM: every frame's ``aᵀ g`` is formed and summed in key order —
        the exact dense chain."""
        rng = np.random.default_rng(1)
        rows = [(rng.normal(size=(1, K)).astype(dt),
                 rng.normal(size=(1, H)).astype(dt))
                for dt in (np.float32, np.float64, np.float32)]
        dense = rng.normal(size=(K, H)).astype(np.float32)
        acc = GradientAccumulator()
        for i in (2, 0, 1):
            acc.add("w", *rows[i], order=((i,), 0))
        acc.add("w", dense, order=((1,), 5))
        want = rows[0][0].T @ rows[0][1]
        want = want + rows[1][0].T @ rows[1][1]
        want = want + dense            # ((1,), 5) sorts before ((2,), 0)
        want = want + rows[2][0].T @ rows[2][1]
        got = acc.read("w")
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_retained_bytes_counts_factor_rows(self):
        acc = GradientAccumulator()
        a = np.zeros((4, 1, K), np.float32)
        g = np.zeros((4, 1, H), np.float32)
        acc.add_block("w", ["a", "b", "c", "d"], a, g)
        assert acc.retained_bytes == a.nbytes + g.nbytes
        acc.add("w", a[0], g[0], order=("e",))
        assert acc.retained_bytes == a.nbytes + g.nbytes + 4 * (K + H)
        acc.zero()
        assert acc.retained_bytes == 0


# -- what autodiff emits -----------------------------------------------------

class TestEmission:
    def test_weight_operand_defers_and_others_do_not(self, graph, runtime):
        x = ops.placeholder(repro.float32, (2, K))
        y = ops.placeholder(repro.float32, (K, H))
        w = Variable("w", np.ones((K, H), np.float32), runtime=runtime)
        loss = ops.reduce_sum(ops.add(ops.matmul(x, w.read()),
                                      ops.matmul(x, y)))
        before = graph.num_operations
        grads, updates = repro.gradients(loss, [y])
        new = [graph.op_by_id(i).op_type
               for i in range(before, graph.num_operations)]
        # x @ y keeps its dense gradient (Transpose + MatMul) ...
        assert grads[0] is not None
        # ... x @ w emits one two-input accumulate and nothing else for w
        assert [len(op.inputs) for op in updates
                if op.op_type == "AccumGrad"] == [2]
        assert new.count("MatMul") == 3  # two d/dx, one d/dy; no d/dw
        feed = {x: np.arange(6, dtype=np.float32).reshape(2, K),
                y: np.ones((K, H), np.float32)}
        session = repro.Session(graph, runtime)
        dy, *_ = session.run([grads[0]] + [op.outputs[-1] for op in updates],
                             feed)
        assert np.array_equal(dy, feed[x].T @ np.ones((2, H), np.float32))
        assert np.array_equal(runtime.accumulators.read("w"), dy)

    def test_symbolic_gradient_of_a_read_is_still_available(self, graph,
                                                            runtime):
        """``gradients(y, [w.read()])`` asks for the tensor: deferring
        it into a side effect would hand the caller ``None``."""
        x = ops.placeholder(repro.float32, (1, K))
        w = Variable("w", np.ones((K, H), np.float32), runtime=runtime)
        read = w.read()
        grads, _ = repro.gradients(ops.reduce_sum(ops.matmul(x, read)),
                                   [read])
        got = repro.Session(graph, runtime).run(
            grads[0], {x: np.array([[1, 2, 3]], np.float32)})
        assert np.array_equal(got, np.array([[1, 1], [2, 2], [3, 3]],
                                            np.float32))

    def test_loop_body_frames_key_by_iteration(self, graph, runtime):
        """The iterative baseline's frames: one body, one op id, the
        iteration in the frame key — rows sort by it on every mode."""
        w = Variable("w", np.eye(K, dtype=np.float32) * 0.5,
                     runtime=runtime)
        h0 = ops.placeholder(repro.float32, (1, K))
        _, h = ops.while_loop(
            lambda i, h: ops.less(i, 6),
            lambda i, h: (ops.add(i, 1), ops.tanh(ops.matmul(h, w.read()))),
            [ops.constant(0), h0])
        _, updates = repro.gradients(ops.reduce_sum(h), [])
        fetches = [op.outputs[-1] for op in updates]
        feed = {h0: np.array([[0.3, -0.2, 0.9]], np.float32)}
        reads = []
        for engine in ENGINES:
            for batching in (False, True):
                runtime.accumulators.zero()
                repro.Session(graph, runtime, record=True, engine=engine,
                              num_workers=3, batching=batching).run(
                                  fetches, feed)
                reads.append(np.copy(runtime.accumulators.read("w")))
        assert np.abs(reads[0]).sum() > 0
        for other in reads[1:]:
            assert np.array_equal(reads[0], other)


# -- the tree models, every executor x tier -----------------------------------

_MODELS = {
    "TreeRNN": lambda rt: TreeRNNSentiment(
        ModelConfig(hidden=6, embed_dim=6, vocab_size=40), rt),
    "TreeLSTM": lambda rt: TreeLSTMSentiment(
        tree_lstm_config(vocab_size=40, hidden=6, embed_dim=5), rt),
    "RNTN": lambda rt: RNTNSentiment(
        ModelConfig(hidden=5, embed_dim=5, vocab_size=40), rt),
}


@pytest.fixture(scope="module")
def trees():
    return make_treebank(num_train=4, num_val=0, vocab_size=40,
                         max_words=10, mean_log_words=2.0, seed=29).train


@pytest.mark.timeout(240)
@pytest.mark.parametrize("kind", sorted(_MODELS))
def test_gradients_equal_across_executors_and_tiers(kind, trees):
    runtime = repro.Runtime()
    built = _MODELS[kind](runtime).build_recursive(len(trees))
    batch = batch_trees(trees)
    _, updates = repro.gradients(built.loss, [])
    fetches = [built.loss] + [op.outputs[-1] for op in updates]
    profile = {"shape_profile": built.shape_profiles(batch)}
    results = {}
    for engine in ENGINES:
        for tier, batching, kwargs in (("unbatched", False, {}),
                                       ("dynamic", True, {}),
                                       ("compiled", True, profile)):
            session = repro.Session(built.graph, runtime, engine=engine,
                                    num_workers=3, record=True,
                                    batching=batching)
            runtime.accumulators.zero()
            runtime.cache.clear()
            loss = session.run(fetches, built.feed_dict(batch), **kwargs)[0]
            if tier == "compiled":
                assert session.last_stats.level_plan_hits == 1
            results[engine, tier] = (loss, {
                n: np.copy(runtime.accumulators.read(n))
                for n in runtime.accumulators.names()})
    ref_loss, ref = results["event", "unbatched"]
    assert any(np.abs(g).sum() > 0 for g in ref.values())
    for where, (loss, grads) in results.items():
        assert loss == ref_loss, where
        assert grads.keys() == ref.keys(), where
        for name in ref:
            assert np.array_equal(grads[name], ref[name]), (where, name)


# -- a weight used three ways in one body -------------------------------------

R = 2  # rows of every frame's state


class _Shared:
    """``h(node) = tanh(h(l) W + h(r) W + colsum(W * W))`` with ``[R, K]``
    states and ``h(leaf) = tanh(x W)``: ``W`` feeds two matmuls and an
    elementwise op in the internal body, one matmul in the leaf body."""

    _built = None

    def __init__(self):
        self.runtime = runtime = repro.Runtime()
        self.graph = graph = repro.Graph("shared-w")
        rng = np.random.default_rng(17)
        with graph.as_default():
            x = ops.placeholder(repro.float32, (None, R * K))
            children = ops.placeholder(repro.int32, (None, 2))
            is_leaf = ops.placeholder(repro.bool_, (None,))
            root = ops.placeholder(repro.int32, ())
            self.w = Variable("shared/W", (rng.normal(size=(K, K)) * 0.6)
                              .astype(np.float32), runtime=runtime)
            with SubGraph("shared_node") as node:
                idx = node.input(repro.int32, ())
                node.declare_outputs([(repro.float32, (R, K))])

                def leaf():
                    rows = ops.reshape(ops.gather(x, idx), (R, K))
                    return ops.tanh(ops.matmul(rows, self.w.read()))

                def internal():
                    kids = ops.gather(children, idx)
                    left = node(ops.gather(kids, 0))
                    right = node(ops.gather(kids, 1))
                    w = self.w.read()
                    both = ops.add(ops.matmul(left, w), ops.matmul(right, w))
                    return ops.tanh(ops.add(both, ops.reduce_sum(
                        ops.multiply(w, w), axis=0, keepdims=True)))

                node.output(ops.cond(ops.gather(is_leaf, idx), leaf,
                                     internal))
            self.loss = ops.reduce_sum(ops.square(node(root)))
            _, updates = repro.gradients(self.loss, [])
        self.fetches = [self.loss] + [op.outputs[-1] for op in updates]
        self.placeholders = (x, children, is_leaf, root)

    @classmethod
    def get(cls) -> "_Shared":
        if cls._built is None:
            cls._built = cls()
        return cls._built

    def feeds(self, profile):
        kids, leaves = [], []

        def build(p):
            mine = [build(c) for c in p]
            kids.append(mine or [0, 0])
            leaves.append(not p)
            return len(kids) - 1

        root = build(profile)
        rng = np.random.default_rng(len(kids))
        return dict(zip(self.placeholders, (
            rng.normal(size=(len(kids), R * K)).astype(np.float32),
            np.array(kids, np.int32), np.array(leaves), root)))

    def run(self, profile, compiled, **session_kwargs):
        """(loss, dW, stats) of one training run on one tier."""
        session = repro.Session(self.graph, self.runtime, record=True,
                                num_workers=2, **session_kwargs)
        acc = self.runtime.accumulators
        acc.zero()
        self.runtime.cache.clear()
        kwargs = {"shape_profile": (profile,)} if compiled else {}
        loss = session.run(self.fetches, self.feeds(profile), **kwargs)[0]
        assert session.last_stats.level_plan_hits == int(compiled)
        return loss, np.copy(acc.read("shared/W")), session.last_stats


def _graft(profile, path):
    """``profile`` with the leaf ``path`` leads to made internal."""
    if not profile:
        return ((), ())
    i = path[0] % 2
    return (profile[:i] + (_graft(profile[i], path[1:] or (0,)),)
            + profile[i + 1:])


DEEP = ((((), ()), ()), ((), ((), ())))  # 9 nodes, heights 0..3


class TestSharedWeight:
    def test_mixed_entries_per_variable(self):
        """One variable, one sweep: factor rows from three matmul sites
        and dense entries from the elementwise site, one rule."""
        model = _Shared.get()
        model.run(DEEP, compiled=True)
        blocks = model.runtime.accumulators._entries["shared/W"]
        arities = sorted(len(cols) for _, cols in blocks)
        assert set(arities) == {1, 2}
        internal = sum(1 for _ in _internal(DEEP))
        rows = {n: sum(len(keys) for keys, cols in blocks
                       if len(cols) == n) for n in (1, 2)}
        assert rows == {1: internal, 2: 2 * internal + (internal + 1)}
        # two rows per frame, whole columns handed over
        assert all(col.shape[1] == R for _, cols in blocks
                   if len(cols) == 2 for col in cols)

    def test_finite_differences_on_the_compiled_tier(self):
        """The independent oracle: central differences of the compiled
        tier's own loss, every element of ``W``."""
        model = _Shared.get()
        _, grad, stats = model.run(DEEP, compiled=True)
        assert not stats.level_row_loop_steps.get("AccumGrad")
        session = repro.Session(model.graph, model.runtime, num_workers=2)
        base = np.array(model.w.value())
        eps = 1e-2
        try:
            for i in range(base.size):
                losses = []
                for sign in (+1, -1):
                    bumped = base.copy().reshape(-1)
                    bumped[i] += sign * eps
                    model.w.assign_value(bumped.reshape(base.shape))
                    losses.append(float(session.run(
                        model.loss, model.feeds(DEEP),
                        shape_profile=(DEEP,))))
                    assert session.last_stats.level_plan_hits == 1
                numeric = (losses[0] - losses[1]) / (2 * eps)
                assert numeric == pytest.approx(
                    float(grad.reshape(-1)[i]), rel=2e-2, abs=2e-3), i
        finally:
            model.w.assign_value(base)

    def test_base_cases(self):
        model = _Shared.get()
        for profile in ((), ((), ())):
            dyn = model.run(profile, compiled=False)
            lvl = model.run(profile, compiled=True)
            assert dyn[0] == lvl[0]
            assert np.array_equal(dyn[1], lvl[1])
            assert dyn[2].ops_executed == lvl[2].ops_executed

    @_settings(10)
    @given(paths=st.lists(st.lists(st.integers(0, 1), min_size=1,
                                   max_size=5), min_size=1, max_size=6))
    def test_step_by_grafting(self, paths):
        """If shape ``n`` agrees across tiers, so must ``n`` plus one
        node — unbatched, coalesced and compiled."""
        model = _Shared.get()
        profile = ()
        for path in paths:
            profile = _graft(profile, tuple(path))
            ref = model.run(profile, compiled=False, batching=False)
            for got in (model.run(profile, compiled=False),
                        model.run(profile, compiled=True)):
                assert got[0] == ref[0]
                assert np.array_equal(got[1], ref[1])
                assert got[2].per_type_count == ref[2].per_type_count


def _internal(profile):
    if profile:
        yield profile
        for child in profile:
            yield from _internal(child)


# -- marshalling satellites ----------------------------------------------------

class TestMarshalling:
    def test_sliced_operands_are_views_nobody_writes(self, monkeypatch):
        """Contiguous row ranges are wired as basic slices: the operand
        is a view of the producer column.  Hand every such view out
        read-only — a kernel (or the accumulator) writing one would
        raise — and the sweep must still equal the dynamic tier."""
        real = level_plan.sweep._take
        views = {"n": 0}

        def guarded(col, rows):
            out = real(col, rows)
            if isinstance(out, np.ndarray) and out.base is not None:
                out.flags.writeable = False
                views["n"] += 1
            return out

        monkeypatch.setattr(level_plan.sweep, "_take", guarded)
        model = _Shared.get()
        lvl = model.run(DEEP, compiled=True)
        monkeypatch.undo()
        assert views["n"] > 0
        dyn = model.run(DEEP, compiled=False)
        assert dyn[0] == lvl[0] and np.array_equal(dyn[1], lvl[1])

    def test_contiguous_rows_become_slices(self):
        """An import the template wires as one column of the member's own
        key leaves no contiguous ascending run as an index array: its
        rows are the column, a slice or a real gather.  Imports whose
        producers follow the forest's shape (one producer block found by
        rank, or a slab) are a gather by design: the template cannot
        prove their rows contiguous."""
        model = _Shared()
        model.run(DEEP, compiled=True)
        lp, = model.graph._level_plans["instances"].values()
        slices, general = 0, 0
        for level in lp.program:
            for blk in level:
                for spec, wired in zip(blk.imports, blk.prog.wiring):
                    rows = spec[-1]     # of a column, or of a slab
                    if wired[0] in (_ONE, _SLAB):
                        assert rows.__class__ is np.ndarray
                        general += 1
                    elif rows.__class__ is slice:
                        assert 0 <= rows.start < rows.stop
                        slices += 1
                    elif rows is not None:
                        assert (np.diff(rows) != 1).any()
        assert slices and general

    def test_live_bytes_close_at_zero_with_alias_outputs(self):
        """An accumulate step's output *is* its input column: booked
        once, by its producer — never as scratch of the accumulate step
        — and the sweep's books close at zero."""
        model = _Shared()  # a fresh graph: its one instantiation
        session = repro.Session(model.graph, model.runtime, record=True,
                                track_live_bytes=True)
        model.runtime.accumulators.zero()
        session.run(model.fetches, model.feeds(DEEP), shape_profile=(DEEP,))
        stats = session.last_stats
        assert stats.level_plan_hits == 1
        assert session._engine._live_bytes == 0
        assert 0 < model.runtime.accumulators.retained_bytes \
            < stats.peak_live_bytes
        lp, = model.graph._level_plans["instances"].values()
        accumulate = [step for level in lp.program for blk in level
                      for step in blk.prog.steps
                      if step.op.op_type == "AccumGrad"]
        assert accumulate and not any(step.scratch for step in accumulate)
