"""Columnar compiled sweeps: one stacked array per bucket, index-wired.

The compiled tier stores a level's values as *columns* — one array per
bucket output, members on axis 0 — and the LevelPlan compiler wires
every bucket input to its producer column (alias, row-index ``take`` or
invariant).  The contract with the dynamic tier is unchanged:
bit-identical values and gradients, identical cache contents, the same
``RunStats`` accounting.  These tests pin the pieces the columns added:
the list-column fallback, run-major merging (and compaction when a run
is cancelled mid-sweep), the vectorised predicate check, and the stacked
kernel entries.
"""

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import batch_trees, make_treebank
from repro.graph.registry import op_def
from repro.models import TreeLSTMSentiment, tree_lstm_config
from repro.runtime.scheduler import SchedulerCore, available_executors
from repro.runtime.server import RequestCancelled
from repro.runtime.variables import Variable

ENGINES = available_executors()
SWEEP_ENGINES = [e for e in ("event", "workerpool", "procpool")
                 if e in ENGINES]
LSTM = tree_lstm_config(vocab_size=50, hidden=6, embed_dim=5)


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=16, num_val=4, vocab_size=50,
                         max_words=12, mean_log_words=2.2, seed=11)


def _lstm_run(engine, trees, train, profile):
    """One fresh TreeLSTM build + run: (values, grads, stats)."""
    runtime = repro.Runtime()
    model = TreeLSTMSentiment(LSTM, runtime)
    built = model.build_recursive(len(trees))
    batch = batch_trees(trees)
    fetches = [built.loss, built.root_logits]
    if train:
        _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, runtime, num_workers=4,
                            engine=engine, record=train)
    runtime.accumulators.zero()
    kwargs = ({"shape_profile": built.shape_profiles(batch)}
              if profile else {})
    values = session.run(fetches, built.feed_dict(batch), **kwargs)
    grads = {name: np.copy(runtime.accumulators.read(name))
             for name in runtime.accumulators.names()}
    return values, grads, session.last_stats


def _assert_same(ref, got):
    for a, b in zip(ref[0], got[0]):
        assert np.array_equal(a, b)
    assert set(ref[1]) == set(got[1])
    for name in ref[1]:
        assert np.array_equal(ref[1][name], got[1][name]), name


def _nary_graph(name, arity):
    """``h(node) = tanh(w * sum(h(children)) + v * x[node])`` over a fed
    array-encoded tree; ``w`` and ``v`` are trainable."""
    runtime = repro.Runtime()
    graph = repro.Graph(name)
    with graph.as_default():
        x = ops.placeholder(repro.float32, (None, 4))
        children = ops.placeholder(repro.int32, (None, arity))
        is_leaf = ops.placeholder(repro.bool_, (None,))
        root = ops.placeholder(repro.int32, ())
        w = Variable(f"{name}/w", np.full((4,), 0.5, np.float32),
                     runtime=runtime)
        v = Variable(f"{name}/v", np.linspace(-1, 1, 4, dtype=np.float32),
                     runtime=runtime)
        with SubGraph(f"{name}_node") as node:
            idx = node.input(repro.int32, ())
            node.declare_outputs([(repro.float32, (4,))])

            def leaf():
                return ops.tanh(ops.multiply(v.read(), ops.gather(x, idx)))

            def internal():
                kids = ops.gather(children, idx)
                total = node(ops.gather(kids, 0))
                for j in range(1, arity):
                    total = ops.add(total, node(ops.gather(kids, j)))
                return ops.tanh(ops.add(
                    ops.multiply(w.read(), total),
                    ops.multiply(v.read(), ops.gather(x, idx))))

            node.output(ops.cond(ops.gather(is_leaf, idx), leaf, internal))
        loss = ops.reduce_sum(ops.square(node(root)))
        _, updates = repro.gradients(loss, [])
    return runtime, graph, loss, updates, (x, children, is_leaf, root)


def _rand_profile(rng, arity, depth):
    if depth <= 1 or rng.random() < 0.3:
        return ()
    return tuple(_rand_profile(rng, arity, depth - 1) for _ in range(arity))


def _encode(profile, arity, rng):
    """Post-order array encoding of a profile with random node inputs."""
    kids = []

    def build(p):
        mine = [build(c) for c in p]
        kids.append(mine if mine else [-1] * arity)
        return len(kids) - 1

    root = build(profile)
    return {"x": rng.normal(size=(len(kids), 4)).astype(np.float32),
            "children": np.array(kids, dtype=np.int32),
            "is_leaf": np.array([k[0] < 0 for k in kids]), "root": root}


class TestBitIdentity:
    """(a) Values and gradients equal the dynamic tier exactly."""

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("engine", SWEEP_ENGINES)
    def test_randomized_binary_trees(self, engine, train):
        wide = make_treebank(num_train=8, num_val=0, vocab_size=50,
                             max_words=16, mean_log_words=2.4, seed=41)
        for lo in (0, 4):
            trees = wide.train[lo:lo + 4]
            dynamic = _lstm_run(engine, trees, train, profile=False)
            compiled = _lstm_run(engine, trees, train, profile=True)
            assert compiled[2].level_plan_hits == 1
            assert compiled[2].level_plan_fallbacks == 0
            _assert_same(dynamic, compiled)

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("engine", SWEEP_ENGINES)
    def test_randomized_nary_trees(self, engine, train):
        rng = np.random.default_rng(5)
        runtime, graph, loss, updates, phs = _nary_graph(
            f"nary-{engine}-{train}", 3)
        fetches = [loss] + ([op.outputs[-1] for op in updates]
                            if train else [])
        session = repro.Session(graph, runtime, num_workers=4,
                                engine=engine, record=train)
        for _ in range(3):
            profile = (_rand_profile(rng, 3, 4),
                       _rand_profile(rng, 3, 3), ())
            enc = _encode(profile, 3, rng)
            feeds = dict(zip(phs, (enc["x"], enc["children"],
                                   enc["is_leaf"], enc["root"])))
            results = []
            for kwargs in ({}, {"shape_profile": (profile,)}):
                runtime.accumulators.zero()
                values = session.run(fetches, feeds, **kwargs)
                grads = {n: np.copy(runtime.accumulators.read(n))
                         for n in runtime.accumulators.names()}
                results.append((values, grads))
            assert session.last_stats.level_plan_hits == 1
            _assert_same(*results)


class TestListColumnFallback:
    """(b) Members of one bucket with different input shapes at run time
    keep a list column and loop the scalar kernel — still exact, still
    compiled."""

    def _graph(self, name):
        graph = repro.Graph(name)
        with graph.as_default():
            values = ops.placeholder(repro.float32, (None,))
            children = ops.placeholder(repro.int32, (None, 2))
            is_leaf = ops.placeholder(repro.bool_, (None,))
            root = ops.placeholder(repro.int32, ())
            with SubGraph("tcat") as tcat:
                idx = tcat.input(repro.int32, ())
                tcat.declare_outputs([(repro.float32, (None,))])

                def leaf():
                    return ops.reshape(ops.gather(values, idx), (1,))

                def internal():
                    pair = ops.gather(children, idx)
                    return ops.tanh(ops.concat(
                        [tcat(ops.gather(pair, 0)),
                         tcat(ops.gather(pair, 1))], axis=0))

                tcat.output(ops.cond(ops.gather(is_leaf, idx), leaf,
                                     internal))
            out = tcat(root)
        return graph, out, (values, children, is_leaf, root)

    @pytest.mark.parametrize("engine", SWEEP_ENGINES)
    def test_ragged_members_match_dynamic(self, engine):
        graph, out, phs = self._graph(f"ragged-{engine}")
        # two height-3 siblings with 3 and 4 leaves: their Concat / Tanh
        # instances share a level and a bucket but not a shape
        profile = ((((), ()), ()), (((), ()), ((), ())))
        kids = []

        def build(p):
            mine = [build(c) for c in p]
            kids.append(mine or [-1, -1])
            return len(kids) - 1

        root = build(profile)
        feeds = dict(zip(phs, (
            np.linspace(-1, 1, len(kids), dtype=np.float32),
            np.array(kids, dtype=np.int32),
            np.array([k[0] < 0 for k in kids]), root)))
        session = repro.Session(graph, repro.Runtime(), num_workers=4,
                                engine=engine)
        ref = session.run(out, feeds)
        got = session.run(out, feeds, shape_profile=(profile,))
        stats = session.last_stats
        assert stats.level_plan_hits == 1
        assert stats.level_plan_fallbacks == 0
        assert ref.shape == (7,)
        assert np.array_equal(ref, got)


class TestMergedRuns:
    """(c) k same-plan runs extend every column run-major; the result of
    each equals its own separate run."""

    def _serve(self, bank, n, cancel_at=None, monkeypatch=None):
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(1)
        # same shape, different words: one plan, distinct feeds
        tree = bank.train[0]
        batches = [batch_trees([tree]) for _ in range(n)]
        feeds = []
        for i, b in enumerate(batches):
            feed = built.feed_dict(b)
            words = built.placeholders["words"]
            feed[words] = (feed[words] + i) % 50
            feeds.append(feed)
        session = repro.Session(built.graph, runtime, num_workers=4)
        refs = [session.run(built.root_logits, f) for f in feeds]
        profile = built.shape_profiles(batches[0])
        with session.serve(max_in_flight=8) as server:
            tickets = [server.submit(built.root_logits, f, at=0.0,
                                     shape_profile=profile) for f in feeds]
            if cancel_at is not None:
                calls = {"n": 0}
                real = SchedulerCore._execute_level_calls

                def cancelling(core, lp, level_calls, sweep):
                    calls["n"] += 1
                    if calls["n"] == cancel_at:
                        assert tickets[1].cancel()
                    real(core, lp, level_calls, sweep)

                monkeypatch.setattr(SchedulerCore, "_execute_level_calls",
                                    cancelling)
            server.drain()
            stats = server.stats
        return refs, tickets, stats

    def test_serving_burst_matches_separate_runs(self, bank):
        refs, tickets, stats = self._serve(bank, 4)
        assert stats.level_plan_hits == 4
        assert max(w for hist in stats.level_width_hist.values()
                   for w in hist) >= 4
        for ref, ticket in zip(refs, tickets):
            assert np.array_equal(ref, ticket.result())

    def test_run_cancelled_mid_sweep_is_compacted_out(self, bank,
                                                      monkeypatch):
        refs, tickets, _ = self._serve(bank, 4, cancel_at=5,
                                       monkeypatch=monkeypatch)
        with pytest.raises(RequestCancelled):
            tickets[1].result()
        for i in (0, 2, 3):
            assert np.array_equal(refs[i], tickets[i].result())

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    def test_subtree_runs_merge_under_canon_depth(self, bank, train):
        trees = [t for t in bank.train if t.depth > 4][:2]
        dynamic = _lstm_run("event", trees, train, profile=False)
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(len(trees))
        batch = batch_trees(trees)
        fetches = [built.loss, built.root_logits]
        if train:
            _, updates = repro.gradients(built.loss, [])
            fetches += [op.outputs[-1] for op in updates]
        session = repro.Session(built.graph, runtime, num_workers=4,
                                record=train, level_canon_depth=3)
        runtime.accumulators.zero()
        values = session.run(fetches, built.feed_dict(batch),
                             shape_profile=built.shape_profiles(batch))
        grads = {n: np.copy(runtime.accumulators.read(n))
                 for n in runtime.accumulators.names()}
        stats = session.last_stats
        assert stats.level_plan_subtree_runs > stats.level_plan_cache_misses
        assert stats.level_plan_fallbacks == 0
        _assert_same(dynamic, (values, grads, stats))


class TestLyingProfile:
    """(d) The per-level vector compare still refuses a profile the fed
    data contradicts — in either direction, on every executor."""

    @pytest.mark.parametrize("claim", [((),), ((((), ()), ()),)],
                             ids=["claims-leaf", "claims-deeper"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_raises_engine_error(self, engine, claim):
        graph = repro.Graph(f"liar-{engine}-{len(claim[0])}")
        with graph.as_default():
            values = ops.placeholder(repro.float32, (None,))
            children = ops.placeholder(repro.int32, (None, 2))
            is_leaf = ops.placeholder(repro.bool_, (None,))
            with SubGraph("tsum") as tsum:
                idx = tsum.input(repro.int32, ())
                tsum.declare_outputs([(repro.float32, ())])

                def internal():
                    pair = ops.gather(children, idx)
                    return ops.add(tsum(ops.gather(pair, 0)),
                                   tsum(ops.gather(pair, 1)))

                tsum.output(ops.cond(ops.gather(is_leaf, idx),
                                     lambda: ops.gather(values, idx),
                                     internal))
            out = tsum(ops.constant(2))
        feeds = {values: np.array([2.0, 3.0, 1.0], dtype=np.float32),
                 children: np.array([[0, 0], [0, 0], [0, 1]],
                                    dtype=np.int32),
                 is_leaf: np.array([True, True, False])}
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine)
        assert session.run(out, feeds, shape_profile=(((), ()),)) == 5.0
        with pytest.raises(repro.EngineError, match="shape profile"):
            session.run(out, feeds, shape_profile=claim)


class TestStackedKernels:
    """(e) + (g) The batched and stacked entries of one kernel."""

    def test_matmul_never_collapses_into_one_gemm(self):
        """A ``[B, K] @ W`` GEMM is *not* bit-identical to B products
        ``[1, K] @ W`` (BLAS blocks the tall product differently); both
        MatMul entries must equal the scalar kernel exactly."""
        rng = np.random.default_rng(0)
        definition = op_def("MatMul")
        collapsed_differs = False
        for k, h, b in [(64, 320, 16), (128, 64, 16), (64, 64, 32)]:
            w = rng.standard_normal((k, h)).astype(np.float32)
            xs = [rng.standard_normal((1, k)).astype(np.float32)
                  for _ in range(b)]
            scalar = [definition.kernel(None, [x, w], None)[0] for x in xs]
            gemm = np.stack(xs).reshape(b, k) @ w
            collapsed_differs |= any(
                not np.array_equal(gemm[i:i + 1], scalar[i])
                for i in range(b))
            batched = definition.batched_kernel(
                [None] * b, [[x, w] for x in xs], [None] * b)
            stacked, = definition.stacked_kernel(
                None, [np.stack(xs), w], (False, True), None)
            for i in range(b):
                assert np.array_equal(batched[i][0], scalar[i])
                assert np.array_equal(stacked[i], scalar[i])
        if not collapsed_differs:
            pytest.skip("this BLAS collapses [B,K]@W bit-identically; "
                        "the regression has nothing to catch here")

    def test_shared_operand_is_not_copied(self):
        """An input that is the same object for every member reaches
        numpy as one array (satellite: no per-member ``np.stack``)."""
        from repro.ops.common import stack_members
        w = np.ones((4, 3), np.float32)
        xs = [np.full((1, 4), i, np.float32) for i in range(3)]
        cols, inv = stack_members([[x, w] for x in xs])
        assert inv == (False, True)
        assert cols[1] is w and cols[0].shape == (3, 1, 4)

    @pytest.mark.parametrize("name,inputs", [
        ("Add", [np.float32(1.5), np.arange(3, dtype=np.float32)]),
        ("MatMul", [np.ones((1, 4), np.float32),
                    np.ones((4, 2), np.float32)]),
        ("Gather", [np.arange(6).reshape(3, 2), np.int32(1)]),
        ("Transpose", [np.arange(6.0).reshape(2, 3)]),
    ])
    def test_all_operands_shared_falls_back_to_member_loop(self, name,
                                                           inputs):
        """(g) When every operand is shared no batch axis appears; the
        batched entry must still return one result per member."""
        definition = op_def(name)
        op = type("Op", (), {"attrs": {"perm": None}})()
        expect = definition.kernel(op, inputs, None)[0]
        got = definition.batched_kernel([op] * 3, [inputs] * 3, [None] * 3)
        assert len(got) == 3
        for outputs in got:
            assert np.array_equal(outputs[0], expect)
            assert np.shape(outputs[0]) == np.shape(expect)


class TestAccounting:
    """(f) A compiled run books exactly what the per-member sweep booked
    for the same input.  Recorded from the parent commit (f1a1145) with
    this very scenario — TreeLSTM h6/e5, ``make_treebank(seed=11)``
    trees ``[:3]`` (57 nodes):

    ========  ============  =======  ===========  =========  ==========
    mode      ops_executed  batches  batched_ops  max_batch  hist levels
    ========  ============  =======  ===========  =========  ==========
    forward   2338          265      1548         114        113
    train     8002          704      5921         114        231
    ========  ============  =======  ===========  =========  ==========
    """

    FORWARD_TYPES = {
        "Add": 304, "Cast": 3, "Concat": 1, "Cond": 57, "Const": 117,
        "Div": 3, "Gather": 489, "Invoke": 57, "MatMul": 142, "Mul": 168,
        "ReadVariable": 287, "ReduceMean": 1, "ReduceSum": 57,
        "Reshape": 87, "Sigmoid": 168, "Slice": 225,
        "SoftmaxCrossEntropy": 57, "Stack": 1, "Tanh": 114}
    FORWARD_WIDTHS = {1: 46, 2: 114, 3: 20, 4: 51, 5: 16, 6: 11, 8: 5,
                      9: 2, 10: 14, 12: 6, 14: 12, 16: 2, 20: 4, 22: 1,
                      24: 2, 28: 1, 34: 1, 57: 2, 114: 1}
    FORWARD_FIRST_LEVELS = {1: {6: 1, 57: 2, 114: 1}, 2: {3: 4},
                            3: {3: 1, 6: 1}, 4: {6: 3}, 5: {6: 1, 12: 1}}
    TRAIN_WIDTHS = {1: 61, 2: 192, 3: 45, 4: 109, 5: 28, 6: 77, 7: 3,
                    8: 19, 9: 6, 10: 51, 11: 6, 12: 45, 13: 2, 14: 33,
                    15: 2, 16: 5, 17: 3, 18: 1, 19: 1, 20: 22, 22: 3,
                    24: 17, 26: 1, 27: 1, 28: 5, 29: 1, 30: 1, 34: 2,
                    36: 3, 37: 1, 38: 3, 40: 5, 44: 1, 47: 1, 50: 1,
                    52: 2, 54: 1, 57: 3, 58: 1, 114: 1}

    @staticmethod
    def _widths(stats):
        total = {}
        for hist in stats.level_width_hist.values():
            for width, count in hist.items():
                total[width] = total.get(width, 0) + count
        return total

    def test_forward_counts_unchanged(self, bank):
        stats = _lstm_run("event", bank.train[:3], False, True)[2]
        assert (stats.ops_executed, stats.batches, stats.batched_ops,
                stats.max_batch) == (2338, 265, 1548, 114)
        assert stats.per_type_count == self.FORWARD_TYPES
        assert len(stats.level_width_hist) == 113
        assert self._widths(stats) == self.FORWARD_WIDTHS
        for level, hist in self.FORWARD_FIRST_LEVELS.items():
            assert stats.level_width_hist[level] == hist

    def test_train_counts_unchanged(self, bank):
        stats = _lstm_run("event", bank.train[:3], True, True)[2]
        assert (stats.ops_executed, stats.batches, stats.batched_ops,
                stats.max_batch) == (8002, 704, 5921, 114)
        assert len(stats.level_width_hist) == 231
        assert self._widths(stats) == self.TRAIN_WIDTHS
        assert stats.per_type_count["CacheLookup"] == 1260
        assert stats.per_type_count["AccumGrad"] == 285

    def test_second_sweep_books_the_same(self, bank):
        """The bookings are memoised per plan; replaying them must not
        drift from a fresh accounting."""
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(3)
        batch = batch_trees(bank.train[:3])
        session = repro.Session(built.graph, runtime, num_workers=4)
        counts = []
        for _ in range(2):
            session.run(built.loss, built.feed_dict(batch),
                        shape_profile=built.shape_profiles(batch))
            stats = session.last_stats
            counts.append((stats.ops_executed, stats.batches,
                           dict(stats.per_type_count),
                           {k: dict(v) for k, v
                            in stats.level_width_hist.items()}))
        assert counts[0] == counts[1]
