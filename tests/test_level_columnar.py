"""Columnar compiled sweeps: one stacked array per bucket, index-wired.

The compiled tier stores a level's values as *columns* — one array per
bucket output, members on axis 0 — and instantiating a forest wires
every bucket input to its producer column (alias, row-index ``take`` or
invariant).  The contract with the dynamic tier is unchanged:
bit-identical values and gradients, identical cache contents, the same
op counts.  These tests pin the pieces the columns added: the
list-column fallback, forest merging (and what happens to a run
cancelled mid-sweep), the vectorised predicate check, and the stacked
kernel entries.
"""

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import batch_trees, make_treebank
from repro.graph.registry import op_def
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)
from repro.runtime import level_plan
from repro.runtime.scheduler import available_executors
from repro.runtime.server import RequestCancelled
from repro.runtime.variables import Variable
from tests.conftest import assert_one_hole_fallback

ENGINES = available_executors()
LSTM = tree_lstm_config(vocab_size=50, hidden=6, embed_dim=5)


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=16, num_val=4, vocab_size=50,
                         max_words=12, mean_log_words=2.2, seed=11)


def _lstm_run(engine, trees, train, profile, make=None):
    """One fresh TreeLSTM (or ``make(runtime)``) build + run: (values,
    grads, stats)."""
    runtime = repro.Runtime()
    model = (make or (lambda rt: TreeLSTMSentiment(LSTM, rt)))(runtime)
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
    @pytest.mark.parametrize("engine", ENGINES)
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
    @pytest.mark.parametrize("engine", ENGINES)
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

    @pytest.mark.parametrize("engine", ENGINES)
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
        # the ragged column sits in the middle of a block: exactly those
        # local steps looped, and are counted as before
        assert stats.level_row_loop_steps == {"Concat": 1, "Tanh": 1}


class TestBlockPrograms:
    """(b') A class segment runs as one block over local registers; what
    used to happen *between* steps still happens inside it."""

    def _forward(self, name):
        runtime, graph, loss, _, phs = _nary_graph(name, 2)
        profile = (((), ()), (((), ()), ()))
        enc = _encode(profile, 2, np.random.default_rng(2))
        feeds = dict(zip(phs, (enc["x"], enc["children"], enc["is_leaf"],
                               enc["root"])))
        return repro.Session(graph, runtime, num_workers=2), loss, feeds, \
            profile

    def test_stacked_kernel_declining_mid_block(self, monkeypatch):
        """A declining kernel row-loops *its* local step — fed from
        registers, feeding registers — and is counted."""
        session, loss, feeds, profile = self._forward("decline")
        ref = session.run(loss, feeds)
        monkeypatch.setattr(op_def("Tanh"), "stacked_kernel",
                            lambda op, cols, inv, ctx: None)
        got = session.run(loss, feeds, shape_profile=(profile,))
        stats = session.last_stats
        assert stats.level_plan_hits == 1 and np.array_equal(ref, got)
        # one Tanh step per block: the leaves', one per internal height;
        # the looped one-member top block's output is a shared column,
        # which reaches the root's ReduceSum through the slab of tree
        # outputs as one array row — looped as well
        assert stats.level_row_loop_steps == {"Tanh": 4, "ReduceSum": 1}
        assert stats.level_blocks < stats.level_kernel_calls

    def test_kernel_raising_mid_block_names_its_op(self, monkeypatch):
        session, loss, feeds, profile = self._forward("raise")

        def boom(op, cols, inv, ctx):
            raise ValueError("boom")

        monkeypatch.setattr(op_def("Tanh"), "stacked_kernel", boom)
        with pytest.raises(repro.EngineError,
                           match=r"error executing tanh\S* \(Tanh\).*boom"):
            session.run(loss, feeds, shape_profile=(profile,))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_malformed_keyed_result_names_its_op(self, bank, engine,
                                                 monkeypatch):
        """A stateful step's columnar result is checked like a stateless
        one's: a keyed ``AccumGrad`` kernel that drops a row fails at
        its op, so no slab fill ever meets a wrong row count — and the
        session's next run equals the run before the fault."""
        runtime = repro.Runtime()
        built = TreeLSTMSentiment(LSTM, runtime).build_recursive(3)
        batch = batch_trees(bank.train[:3])
        _, updates = repro.gradients(built.loss, [])
        fetches = ([built.loss, built.root_logits]
                   + [op.outputs[-1] for op in updates])
        session = repro.Session(built.graph, runtime, num_workers=4,
                                engine=engine, record=True)
        accumulators = runtime.accumulators

        def step():
            accumulators.zero()
            values = session.run(fetches, built.feed_dict(batch),
                                 shape_profile=built.shape_profiles(batch))
            assert session.last_stats.level_plan_hits == 1
            return values, {name: np.copy(accumulators.read(name))
                            for name in accumulators.names()}

        before = step()
        defn = op_def("AccumGrad")
        real = defn.keyed_kernel
        monkeypatch.setattr(defn, "keyed_kernel", lambda *args: [
            col[:-1] for col in real(*args)])
        with pytest.raises(repro.EngineError, match=r"AccumGrad.*malformed"):
            step()
        monkeypatch.undo()
        _assert_same(before, step())

    def test_lying_profile_fails_before_dependent_kernels(self, monkeypatch):
        """The predicate is checked at its producer's position inside
        the block: the last kernel that runs is the one that computed
        it — not the rest of its level, nothing downstream."""
        session, loss, feeds, profile = self._forward("liar-block")
        ran = []
        gather = op_def("Gather")
        for entry in ("kernel", "stacked_kernel"):
            real = getattr(gather, entry)

            def recording(op, cols, *rest, _real=real):
                ran.append(np.asarray(cols[0]).dtype)
                return _real(op, cols, *rest)

            monkeypatch.setattr(gather, entry, recording)
        session.run(loss, feeds, shape_profile=(profile,))
        honest, ran[:] = len(ran), []
        # claims the first leaf of the left subtree is internal
        claim = (((((), ()), ()), ()), (((), ()), ()))
        with pytest.raises(repro.EngineError, match="shape profile"):
            session.run(loss, feeds, shape_profile=(claim,))
        # depths 1 and 2 ran (3 gathers each: is_leaf, children, child
        # index); the lying depth-3 block stopped at ``gather(is_leaf)``
        assert len(ran) == 7 < honest
        assert ran[-1] == np.bool_


class TestMergedRuns:
    """(c) Runs flushed together form one forest — whatever their
    shapes; the result of each equals its own separate run."""

    def _serve(self, bank, trees, cancel_at=None, monkeypatch=None):
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(1)
        batches = [batch_trees([tree]) for tree in trees]
        feeds = []
        for i, b in enumerate(batches):
            feed = built.feed_dict(b)
            words = built.placeholders["words"]
            feed[words] = (feed[words] + i) % 50
            feeds.append(feed)
        session = repro.Session(built.graph, runtime, num_workers=4)
        refs = [session.run(built.root_logits, f) for f in feeds]
        with session.serve(max_in_flight=8) as server:
            tickets = [server.submit(built.root_logits, f, at=0.0,
                                     shape_profile=built.shape_profiles(b))
                       for f, b in zip(feeds, batches)]
            if cancel_at is not None:
                calls = {"n": 0}
                real = level_plan.sweep._BlockCall.execute

                def cancelling(call):
                    calls["n"] += 1
                    if calls["n"] == cancel_at:
                        assert tickets[1].cancel()
                    real(call)

                monkeypatch.setattr(level_plan.sweep._BlockCall, "execute",
                                    cancelling)
            server.drain()
            stats = server.stats
        return refs, tickets, stats

    def test_serving_burst_matches_separate_runs(self, bank):
        # same shape, different words
        refs, tickets, stats = self._serve(bank, [bank.train[0]] * 4)
        assert stats.level_plan_hits == 4
        assert max(w for hist in stats.level_width_hist.values()
                   for w in hist) >= 4
        for ref, ticket in zip(refs, tickets):
            assert np.array_equal(ref, ticket.result())

    def test_mixed_shapes_share_one_sweep(self, bank):
        """Four *different* shapes arriving together: one forest, one
        instantiation, one sweep."""
        trees = bank.train[:4]
        assert len({t.shape_profile for t in trees}) == 4
        refs, tickets, stats = self._serve(bank, trees)
        assert stats.level_plan_hits == 4
        assert (stats.level_plan_cache_hits
                + stats.level_plan_cache_misses) == 1
        for ref, ticket in zip(refs, tickets):
            assert np.array_equal(ref, ticket.result())

    def test_run_cancelled_mid_sweep_is_compacted_out(self, bank,
                                                      monkeypatch):
        """One of several *different* shapes cancelled mid-sweep: its
        rows keep flowing (the forest's index wiring is fixed) but its
        result is dropped; the others are untouched."""
        trees = bank.train[:4]
        refs, tickets, stats = self._serve(bank, trees, cancel_at=5,
                                           monkeypatch=monkeypatch)
        with pytest.raises(RequestCancelled):
            tickets[1].result()
        for i in (0, 2, 3):
            assert np.array_equal(refs[i], tickets[i].result())
        assert stats.cancelled_requests == 1

    def test_cancelled_run_stores_and_accumulates_nothing(self, bank):
        """Training forest with one dead run: its rows flow through the
        pure steps, but none of its cache stores or gradient
        accumulations happen; the others' are complete."""
        from repro.runtime.level_plan import (execute_level_plan,
                                              instance_for, linearise,
                                              template_for)
        from repro.runtime.plan import plan_for_fetches
        from repro.runtime.scheduler import _LevelRun

        trees = bank.train[:3]
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(1)
        _, updates = repro.gradients(built.loss, [])
        fetches = [built.loss] + [op.outputs[-1] for op in updates]
        batches = [batch_trees([t]) for t in trees]
        session = repro.Session(built.graph, runtime, record=True)
        plan = plan_for_fetches(built.graph, {t.op for t in fetches})
        core = session._engine
        core._reset_session()
        tpl = template_for(built.graph, plan, True)
        refs = tpl.root.frames[0].refs
        runs = [_LevelRun(tpl, linearise(tpl, b.profiles), (i,),
                          {t.op.id: v for t, v
                           in built.feed_dict(b).items()},
                          [refs[plan.index_of[t.op.id]][t.index]
                           for t in fetches], None)
                for i, b in enumerate(batches)]
        lp = instance_for(tpl, [run.lin for run in runs])
        runs[1].cancelled = True
        runtime.accumulators.zero()
        results = execute_level_plan(core, lp, runs)
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        stored = {key[0][0] for key, _ in runtime.cache.items()}
        assert stored == {0, 2}
        # the survivors' gradients equal a forest of just the two
        got = {n: np.copy(runtime.accumulators.read(n))
               for n in runtime.accumulators.names()}
        runtime.accumulators.zero()
        runtime.cache.clear()
        keep = [runs[0], runs[2]]
        execute_level_plan(core, instance_for(
            tpl, [run.lin for run in keep]), keep)
        for n in got:
            assert np.array_equal(got[n], runtime.accumulators.read(n)), n

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    def test_subtree_runs_merge_under_canon_depth(self, bank, train):
        """Profiles with holes launch no subtree runs any more: the
        whole batch — every determined subtree hanging off the path to
        each hole — is one fallback to the dynamic tier, equal to an
        unprofiled run in values, gradients and cache, even where the
        determined part lies.  ``level_canon_depth`` is accepted but
        decomposes nothing."""
        trees = [t for t in bank.train if t.depth > 4][:2]
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(len(trees))
        batch = batch_trees(trees)
        fetches = [built.loss, built.root_logits]
        if train:
            _, updates = repro.gradients(built.loss, [])
            fetches += [op.outputs[-1] for op in updates]
        for engine in ENGINES:
            session = repro.Session(built.graph, runtime, num_workers=4,
                                    engine=engine, record=train,
                                    level_canon_depth=3, batching=True)
            runs = []
            for holes in (None, _with_hole, _lying_hole):
                runtime.accumulators.zero()
                kwargs = ({} if holes is None else {"shape_profile": tuple(
                    holes(p) for p in built.shape_profiles(batch))})
                values = session.run(fetches, built.feed_dict(batch),
                                     **kwargs)
                runs.append((values, {
                    n: np.copy(runtime.accumulators.read(n))
                    for n in runtime.accumulators.names()},
                    dict(runtime.cache.items()), session.last_stats))
            for values, grads, cache, stats in runs[1:]:
                assert_one_hole_fallback(stats)
                _assert_same(runs[0], (values, grads))
                assert set(cache) == set(runs[0][2])
                for key, value in runs[0][2].items():
                    assert np.array_equal(cache[key], value), key


def _with_hole(profile, depth=2):
    """``profile`` with its leftmost internal node ``depth`` levels down
    replaced by a hole."""
    if depth == 0:
        return None
    for i, child in enumerate(profile):
        if child:
            return (profile[:i] + (_with_hole(child, depth - 1),)
                    + profile[i + 1:])
    return profile


def _lying_hole(profile):
    """``_with_hole(profile)`` whose leftmost determined leaf claims two
    children."""
    def lie(p):
        if p == ():
            return ((), ()), True
        out, done = [], False
        for child in p:
            if not done and child is not None:
                child, done = lie(child)
            out.append(child)
        return tuple(out), done

    return lie(_with_hole(profile))[0]


def _ragged_graph(name):
    """``h(i) = tanh(vals[pos[i]] + sum(h(children)))`` over fed arrays
    whose lengths are per request: served together, every feed is a
    ragged column of the merged forest, read by ``Gather`` only."""
    graph = repro.Graph(name)
    with graph.as_default():
        vals = ops.placeholder(repro.float32, (None,))
        pos = ops.placeholder(repro.int32, (None,))
        children = ops.placeholder(repro.int32, (None, 2))
        is_leaf = ops.placeholder(repro.bool_, (None,))
        root = ops.placeholder(repro.int32, ())
        with SubGraph(f"{name}_node") as node:
            idx = node.input(repro.int32, ())
            node.declare_outputs([(repro.float32, ())])
            x = ops.gather(vals, ops.gather(pos, idx))

            def internal():
                pair = ops.gather(children, idx)
                return ops.tanh(ops.add(x, ops.add(
                    node(ops.gather(pair, 0)), node(ops.gather(pair, 1)))))

            node.output(ops.cond(ops.gather(is_leaf, idx),
                                 lambda: ops.tanh(x), internal))
        out = node(root)
    return graph, out, (vals, pos, children, is_leaf, root)


def _ragged_requests(phs, n, seed=5, negative=False):
    """``n`` requests of distinct sizes: ``(feed, shape profile)`` each;
    ``vals`` is longer than the tree by a per-request margin and ``pos``
    indexes it — from its end with ``negative``."""
    rng = np.random.default_rng(seed)
    requests, sizes = [], set()
    while len(requests) < n:
        profile = _rand_profile(rng, 2, 5)
        enc = _encode(profile, 2, rng)
        nodes = len(enc["children"])
        if nodes in sizes:
            continue
        sizes.add(nodes)
        vals = rng.normal(size=nodes + len(requests) + 1).astype(np.float32)
        pos = rng.integers(0, len(vals), size=nodes).astype(np.int32)
        if negative:
            pos -= len(vals)
        requests.append((dict(zip(phs, (vals, pos, enc["children"],
                                        enc["is_leaf"], enc["root"]))),
                         (profile,)))
    return requests


def _serve_together(session, out, requests, cancel_at=None,
                    monkeypatch=None):
    """Submit ``requests`` — ``(feed, shape profile)`` pairs — to serve
    as one merged forest: (server, tickets), not yet drained;
    ``cancel_at`` cancels ticket 1 at that block dispatch."""
    server = session.serve(max_in_flight=len(requests))
    tickets = [server.submit(out, feed, shape_profile=profile)
               for feed, profile in requests]
    if cancel_at is not None:
        calls = {"n": 0}
        real = level_plan.sweep._BlockCall.execute

        def cancelling(call):
            calls["n"] += 1
            if calls["n"] == cancel_at:
                assert tickets[1].cancel()
            real(call)

        monkeypatch.setattr(level_plan.sweep._BlockCall, "execute", cancelling)
    return server, tickets


def _assert_one_exact_sweep(server, tickets, refs):
    """All requests ran compiled, in one forest, without a row loop, and
    each equals its own dynamic run."""
    stats = server.stats
    assert stats.level_plan_hits == len(refs)
    assert stats.level_plan_fallbacks == 0
    assert stats.level_plan_cache_hits + stats.level_plan_cache_misses == 1
    assert stats.level_row_loop_steps == {}
    for ref, ticket in zip(refs, tickets):
        assert np.array_equal(ref, ticket.result())


class TestRaggedFeeds:
    """(c') Requests of different sizes served together: each feed is one
    ragged column (values plus offsets) of the merged forest, and a
    ``Gather`` over it is offset arithmetic — no step loops over rows,
    and every request still equals its own dynamic run."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_merged_treelstm_matches_dynamic_without_row_loops(self, bank,
                                                               engine):
        trees = list({t.num_nodes: t for t in bank.train}.values())[:4]
        assert len(trees) == 4
        runtime = repro.Runtime()
        built = TreeLSTMSentiment(LSTM, runtime).build_recursive(1)
        batches = [batch_trees([tree]) for tree in trees]
        requests = [(built.feed_dict(b), built.shape_profiles(b))
                    for b in batches]
        session = repro.Session(built.graph, runtime, num_workers=4,
                                engine=engine)
        refs = [session.run(built.root_logits, feed) for feed, _ in requests]
        server, tickets = _serve_together(session, built.root_logits,
                                          requests)
        server.drain()
        _assert_one_exact_sweep(server, tickets, refs)
        server.close()

    @pytest.mark.parametrize("negative", [False, True],
                             ids=["positive", "negative"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_gather_over_ragged_feeds_matches_dynamic(self, engine,
                                                      negative):
        graph, out, phs = _ragged_graph(f"ragged-feeds-{engine}")
        requests = _ragged_requests(phs, 4, negative=negative)
        session = repro.Session(graph, repro.Runtime(), engine=engine)
        refs = [session.run(out, feed) for feed, _ in requests]
        server, tickets = _serve_together(session, out, requests)
        server.drain()
        _assert_one_exact_sweep(server, tickets, refs)
        server.close()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_range_index_raises_the_dynamic_error(self, engine):
        graph, out, phs = _ragged_graph(f"ragged-range-{engine}")
        requests = _ragged_requests(phs, 3)
        feed = requests[1][0]
        feed[phs[1]] = feed[phs[1]].copy()
        feed[phs[1]][-1] = len(feed[phs[0]])
        session = repro.Session(graph, repro.Runtime(), engine=engine)
        with pytest.raises(repro.EngineError) as dynamic:
            session.run(out, feed)
        server, tickets = _serve_together(session, out, requests)
        with pytest.raises(repro.EngineError) as compiled:
            server.drain()
        assert str(compiled.value) == str(dynamic.value)
        assert type(compiled.value.__cause__) is IndexError
        assert type(dynamic.value.__cause__) is IndexError
        with pytest.raises(repro.EngineError):
            tickets[1].result()
        server.close()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_cancelled_mid_sweep_leaves_the_others_exact(
            self, engine, monkeypatch):
        graph, out, phs = _ragged_graph(f"ragged-cancel-{engine}")
        requests = _ragged_requests(phs, 4)
        session = repro.Session(graph, repro.Runtime(), engine=engine)
        refs = [session.run(out, feed) for feed, _ in requests]
        server, tickets = _serve_together(session, out, requests,
                                          cancel_at=4,
                                          monkeypatch=monkeypatch)
        server.drain()
        with pytest.raises(RequestCancelled):
            tickets[1].result()
        for i in (0, 2, 3):
            assert np.array_equal(refs[i], tickets[i].result())
        assert server.stats.cancelled_requests == 1
        server.close()


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


    def test_reduce_sum_keeping_the_inner_axis_is_the_member_sum(self):
        """(h) Property sweep of the columnar ``ReduceSum``: over random
        float32 / float64 columns of member rank 1-4 with extent-1 axes,
        strided views, negative and innermost axes, every shape the
        stacked entry accepts equals the scalar kernel per member bit
        for bit, and it accepts exactly the C-contiguous float columns
        whose innermost axis of extent other than 1 is kept (or whose
        reduced axes all have extent 1)."""
        definition = op_def("ReduceSum")
        rng = np.random.default_rng(3)
        accepted = declined = 0
        for case in range(1500):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(d) for d in rng.choice(
                [1, 1, 2, 3, 7, 16, 33, 64], rank))
            m = int(rng.integers(1, 9))
            if m * np.prod(shape) > 40000:
                continue
            dtype = (np.float32, np.float64)[case % 2]
            x = (rng.standard_normal((m,) + shape)
                 * 10.0 ** rng.uniform(-3, 6, (m,) + shape)).astype(dtype)
            if case % 4 == 0:   # a strided view: members 0, 2, 4, ...
                x = np.concatenate([x, x])[::2]
            axes = tuple(int(a) - (rank if rng.random() < 0.3 else 0)
                         for a in rng.choice(rank, int(rng.integers(
                             1, rank + 1)), replace=False))
            op = type("Op", (), {"attrs": {
                "axis": axes if len(axes) > 1 else axes[0],
                "keepdims": bool(case % 3 == 0)}})()
            got = definition.stacked_kernel(op, [x], (False,), None)
            kept = [a for a in range(rank) if shape[a] != 1]
            unit = all(shape[a] == 1 for a in axes)
            expect = unit or (x.flags.c_contiguous and kept
                              and kept[-1] not in {a % rank for a in axes})
            assert (got is not None) == expect, (shape, axes, x.strides)
            if got is None:
                declined += 1
                continue
            accepted += 1
            for i in range(m):
                row, = definition.kernel(op, [x[i]], None)
                assert got[0][i].dtype == row.dtype
                assert got[0][i].tobytes() == np.asarray(row).tobytes(), \
                    (shape, axes)
        assert accepted > 300 and declined > 300


class TestAccounting:
    """(f) A compiled run books exactly the dynamic tier's op counts for
    the same input (``ops_executed``, ``per_type_count``); how those
    ops were *grouped* into fused calls depends on the schedule.
    Scenario: TreeLSTM h6/e5, ``make_treebank(seed=11)`` trees ``[:3]``
    (57 nodes).  Recorded at the parent commit (501062a, per-shape Kahn
    levels) and re-pinned here for the depth/height schedule of the
    level templates — leaves of every depth now run as one step per op,
    internal nodes group by height instead of by earliest-possible
    level, and a compiled ``CacheLookup`` (an alias, no call at all) is
    no longer booked as a fused batch:

    ========  ============  ==========  ============  =========  =======
    mode      ops_executed  batches     batched_ops   max_batch  levels
    ========  ============  ==========  ============  =========  =======
    forward   2338          265 -> 169  1548 -> 1590  114 -> 60  113->13
    train     8002          704 -> 388  5921 -> 4569  114 -> 60  231->24
    ========  ============  ==========  ============  =========  =======

    (``level_width_hist`` is now keyed by schedule block — one class
    segment at one depth or height — instead of by Kahn level.)

    The train row was re-pinned once more when ``MatMul``'s gradient
    stopped materialising weight gradients: each of the 141 weight
    matmuls loses its ``Transpose(a)`` and ``MatMul(aT, g)`` (8002 ->
    7720 ops; ``AccumGrad`` keeps its 285, 141 of them now taking the
    factor rows), and ``ReduceSumGrad`` / ``ZerosLike`` run columnar
    (388 -> 370 batches, 4569 -> 4293 batched ops).

    ``TRAIN_WIDTHS`` alone was re-pinned when the gradient pre-call
    segment went from ascending depth to descending height (a backward
    block mirrors the forward post-call block member for member): the
    same 370 fused calls over the same 4293 ops in the same 24 schedule
    blocks, grouped differently.
    """

    FORWARD_TYPES = {
        "Add": 304, "Cast": 3, "Concat": 1, "Cond": 57, "Const": 117,
        "Div": 3, "Gather": 489, "Invoke": 57, "MatMul": 142, "Mul": 168,
        "ReadVariable": 287, "ReduceMean": 1, "ReduceSum": 57,
        "Reshape": 87, "Sigmoid": 168, "Slice": 225,
        "SoftmaxCrossEntropy": 57, "Stack": 1, "Tanh": 114}
    FORWARD_WIDTHS = {1: 4, 2: 44, 3: 8, 4: 9, 5: 20, 6: 29, 10: 8,
                      12: 26, 20: 1, 24: 4, 30: 18, 60: 2}
    FORWARD_FIRST_LEVELS = {1: {3: 3}, 2: {3: 4, 6: 1}, 3: {6: 4, 12: 1},
                            4: {10: 4, 20: 1}, 5: {6: 4, 12: 1}}
    TRAIN_WIDTHS = {1: 6, 2: 74, 3: 10, 4: 41, 5: 35, 6: 45, 8: 8,
                    10: 24, 12: 57, 20: 5, 24: 24, 30: 31, 48: 4, 60: 12}

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
                stats.max_batch) == (2338, 169, 1590, 60)
        assert stats.per_type_count == self.FORWARD_TYPES
        assert len(stats.level_width_hist) == 13
        # 233 kernel calls — the parent's steps, in 117 levels there —
        # are dispatched as 14 blocks: prologue + one per width block
        assert (stats.level_blocks, stats.level_kernel_calls) == (14, 233)
        assert self._widths(stats) == self.FORWARD_WIDTHS
        for level, hist in self.FORWARD_FIRST_LEVELS.items():
            assert stats.level_width_hist[level] == hist

    def test_train_counts_unchanged(self, bank):
        stats = _lstm_run("event", bank.train[:3], True, True)[2]
        assert (stats.ops_executed, stats.batches, stats.batched_ops,
                stats.max_batch) == (7720, 370, 4293, 60)
        assert len(stats.level_width_hist) == 24
        assert (stats.level_blocks, stats.level_kernel_calls) == (25, 523)
        assert self._widths(stats) == self.TRAIN_WIDTHS
        assert stats.per_type_count["CacheLookup"] == 1260
        assert stats.per_type_count["AccumGrad"] == 285
        # the literal above is not a private convention of the compiled
        # tier: the dynamic tier executes the same ops for the same input
        dynamic = _lstm_run("event", bank.train[:3], True, False)[2]
        assert dynamic.ops_executed == stats.ops_executed
        assert dynamic.per_type_count == stats.per_type_count
        # and no accumulation or reduce-gradient step looped over rows
        assert not [t for t in stats.level_row_loop_steps
                    if t in ("AccumGrad", "ReduceSumGrad", "ReduceMeanGrad")]

    @pytest.mark.parametrize("engine", ["event", "workerpool"])
    def test_train_live_bytes_unchanged(self, bank, engine):
        """Registers are booked while live exactly as the columns they
        replaced were, and the books close at zero.  The peak was 42244
        bytes while gradient blocks ran by ascending depth; by
        descending height the forward columns die in the reverse order
        they were born (35268).  Slabs held a second copy of the columns
        multi-producer imports read, booked from their first fill to
        their last reader (57164); now a column filled into its slab is
        read from there and booked once, as a slab is booked whole from
        its first fill to its last reader: 42804."""
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(3)
        batch = batch_trees(bank.train[:3])
        _, updates = repro.gradients(built.loss, [])
        session = repro.Session(built.graph, runtime, num_workers=4,
                                engine=engine, record=True,
                                track_live_bytes=True)
        runtime.accumulators.zero()
        session.run([built.loss, built.root_logits]
                    + [op.outputs[-1] for op in updates],
                    built.feed_dict(batch),
                    shape_profile=built.shape_profiles(batch))
        assert session.last_stats.level_plan_hits == 1
        assert session.last_stats.peak_live_bytes == 42804
        assert session._engine._live_bytes == 0

    @pytest.mark.parametrize("engine", ["event", "workerpool"])
    def test_cache_counters_are_the_runs_own(self, bank, engine):
        """``cache_stores`` / ``cache_lookups`` are what *this* run
        stored and looked up — not the cache's lifetime totals, which
        ``clear()`` never resets — and the compiled tier, which defers
        its stores by column and never looks one up, books the dynamic
        tier's store count."""
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(LSTM, runtime)
        built = model.build_recursive(3)
        batch = batch_trees(bank.train[:3])
        _, updates = repro.gradients(built.loss, [])
        fetches = [built.loss] + [op.outputs[-1] for op in updates]
        session = repro.Session(built.graph, runtime, num_workers=2,
                                engine=engine, record=True)
        profile = {"shape_profile": built.shape_profiles(batch)}
        booked = []
        for kwargs in ({}, {}, profile, profile):
            runtime.accumulators.zero()
            session.run(fetches, built.feed_dict(batch), **kwargs)
            booked.append((session.last_stats.cache_stores,
                           session.last_stats.cache_lookups))
        stores = booked[0][0]
        assert stores == len(runtime.cache) > 0
        assert booked[0] == booked[1] == (stores, stores)
        assert booked[2] == booked[3]
        assert booked[2] == (stores, 0 if profile else stores)
        assert runtime.cache.stores == 4 * stores  # the lifetime counter

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


def _slab_reads(monkeypatch):
    """Count the sweep's slab-wired imports by the slab's form: one
    array (``"slab"``), or the list of rows a producer that does not fit
    one array turns it into (``"parts"``: its rows gathered one by
    one)."""
    taken = {"slab": 0, "parts": 0}
    real = level_plan.sweep._Sweep.operand

    def operand(sweep, spec):
        if len(spec) == 2:
            rows = sweep.cols[spec[0]].__class__ is list
            taken["parts" if rows else "slab"] += 1
        return real(sweep, spec)

    monkeypatch.setattr(level_plan.sweep._Sweep, "operand", operand)
    return taken


_SLAB_MODELS = {
    "TreeRNN": lambda rt: TreeRNNSentiment(
        ModelConfig(hidden=6, embed_dim=5, vocab_size=50), rt),
    "RNTN": lambda rt: RNTNSentiment(
        ModelConfig(hidden=6, embed_dim=6, vocab_size=50), rt),
    "TreeLSTM": lambda rt: TreeLSTMSentiment(LSTM, rt),
}


class TestSlabs:
    """(i) A multi-producer import is one read of a per-sweep slab that
    its producer columns fill as their blocks finish; a producer whose
    rows do not fit the slab's array turns the slab into a list of rows
    — bit-identical either way, books closed.  (Generated merged forests
    run slab-wired in ``tests/test_level_template.py::TestMixedForests``.)
    """

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(_SLAB_MODELS))
    def test_models_equal_dynamic(self, bank, name, engine, train,
                                  monkeypatch):
        make = _SLAB_MODELS[name]
        trees = bank.train[:4]
        dynamic = _lstm_run(engine, trees, train, profile=False, make=make)
        taken = _slab_reads(monkeypatch)
        compiled = _lstm_run(engine, trees, train, profile=True, make=make)
        assert compiled[2].level_plan_hits == 1
        assert compiled[2].level_plan_fallbacks == 0
        assert taken["slab"] > 0 and taken["parts"] == 0
        _assert_same(dynamic, compiled)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_list_column_producer_reads_part_wise(self, engine,
                                                  monkeypatch):
        """Two height-3 nodes whose first (second) children have heights
        2 and 1 (1 and 2), while the height-2 column is a list (its
        members have 3 and 4 leaves): the slab those reads share becomes
        a list of rows, which both read row by row — exact."""
        graph, out, phs = TestListColumnFallback()._graph(
            f"slab-list-{engine}")
        x, y, z = (((), ()), ()), (((), ()), ((), ())), ((), ())
        profile = ((x, z), (z, y))
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
        taken = _slab_reads(monkeypatch)
        got = session.run(out, feeds, shape_profile=(profile,))
        assert session.last_stats.level_plan_hits == 1
        assert session.last_stats.level_plan_fallbacks == 0
        assert taken["parts"] >= 2
        assert ref.shape == (11,) and np.array_equal(ref, got)

    @pytest.mark.parametrize("second", [
        np.zeros((2, 1, 3), np.float64),            # another dtype
        np.zeros((2, 3), np.float32),               # another row shape
        [np.zeros((1, 3), np.float32)] * 2,         # a list column
        level_plan.sweep._Rag(                      # a ragged column
            np.arange(5, dtype=np.float32), np.array([0, 2]),
            np.array([[2], [3]])),
        level_plan.sweep._Inv(np.float64(1.0)),     # a shared value
        level_plan.sweep._Inv(None),                # not an array
    ], ids=["dtype", "shape", "list", "ragged", "shared", "object"])
    def test_fill_leaves_a_mismatched_slab_unfilled(self, second):
        """A producer column that cannot be written into its slab's
        array exactly — never cast, broadcast or truncated — leaves that
        array: the slab becomes a list of its rows, the rows already
        written as views of it, and later producers' rows, fitting or
        not, join the list as they are.  Its reads are the list-column
        reads, which restack rows that agree."""
        sweep = level_plan.sweep._Sweep.__new__(level_plan.sweep._Sweep)
        sweep.lp = type("LP", (), {"slabs": [8], "step_m": [4, 2, 2]})()
        first = np.arange(12, dtype=np.float32).reshape(4, 1, 3)
        third = np.ones((2, 1, 3), np.float32)
        sweep.cols, sweep.bytes = [[first], [second], [third], None], None
        sweep.held = {}
        sweep.fill(3, 0, 4, 0, 0)
        slab = sweep.cols[3]
        assert slab.__class__ is np.ndarray and np.array_equal(slab[:4],
                                                               first)
        # once in its slab, the column is read from there
        assert np.shares_memory(sweep.cols[0][0], slab)
        sweep.fill(3, 4, 6, 1, 0)
        sweep.fill(3, 6, 8, 2, 0)
        rows = sweep.cols[3]
        assert rows.__class__ is list and len(rows) == 8
        shared = second.__class__ is level_plan.sweep._Inv
        want = ([second.value] * 2 if shared
                else level_plan.sweep._rows_of(second))
        assert all(np.shares_memory(row, slab) and np.array_equal(row, v)
                   for row, v in zip(rows[:4], first))
        for got, row in zip(rows[4:], [*want, *third]):
            assert got is row or (
                np.shares_memory(got, row) and got.dtype == row.dtype
                and got.shape == row.shape)
        assert np.array_equal(sweep.operand((3, slice(0, 4))), first)
        assert np.array_equal(sweep.operand((3, np.array([6, 7]))), third)
        got = sweep.operand((3, slice(4, 6)))
        if got.__class__ is np.ndarray:   # rows that agree: restacked
            assert got.dtype == np.asarray(want[0]).dtype
            assert np.array_equal(got, np.stack(want))
        else:
            assert [v is w or np.array_equal(v, w)
                    for v, w in zip(got, want)] == [True, True]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_handed_out_values_keep_no_slab_alive(self, bank, engine,
                                                  monkeypatch):
        """Once filled, a slab is its columns' only copy, and their
        readers read it — yet what a sweep hands out (accumulator
        contributions, deferred cache stores) holds rows of its own,
        never a view that keeps a whole slab alive."""
        slabs = []
        real = level_plan.sweep._Sweep.fill

        def fill(sweep, sid, *args):
            real(sweep, sid, *args)
            slabs.append(sweep.cols[sid])

        monkeypatch.setattr(level_plan.sweep._Sweep, "fill", fill)
        runtime = repro.Runtime()
        built = TreeLSTMSentiment(LSTM, runtime).build_recursive(3)
        batch = batch_trees(bank.train[:3])
        _, updates = repro.gradients(built.loss, [])
        session = repro.Session(built.graph, runtime, num_workers=4,
                                engine=engine, record=True)
        runtime.accumulators.zero()
        session.run([built.loss] + [op.outputs[-1] for op in updates],
                    built.feed_dict(batch),
                    shape_profile=built.shape_profiles(batch))
        held = {id(slab) for slab in slabs if slab.__class__ is np.ndarray}
        kept = [col for blocks in runtime.accumulators._entries.values()
                for _, cols in blocks for col in cols]
        kept += [block[4] for block in runtime.cache._pending]
        arrays = [v for col in kept
                  for v in (col if isinstance(col, list) else [col])
                  if isinstance(v, np.ndarray)]
        assert held and arrays
        assert not [v for v in arrays if id(v.base) in held]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_cancelled_mid_sweep_leaves_the_others_exact(
            self, bank, engine, monkeypatch):
        trees = list({t.num_nodes: t for t in bank.train}.values())[:4]
        runtime = repro.Runtime()
        built = TreeLSTMSentiment(LSTM, runtime).build_recursive(1)
        batches = [batch_trees([tree]) for tree in trees]
        requests = [(built.feed_dict(b), built.shape_profiles(b))
                    for b in batches]
        session = repro.Session(built.graph, runtime, num_workers=4,
                                engine=engine)
        refs = [session.run(built.root_logits, feed) for feed, _ in requests]
        taken = _slab_reads(monkeypatch)
        server, tickets = _serve_together(session, built.root_logits,
                                          requests, cancel_at=6,
                                          monkeypatch=monkeypatch)
        server.drain()
        with pytest.raises(RequestCancelled):
            tickets[1].result()
        for i in (0, 2, 3):
            assert np.array_equal(refs[i], tickets[i].result())
        assert taken["slab"] > 0 and taken["parts"] == 0
        server.close()

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_live_bytes_close_at_zero(self, bank, engine, train):
        """Slabs are booked from their first fill to their last reader,
        and every sweep's books close at zero."""
        runtime = repro.Runtime()
        built = TreeLSTMSentiment(LSTM, runtime).build_recursive(3)
        batch = batch_trees(bank.train[4:7])
        fetches = [built.loss]
        if train:
            fetches += [op.outputs[-1]
                        for op in repro.gradients(built.loss, [])[1]]
        session = repro.Session(built.graph, runtime, num_workers=4,
                                engine=engine, record=train,
                                track_live_bytes=True)
        for _ in range(2):
            runtime.accumulators.zero()
            session.run(fetches, built.feed_dict(batch),
                        shape_profile=built.shape_profiles(batch))
            assert session.last_stats.level_plan_hits == 1
            assert session._engine._live_bytes == 0
        (lp,) = built.graph._level_plans["instances"].values()
        assert lp.slabs and session.last_stats.peak_live_bytes > 0
