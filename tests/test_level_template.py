"""Shape-generic level templates: one compile per definition.

The compiled tier scans a recursive definition once into a template and
instantiates any forest of shapes by index arithmetic
(:mod:`repro.runtime.level_plan`).  These tests pin what that buys and
what it must not cost:

* a forest of *mixed* shapes flushed together is one sweep, and every
  request's values, gradients, selective-cache entries (keys *and*
  values), accumulator sums and op counts equal the dynamic tier's —
  generated forests, binary and 3-ary definitions, forward and train,
  on every sweep executor;
* the recursion cases by induction (leaf root, depth 2, ``n -> n + 1``
  by grafting one node) rather than by sampling shapes alone;
* compile cost is independent of the shapes seen: one template for 100
  shapes, of the same size for a 5-node and a 500-node tree;
* a lying profile anywhere in a merged forest is an error naming the
  ``Cond``; a profile with holes is one fallback to the dynamic tier,
  whatever its determined part claims;
* gradient blocks are keyed by height: a mirrored forward post-call
  value is wired in place, never gathered through an index;
* every block program passes the verifier, a corrupted ``last``, a
  dropped import or two aliased live registers do not, and a template
  whose program fails it is a counted fallback.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import batch_trees, make_treebank
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)
from repro.runtime.level_plan import (Template, block, instance_for,
                                      linearise, template_for)
from repro.runtime.level_plan.block import _M, _S, _Ineligible, check
from repro.runtime.plan import plan_for_fetches
from repro.runtime.scheduler import available_executors
from repro.runtime.variables import Variable
from tests.conftest import assert_one_hole_fallback

def _settings(examples):
    return settings(max_examples=examples, deadline=None,
                    suppress_health_check=list(HealthCheck))


class _Model:
    """``h(node) = tanh(w * sum(h(children)) + v * x[node])`` over a fed
    array-encoded tree of fixed arity; ``w`` and ``v`` are trainable."""

    _built: dict = {}

    def __init__(self, arity):
        self.arity = arity
        self.runtime = runtime = repro.Runtime()
        name = f"tpl{arity}"
        self.graph = graph = repro.Graph(name)
        with graph.as_default():
            x = ops.placeholder(repro.float32, (None, 4))
            children = ops.placeholder(repro.int32, (None, arity))
            is_leaf = ops.placeholder(repro.bool_, (None,))
            root = ops.placeholder(repro.int32, ())
            w = Variable(f"{name}/w", np.full((4,), 0.5, np.float32),
                         runtime=runtime)
            v = Variable(f"{name}/v",
                         np.linspace(-1, 1, 4, dtype=np.float32),
                         runtime=runtime)
            with SubGraph(f"{name}_node") as node:
                idx = node.input(repro.int32, ())
                node.declare_outputs([(repro.float32, (4,))])

                def leaf():
                    return ops.tanh(ops.multiply(v.read(),
                                                 ops.gather(x, idx)))

                def internal():
                    kids = ops.gather(children, idx)
                    total = node(ops.gather(kids, 0))
                    for j in range(1, arity):
                        total = ops.add(total, node(ops.gather(kids, j)))
                    return ops.tanh(ops.add(
                        ops.multiply(w.read(), total),
                        ops.multiply(v.read(), ops.gather(x, idx))))

                node.output(ops.cond(ops.gather(is_leaf, idx), leaf,
                                     internal, name="leaf_or_internal"))
            self.loss = ops.reduce_sum(ops.square(node(root)))
            _, updates = repro.gradients(self.loss, [])
        self.updates = [op.outputs[-1] for op in updates]
        self.placeholders = (x, children, is_leaf, root)

    @classmethod
    def of(cls, arity) -> "_Model":
        """One graph per arity for the whole module: a template is
        compiled per definition, so sharing it across cases is the
        point."""
        if arity not in cls._built:
            cls._built[arity] = cls(arity)
        return cls._built[arity]

    def fetches(self, train):
        return [self.loss] + (self.updates if train else [])

    def feeds(self, profile):
        return _tree_feeds(self.placeholders, self.arity, profile)

    def reset(self):
        self.runtime.accumulators.zero()
        self.runtime.cache.clear()

    def state(self):
        """Everything a run leaves behind: gradients and cache."""
        acc = self.runtime.accumulators
        grads = {n: np.copy(acc.read(n)) for n in acc.names()}
        cache = dict(self.runtime.cache.items())
        return grads, cache


def _tree_feeds(placeholders, arity, profile):
    """Post-order array encoding of ``profile`` for the placeholders
    ``(x, children, is_leaf, root)``; node inputs are seeded by the
    shape."""
    kids = []

    def build(p):
        mine = [build(c) for c in p]
        kids.append(mine if mine else [0] * arity)
        return len(kids) - 1

    root = build(profile)
    rng = np.random.default_rng(len(kids) * 7919 + arity)
    return dict(zip(placeholders, (
        rng.normal(size=(len(kids), 4)).astype(np.float32),
        np.array(kids, dtype=np.int32),
        np.array([not p for p in _postorder(profile)]), root)))


def _refused_graph(variant):
    """``_Model``'s binary definition without variables, plus the one
    construct ``variant`` names that the compiled tier refuses: a
    ``"control"`` dependency inside the body, a root-level ``"cond"``, or
    a root ``"loop"`` beside the recursive call.  Returns ``(graph,
    fetch, placeholders)``."""
    graph = repro.Graph(f"refused_{variant}")
    with graph.as_default():
        x = ops.placeholder(repro.float32, (None, 4))
        children = ops.placeholder(repro.int32, (None, 2))
        is_leaf = ops.placeholder(repro.bool_, (None,))
        root = ops.placeholder(repro.int32, ())
        with SubGraph(f"refused_{variant}_node") as node:
            idx = node.input(repro.int32, ())
            node.declare_outputs([(repro.float32, (4,))])

            def internal():
                kids = ops.gather(children, idx)
                out = ops.tanh(ops.add(
                    ops.add(node(ops.gather(kids, 0)),
                            node(ops.gather(kids, 1))),
                    ops.gather(x, idx)))
                if variant == "control":
                    out.op.add_control_input(kids.op)
                return out

            node.output(ops.cond(ops.gather(is_leaf, idx),
                                 lambda: ops.tanh(ops.gather(x, idx)),
                                 internal))
        out = ops.reduce_sum(ops.square(node(root)))
        if variant == "cond":
            out = ops.add(out, ops.cond(ops.less(root, 2),
                                        lambda: ops.constant(1.0),
                                        lambda: ops.constant(2.0)))
        elif variant == "loop":
            out = ops.add(out, ops.while_loop(
                lambda s: ops.less(s, 3.0), lambda s: ops.add(s, 1.0),
                [ops.constant(0.0)]))
    return graph, out, (x, children, is_leaf, root)


def _postorder(profile):
    for child in profile:
        yield from _postorder(child)
    yield profile


def _profiles(arity, max_leaves=8):
    return st.recursive(st.just(()),
                        lambda kids: st.tuples(*[kids] * arity),
                        max_leaves=max_leaves)


def _serve(model, engine, profiles, train, compiled, feeds=None):
    """All requests through one server, submitted together; returns
    (per-request values, gradients, cache contents, server stats)."""
    model.reset()
    session = repro.Session(model.graph, model.runtime, num_workers=4,
                            engine=engine, record=train)
    with session.serve(max_in_flight=len(profiles)) as server:
        tickets = []
        for i, p in enumerate(profiles):
            kwargs = {"shape_profile": (p,)} if compiled else {}
            if engine == "event":
                kwargs["at"] = 0.0
            tickets.append(server.submit(
                model.fetches(train),
                feeds[i] if feeds else model.feeds(p), **kwargs))
        server.drain()
        values = [t.result() for t in tickets]
        stats = server.stats
    return (values,) + model.state() + (stats,)


def _assert_same_state(ref, got):
    (ref_values, ref_grads, ref_cache, ref_stats) = ref
    (values, grads, cache, stats) = got
    for a, b in zip(ref_values, values):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
    assert set(grads) == set(ref_grads)
    for name in ref_grads:
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert set(cache) == set(ref_cache)
    for key in ref_cache:
        assert np.array_equal(cache[key], ref_cache[key]), key
    # (vi) the same ops executed, whatever grouped them
    assert stats.ops_executed == ref_stats.ops_executed
    assert stats.per_type_count == ref_stats.per_type_count
    # ... into blocks: the width histogram books exactly the fused
    # calls, one block per histogram key at most plus the staged root's
    hist = [(w, n) for h in stats.level_width_hist.values()
            for w, n in h.items()]
    assert sum(n for w, n in hist if w > 1) == stats.batches
    assert sum(w * n for w, n in hist if w > 1) == stats.batched_ops
    assert sum(n for _, n in hist) <= stats.level_kernel_calls
    assert len(stats.level_width_hist) <= stats.level_blocks


class TestMixedForests:
    """(i) Generated forests of mixed shapes, merged in one sweep."""

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("arity", [2, 3])
    @_settings(12)
    @given(data=st.data())
    def test_event_forest_equals_dynamic(self, arity, train, data):
        model = _Model.of(arity)
        forest = data.draw(st.lists(_profiles(arity), min_size=2,
                                    max_size=5))
        dynamic = _serve(model, "event", forest, train, compiled=False)
        compiled = _serve(model, "event", forest, train, compiled=True)
        stats = compiled[3]
        assert stats.level_plan_hits == len(forest)
        assert stats.level_plan_fallbacks == 0
        # one instant, one template: one forest, one instantiation probe
        assert (stats.level_plan_cache_hits
                + stats.level_plan_cache_misses) == 1
        _assert_same_state(dynamic, compiled)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("engine", ["workerpool"])
    @_settings(4)
    @given(data=st.data())
    def test_pool_forest_equals_dynamic(self, engine, arity, train, data):
        """The wall-clock executor groups arrivals by timing — any
        grouping must produce the event/dynamic bits."""
        model = _Model.of(arity)
        forest = data.draw(st.lists(_profiles(arity), min_size=2,
                                    max_size=4))
        dynamic = _serve(model, "event", forest, train, compiled=False)
        compiled = _serve(model, engine, forest, train, compiled=True)
        assert compiled[3].level_plan_hits == len(forest)
        assert compiled[3].level_plan_fallbacks == 0
        _assert_same_state(dynamic, compiled)


def _run_pair(model, profile, train):
    """One-shot ``Session.run`` on both tiers: (dynamic, compiled)."""
    session = repro.Session(model.graph, model.runtime, num_workers=2,
                            record=train)
    out = []
    for kwargs in ({}, {"shape_profile": (profile,)}):
        model.reset()
        values = session.run(model.fetches(train), model.feeds(profile),
                             **kwargs)
        out.append(([values],) + model.state() + (session.last_stats,))
    assert out[1][3].level_plan_hits == 1
    assert out[1][3].level_plan_fallbacks == 0
    return out


def _graft(profile, path, arity):
    """``profile`` with the leaf reached by ``path`` (child choices,
    taken modulo the fan-out) replaced by one internal node."""
    if not profile:
        return ((),) * arity
    i = path[0] % len(profile)
    return (profile[:i] + (_graft(profile[i], path[1:] or (0,), arity),)
            + profile[i + 1:])


class TestRecursionCases:
    """(ii) Base cases and the step, not sampled shapes alone."""

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_base_cases(self, arity, train):
        model = _Model.of(arity)
        leaf = ()
        depth2 = (leaf,) * arity
        for profile in (leaf, depth2):
            _assert_same_state(*_run_pair(model, profile, train))

    @pytest.mark.parametrize("arity", [2, 3])
    @_settings(10)
    @given(paths=st.lists(st.lists(st.integers(0, 5), min_size=1,
                                   max_size=6), min_size=1, max_size=8))
    def test_step_by_grafting(self, arity, paths):
        """If shape ``n`` agrees, so must ``n`` with one more node."""
        model = _Model.of(arity)
        profile = ()
        for path in paths:
            profile = _graft(profile, tuple(path), arity)
            _assert_same_state(*_run_pair(model, profile, train=True))


def _chain(n, arity):
    """A left-deep tree with ``n`` internal nodes."""
    profile = ()
    for _ in range(n):
        profile = (profile,) + ((),) * (arity - 1)
    return profile


class TestCompileOnce:
    """(iii) Compile cost is a property of the definition."""

    def test_hundred_shapes_one_template(self):
        model = _Model(2)  # a fresh graph: count its templates
        rng = np.random.default_rng(3)
        forest, seen = [], set()
        while len(forest) < 100:
            p = ()
            for _ in range(int(rng.integers(1, 12))):
                p = _graft(p, tuple(rng.integers(0, 6, size=5)), 2)
            if p not in seen:
                seen.add(p)
                forest.append(p)
        session = repro.Session(model.graph, model.runtime, num_workers=4)
        with session.serve(max_in_flight=10) as server:
            tickets = [server.submit(model.loss, model.feeds(p), at=0.0,
                                     shape_profile=(p,)) for p in forest]
            server.drain()
            assert all(t.done for t in tickets)
            stats = server.stats
        assert stats.level_plan_hits == 100
        assert stats.level_plan_fallbacks == 0
        assert stats.level_plan_partial_roots == 0
        templates = model.graph._level_plans["templates"]
        assert len(templates) == 1
        assert isinstance(next(iter(templates.values())), Template)
        # ten forests of ten: ten instantiations, not a hundred plans
        assert stats.level_plan_cache_misses == 10

    def test_template_size_is_shape_independent(self):
        model = _Model.of(2)
        plan = plan_for_fetches(model.graph, {model.loss.op})
        session = repro.Session(model.graph, model.runtime)
        sizes = []
        for n in (2, 249):  # 5 nodes, 499 nodes
            profile = _chain(n, 2)
            assert sum(1 for _ in _postorder(profile)) == 2 * n + 1
            session.run(model.loss, model.feeds(profile),
                        shape_profile=(profile,))
            assert session.last_stats.level_plan_hits == 1
            tpl = template_for(model.graph, plan, False)
            sizes.append((id(tpl), tpl.num_steps, len(tpl.classes)))
        assert sizes[0] == sizes[1]


class TestLyingForest:
    """(iv) One lying profile inside a merged forest is an error that
    names the ``Cond`` — in both directions."""

    @pytest.mark.parametrize("claim", [
        ((), ((), ())), ((((), ()), ()), ((), ()))],
        ids=["claims-leaf", "claims-deeper"])
    def test_raises_engine_error(self, claim):
        model = _Model.of(2)
        honest = [((), ()), (((), ()), ()), ()]
        data = (((), ()), ((), ()))  # what the liar's feed really holds
        feeds = [model.feeds(p) for p in honest + [data]]
        with pytest.raises(repro.EngineError,
                           match="shape profile mismatch at "
                                 "leaf_or_internal"):
            _serve(model, "event", honest + [claim], False, compiled=True,
                   feeds=feeds)
        # the same forest with the honest profile is fine
        _serve(model, "event", honest + [data], False, compiled=True,
               feeds=feeds)


class TestHoles:
    """(v) A profile with holes is one fallback: the whole root runs on
    the dynamic tier, its determined subtrees included, and leaves what
    an unprofiled run leaves — whatever its determined part claims."""

    FULL = ((((), (), ()), (), ()), ((), (), ()), ())
    HOLED = ((None, (), ()), ((), (), ()), ())
    # the same hole, and the last child claims three children where the
    # data has a leaf
    LYING = ((None, (), ()), ((), (), ()), ((), (), ()))

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    def test_matches_dynamic(self, train):
        model = _Model.of(3)
        for engine in available_executors():
            session = repro.Session(model.graph, model.runtime,
                                    num_workers=2, engine=engine,
                                    record=train)
            out = []
            for kwargs in ({}, {"shape_profile": (self.HOLED,)},
                           {"shape_profile": (self.LYING,)}):
                model.reset()
                values = session.run(model.fetches(train),
                                     model.feeds(self.FULL), **kwargs)
                out.append(([values],) + model.state()
                           + (session.last_stats,))
            for got in out[1:]:
                assert_one_hole_fallback(got[3])
                _assert_same_state(out[0], got)

    @pytest.mark.parametrize("engine", ["event", "workerpool"])
    def test_recorded_holed_run_stores_row_wise(self, engine, monkeypatch):
        """``record=True`` through a hole: nothing runs compiled, so no
        column is handed to the cache — the run stores and looks up row
        by row exactly as an unprofiled one, and its gradients and cache
        equal that run's bit for bit."""
        model = _Model.of(3)
        cache = model.runtime.cache
        deferred = []
        store_column = cache.store_column

        def spy(keys, *rest, **kwargs):
            deferred.append(len(keys))
            return store_column(keys, *rest, **kwargs)

        monkeypatch.setattr(cache, "store_column", spy)
        out = []
        for kwargs in ({}, {"shape_profile": (self.HOLED,)},
                       {"shape_profile": (self.LYING,)}):
            session = repro.Session(model.graph, model.runtime,
                                    num_workers=2, engine=engine,
                                    record=True)
            model.reset()
            values = session.run(model.fetches(True),
                                 model.feeds(self.FULL), **kwargs)
            out.append(([values],) + model.state()
                       + (session.last_stats,))
        assert not deferred and not cache._pending
        for got in out[1:]:
            assert_one_hole_fallback(got[3])
            assert got[3].cache_lookups == out[0][3].cache_lookups > 0
            assert got[3].cache_stores == out[0][3].cache_stores
            _assert_same_state(out[0], got)


class TestHeightAlignedBackward:
    """A ``GU_c`` pre-call block has the members, in the order, of the
    forward post-call block ``(U_c, h)`` it mirrors."""

    @pytest.mark.parametrize("arity", [2, 3])
    @_settings(15)
    @given(data=st.data())
    def test_mirrored_post_call_values_are_wired_in_place(self, arity, data):
        model = _Model.of(arity)
        forest = data.draw(st.lists(_profiles(arity), min_size=1,
                                    max_size=4))
        plan = plan_for_fetches(model.graph,
                                {t.op for t in model.fetches(True)})
        tpl = template_for(model.graph, plan, True)
        assert isinstance(tpl, Template)
        lp = instance_for(tpl, [linearise(tpl, (p,)) for p in forest])
        mirrored = 0
        for blk in (blk for level in lp.program for blk in level):
            cls, prog = blk.prog.cls, blk.prog
            if cls is None or cls.family != "grad" or prog.seg:
                continue
            for (refs, _, _), spec in zip(prog.imports, blk.imports):
                if not all(r[0] == _M and r[1][0] == _S
                           and cls.mirror.ops[r[1][1]].seg == 1
                           for r in refs):
                    continue
                mirrored += 1
                # one producer: the column itself, or one merged op's
                # rows of it; a merged import: such slices in op order —
                # never an index array, never a permutation
                parts, perm = ((spec,), None) if len(spec) == 3 else spec
                assert perm is None
                assert all(rows is None or isinstance(rows, slice)
                           for _, _, rows in parts)
        assert mirrored or not any(forest)


class TestWideOps:
    """A value address packs (column, output) into one integer whose
    width the template derives from its widest op: ``Stack``'s gradient
    has one output per stacked tree, so a training batch above 64 trees
    is where a fixed width would alias columns."""

    def test_train_batch_of_65_equals_dynamic(self):
        from repro.data import batch_trees, make_treebank
        from repro.models import ModelConfig, TreeRNNSentiment
        bank = make_treebank(num_train=16, num_val=2, vocab_size=50,
                             max_words=6, mean_log_words=1.2, seed=11)
        trees = [bank.train[i % 16] for i in range(65)]
        out = []
        for compiled in (False, True):
            runtime = repro.Runtime()
            model = TreeRNNSentiment(
                ModelConfig(vocab_size=50, hidden=8, embed_dim=8), runtime)
            built = model.build_recursive(len(trees))
            batch = batch_trees(trees)
            _, updates = repro.gradients(built.loss, [])
            fetches = ([built.loss, built.root_logits]
                       + [op.outputs[-1] for op in updates])
            session = repro.Session(built.graph, runtime, num_workers=4,
                                    record=True)
            kwargs = ({"shape_profile": built.shape_profiles(batch)}
                      if compiled else {})
            values = session.run(fetches, built.feed_dict(batch), **kwargs)
            acc = runtime.accumulators
            out.append((values, {n: np.copy(acc.read(n))
                                 for n in acc.names()}))
            if compiled:
                assert session.last_stats.level_plan_hits == 1
                plan = plan_for_fetches(built.graph,
                                        {t.op for t in fetches})
                assert template_for(built.graph, plan, True).out_bits == 7
        (ref_values, ref_grads), (values, grads) = out
        for a, b in zip(ref_values, values):
            assert np.array_equal(a, b)
        assert set(grads) == set(ref_grads)
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestFallbackReasons:
    """Every profiled admission that runs dynamically is counted under
    the reason it could not be compiled — and still returns the dynamic
    tier's values."""

    @pytest.mark.parametrize("data, profile, kwargs, reason", [
        (((), (), ()), ((((), ()), (), ()),), {},
         "profile child count does not match call sites"),
        (((), (), ()), (((), (), ()), ()), {},
         "profile count does not match root call sites"),
        # the claimed shape would spawn frames the session forbids; the
        # fed leaf does not
        ((), (((), (), ()),), {"max_depth": 3}, "max_depth exceeded"),
        ((), 3, {}, "profile is not a nested tuple"),
    ], ids=["child-count", "root-sites", "max-depth", "not-iterable"])
    def test_instantiate_time_mismatch(self, data, profile, kwargs, reason):
        model = _Model.of(3)
        session = repro.Session(model.graph, model.runtime, **kwargs)
        ref = session.run(model.loss, model.feeds(data))
        got = session.run(model.loss, model.feeds(data),
                          shape_profile=profile)
        stats = session.last_stats
        assert stats.level_plan_hits == 0
        assert stats.level_plan_fallbacks == 1
        assert stats.level_plan_fallback_reasons == {reason: 1}
        assert np.array_equal(ref, got)

    def test_recursion_free_fetch(self):
        """A fetch set with no recursive call site — a training step's
        Adagrad apply — is refused by name under ``shape_profile=()``,
        and runs dynamically to the values of the run without one."""
        from repro.nn.optimizers import Adagrad
        model, built, fetches, _ = _tree_model("TreeRNN", True)
        runtime = model.runtime
        apply = Adagrad(0.05).build_apply(
            built.graph, runtime.trainable_variables(), runtime)
        batch = batch_trees(make_treebank(num_train=2, num_val=1,
                                          vocab_size=30, seed=3).train)
        session = repro.Session(built.graph, runtime, num_workers=2,
                                record=True)
        runtime.accumulators.zero()
        session.run(fetches, built.feed_dict(batch))
        snapshot = runtime.variables.snapshot()
        got = []
        for kwargs in ({}, {"shape_profile": ()}):
            runtime.variables.restore(snapshot)
            got.append(session.run(apply, record=False, **kwargs))
        stats = session.last_stats
        assert stats.level_plan_hits == 0
        assert stats.level_plan_fallback_reasons == {
            "no recursive call sites in the root plan": 1}
        assert len(got[0]) == len(got[1]) > 0
        for ref, value in zip(*got):
            assert np.array_equal(ref, value)

    @pytest.mark.parametrize("variant, reason", [
        ("control", "control dependency in a compiled body"),
        ("cond", "data-dependent control flow here"),
        ("loop", "async op Loop is not compilable"),
    ])
    def test_refused_construct(self, variant, reason):
        """Constructs outside the compilable boundary are refused by
        name, and the run still returns the dynamic tier's values."""
        graph, out, placeholders = _refused_graph(variant)
        session = repro.Session(graph, repro.Runtime(), num_workers=2)
        profile = (((), ()), ())
        feeds = _tree_feeds(placeholders, 2, profile)
        ref = session.run(out, feeds)
        got = session.run(out, feeds, shape_profile=(profile,))
        stats = session.last_stats
        assert stats.level_plan_hits == 0
        assert stats.level_plan_fallback_reasons == {reason: 1}
        assert np.array_equal(ref, got)

    def test_reasons_merge(self):
        a, b = repro.RunStats(), repro.RunStats()
        a.level_plan_fallback_reasons = {"x": 1, "y": 2}
        b.level_plan_fallback_reasons = {"y": 1, "z": 4}
        a.merge(b)
        assert a.level_plan_fallback_reasons == {"x": 1, "y": 3, "z": 4}


_TREE_MODELS = {
    "TreeRNN": lambda rt: TreeRNNSentiment(
        ModelConfig(hidden=6, embed_dim=5, vocab_size=30), rt),
    "RNTN": lambda rt: RNTNSentiment(
        ModelConfig(hidden=6, embed_dim=6, vocab_size=30), rt),
    "TreeLSTM": lambda rt: TreeLSTMSentiment(
        tree_lstm_config(hidden=6, embed_dim=5, vocab_size=30), rt),
}


def _tree_model(name, train):
    """A fresh tree model: ``(model, built, fetches, root plan)``."""
    model = _TREE_MODELS[name](repro.Runtime())
    built = model.build_recursive(2)
    fetches = [built.loss, built.root_logits]
    if train:
        _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    return model, built, fetches, plan_for_fetches(
        built.graph, {t.op for t in fetches})


def _programs(tpl):
    return [tpl.prologue] + [p for cls in tpl.classes for p in cls.blocks]


def _read_regs(prog):
    """Every register a block program reads."""
    srcs = [*(c[0] for c in prog.checks), *(s[0] for s in prog.stores)]
    for st in prog.steps:
        srcs += [*st.inputs, *(c[0] for c in st.checks)]
    for reg, _, _ in srcs:
        yield from ((p[0] for p in reg) if reg.__class__ is tuple
                    else (reg,))


def _read_steps(prog):
    """The steps whose outputs are read inside their own block."""
    regs = set(_read_regs(prog))
    return [st for st in prog.feeds + prog.steps
            if regs.intersection(range(st.reg, st.reg + st.n_out))]


def _live_pair(prog):
    """Two steps whose registers are live at once — ``a`` is still read
    when ``b`` writes — or None."""
    return next(((a, b) for a in _read_steps(prog) for b in prog.steps
                 if b is not a and a.level <= b.level <= a.last
                 and a.last > a.level), None)


def _rejected(prog, mutate) -> int:
    mutate(prog)
    with pytest.raises(_Ineligible, match="failed verification"):
        check(prog)
    return 1


class TestVerifier:
    """Every block program a template finishes is checked: registers
    written once, read only after they are written and no later than
    their recorded last level, rows inside their producer, ``frees`` as
    the ``last`` levels imply."""

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("name", sorted(_TREE_MODELS))
    def test_every_program_checks(self, name, train):
        _, built, _, plan = _tree_model(name, train)
        tpl = template_for(built.graph, plan, train)
        assert isinstance(tpl, Template), tpl
        programs = _programs(tpl)
        assert len(programs) >= (12 if train else 7)
        for prog in programs:
            check(prog)

    @staticmethod
    def _template():
        _, built, _, plan = _tree_model("TreeLSTM", True)
        return Template(built.graph, plan, True)   # fresh, not memoised

    def test_corrupt_last_is_rejected(self):
        def corrupt(prog):
            _read_steps(prog)[-1].last -= 1
        rejected = sum(_rejected(prog, corrupt)
                       for prog in _programs(self._template())
                       if _read_steps(prog))
        assert rejected >= 8

    def test_dropped_import_is_rejected(self):
        rejected = sum(_rejected(prog, lambda p: p.imports.pop(0))
                       for prog in _programs(self._template())
                       if prog.imports)
        assert rejected >= 8

    def test_aliased_live_registers_are_rejected(self):
        def alias(prog):
            a, b = _live_pair(prog)
            b.reg = a.reg
        rejected = sum(_rejected(prog, alias)
                       for prog in _programs(self._template())
                       if _live_pair(prog))
        assert rejected >= 8

    @pytest.mark.parametrize("engine", available_executors())
    def test_failed_program_is_a_counted_fallback(self, engine,
                                                  monkeypatch):
        finish = block._BlockProg.finish

        def finish_then_corrupt(prog):
            finish(prog)
            if prog.cls is not None and _read_steps(prog):
                _read_steps(prog)[-1].last -= 1
        bank = make_treebank(num_train=3, num_val=1, vocab_size=30,
                             max_words=8, seed=5)
        batch = batch_trees(bank.train[:2])
        model, built, fetches, _ = _tree_model("TreeLSTM", False)
        session = repro.Session(built.graph, model.runtime, engine=engine)
        ref = session.run(fetches, built.feed_dict(batch))
        monkeypatch.setattr(block._BlockProg, "finish", finish_then_corrupt)
        got = session.run(fetches, built.feed_dict(batch),
                          shape_profile=built.shape_profiles(batch))
        stats = session.last_stats
        assert stats.level_plan_hits == 0
        assert stats.level_plan_fallbacks == 1
        (reason, count), = stats.level_plan_fallback_reasons.items()
        assert count == 1
        assert reason.startswith("block program failed verification: ")
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)
