"""Canonicalization knobs + holed profiles (level-plan tier).

A fully determined profile of any depth is instantiated whole from the
definition's one template (``level_canon_depth`` is still accepted and
validated, but no longer decomposes such profiles); a profile with
``None`` holes is one fallback, and its whole root runs on the dynamic
tier.  Values and cache keys must match the dynamic scheduler exactly,
and failures (lying profiles, uncompilable definitions) must keep their
semantics.
"""

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import batch_trees, make_treebank
from repro.models import ModelConfig, TreeRNNSentiment
from repro.runtime.batching import BatchPolicy
from repro.runtime.level_plan import Template, level_plan_for
from repro.runtime.plan import plan_for_fetches
from repro.runtime.scheduler import available_executors
from repro.runtime.stats import RunStats
from tests.conftest import assert_one_hole_fallback

ENGINES = available_executors()

CONFIG = ModelConfig(vocab_size=50, hidden=8, embed_dim=8)


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=16, num_val=4, vocab_size=50,
                         max_words=12, mean_log_words=2.2, seed=11)


def _run_model(engine, trees, train, profile=True, canon=None, workers=4):
    """One fresh build + run; returns (values, grads, stats)."""
    runtime = repro.Runtime()
    model = TreeRNNSentiment(CONFIG, runtime)
    built = model.build_recursive(len(trees))
    batch = batch_trees(trees)
    fetches = [built.loss, built.root_logits]
    if train:
        _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, runtime, num_workers=workers,
                            engine=engine, record=train,
                            level_canon_depth=canon)
    runtime.accumulators.zero()
    kwargs = ({"shape_profile": built.shape_profiles(batch)}
              if profile else {})
    values = session.run(fetches, built.feed_dict(batch), **kwargs)
    grads = ({name: np.copy(runtime.accumulators.read(name))
              for name in runtime.accumulators.names()} if train else {})
    return values, grads, session.last_stats


def _assert_same_results(ref, got):
    (ref_values, ref_grads, _), (values, grads, _) = ref, got
    for a, b in zip(ref_values, values):
        assert np.array_equal(a, b)
    assert set(grads) == set(ref_grads)
    for name in ref_grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


def _tree_sum_graph(name):
    """Array-backed binary reduction with a *fed* root index, so one
    graph serves a whole stream of distinct tree shapes."""
    graph = repro.Graph(name)
    with graph.as_default():
        values = ops.placeholder(repro.float32, (None,))
        children = ops.placeholder(repro.int32, (None, 2))
        is_leaf = ops.placeholder(repro.bool_, (None,))
        root = ops.placeholder(repro.int32, ())
        with SubGraph("tsum") as tsum:
            idx = tsum.input(repro.int32, ())
            tsum.declare_outputs([(repro.float32, ())])

            def leaf():
                return ops.gather(values, idx)

            def internal():
                pair = ops.gather(children, idx)
                return ops.add(tsum(ops.gather(pair, 0)),
                               tsum(ops.gather(pair, 1)))

            tsum.output(ops.cond(ops.gather(is_leaf, idx), leaf, internal))
        out = tsum(root)
    return graph, out, (values, children, is_leaf, root)


def _materialize(profile, rng):
    """Post-order array encoding of a shape profile, random leaf values."""
    nodes = []

    def build(p):
        if not p:
            nodes.append((True, -1, -1))
        else:
            left = build(p[0])
            right = build(p[1])
            nodes.append((False, left, right))
        return len(nodes) - 1

    root = build(profile)
    vals = rng.normal(size=len(nodes)).astype(np.float32)
    children = np.array([[l, r] for _, l, r in nodes], dtype=np.int32)
    leaf = np.array([f for f, _, _ in nodes])
    return root, vals, children, leaf


def _feeds(placeholders, profile, rng):
    values, children, is_leaf, root = placeholders
    root_idx, vals, kids, leaf = _materialize(profile, rng)
    return {values: vals, children: kids, is_leaf: leaf, root: root_idx}


def _rand_profile(rng, depth, force):
    """Random binary shape; the top ``force`` levels are internal, so
    the profile's depth is at least ``force + 1``."""
    if depth <= 1:
        return ()
    if force <= 0 and rng.random() < 0.3:
        return ()
    return (_rand_profile(rng, depth - 1, force - 1),
            _rand_profile(rng, depth - 1, force - 1))


class TestCanonicalization:
    """level_canon_depth used to trade one-plan-per-shape for a dynamic
    spine over a small canonical plan set.  The template made the trade
    unnecessary: the knob is accepted, and a fully determined tree of
    any depth compiles whole."""

    @pytest.mark.parametrize("train", [False, True],
                             ids=["forward", "train"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_canonicalized_equals_dynamic(self, bank, engine, train):
        trees = [t for t in bank.train if t.depth > 2][:3]
        assert len(trees) == 3
        dynamic = _run_model(engine, trees, train, profile=False)
        canon = _run_model(engine, trees, train, canon=2)
        stats = canon[2]
        assert stats.level_plan_hits == 1
        assert stats.level_plan_partial_roots == 0
        assert stats.level_plan_subtree_runs == 0
        assert stats.level_plan_fallbacks == 0
        _assert_same_results(dynamic, canon)

    def test_shallow_profile_still_compiles_fully(self, bank):
        """Profiles within the canon bucket keep the whole-root path."""
        trees = [t for t in bank.train if t.depth > 2][:2]
        full = _run_model("event", trees, train=False, canon=64)
        assert full[2].level_plan_hits == 1
        assert full[2].level_plan_partial_roots == 0

    def test_heavy_tailed_stream_bounded_compiles(self):
        """50 distinct deep shapes, canon depth 3: compile cost does not
        depend on how many shapes the session sees — one template for
        the definition, one (cheap) instantiation per shape, no spine,
        no fallbacks."""
        rng = np.random.default_rng(101)
        graph, out, placeholders = _tree_sum_graph("stream")
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                level_canon_depth=3)
        profiles, seen = [], set()
        while len(profiles) < 50:
            p = _rand_profile(rng, int(rng.integers(5, 9)), force=3)
            if p not in seen:
                seen.add(p)
                profiles.append(p)
        total = RunStats()
        for p in profiles:
            feeds = _feeds(placeholders, p, rng)
            ref = session.run(out, feeds)
            got = session.run(out, feeds, shape_profile=(p,))
            assert np.array_equal(ref, got)
            total.merge(session.last_stats)
        assert total.level_plan_hits == len(profiles)
        assert total.level_plan_fallbacks == 0
        assert total.level_plan_partial_roots == 0
        assert total.level_plan_subtree_runs == 0
        assert total.level_plan_cache_misses == len(profiles)
        templates = graph._level_plans["templates"]
        assert len(templates) == 1
        assert all(isinstance(t, Template) for t in templates.values())


def _holed_equals_dynamic(engine, name, data, holed, seed):
    """The tree-sum graph on a recording session, unprofiled and with
    ``holed``: the same value and the same cache keys and values, and
    one fallback for the holed run."""
    graph, out, placeholders = _tree_sum_graph(name)
    feeds = _feeds(placeholders, data, np.random.default_rng(seed))
    runtime = repro.Runtime()
    session = repro.Session(graph, runtime, num_workers=2, engine=engine,
                            record=True)
    runs = []
    for kwargs in ({}, {"shape_profile": holed}):
        runs.append((session.run(out, feeds, **kwargs),
                     dict(runtime.cache.items())))
    (ref, ref_cache), (got, cache) = runs
    assert np.array_equal(ref, got)
    assert set(cache) == set(ref_cache) and ref_cache
    for key in ref_cache:
        assert np.array_equal(cache[key], ref_cache[key]), key
    assert_one_hole_fallback(session.last_stats)


class TestPartialCompilation:
    """A profile with ``None`` holes is one more fallback: the whole
    root runs on the dynamic tier — determined subtrees included — with
    the dynamic tier's values and cache contents, and the determined
    part of the profile is never checked against the data."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hole_profile_runs_determined_subtrees(self, engine):
        _holed_equals_dynamic(engine, f"holes-{engine}", (((), ()), ()),
                              ((((), ()), None),), seed=7)

    def test_all_holes_profile_runs_dynamically(self):
        for engine in ENGINES:
            _holed_equals_dynamic(engine, f"all-holes-{engine}",
                                  (((), ()), ()), ((None, None),), seed=13)

    def test_uncompilable_definition_falls_back_once(self):
        """Ineligibility is a property of the definition: a
        shape-invisible Cond costs one fallback for the whole admission
        — counted with its reason — holes or no holes."""
        graph = repro.Graph("amb-spine")
        with graph.as_default():
            with SubGraph("amb") as amb:
                n = amb.input(repro.int32, ())
                amb.declare_outputs([(repro.int32, ())])

                def base():
                    return ops.identity(n)

                def rec():
                    return ops.cond(ops.less_equal(n, 3),
                                    lambda: amb(n - 1),
                                    lambda: amb(n - 2))

                amb.output(ops.cond(ops.less_equal(n, 1), base, rec))
            out = amb(ops.constant(3))
        for engine in ENGINES:
            session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                    engine=engine, level_canon_depth=2)
            ref = session.run(out)
            for profile in (((),),), ((None,),):
                got = session.run(out, shape_profile=(profile,))
                stats = session.last_stats
                assert got == ref
                assert stats.level_plan_partial_roots == 0
                assert stats.level_plan_subtree_runs == 0
                assert stats.level_plan_hits == 0
                assert stats.level_plan_fallbacks == 1
                assert stats.level_plan_fallback_reasons == {
                    "branch is not determined by the shape profile": 1}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lying_holed_profile_falls_back(self, engine):
        """A holed profile whose determined part lies is never checked
        against the data: it falls back once and returns the dynamic
        tier's values.  The same lie without the hole still raises."""
        data = ((((), ()), ()), ())
        # the right child claims to be internal where the data has a leaf
        _holed_equals_dynamic(engine, f"liar-{engine}", data,
                              ((None, ((), ())),), seed=29)
        graph, out, placeholders = _tree_sum_graph(f"liar-whole-{engine}")
        feeds = _feeds(placeholders, data, np.random.default_rng(29))
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine, level_canon_depth=1)
        with pytest.raises(repro.EngineError, match="shape profile"):
            session.run(out, feeds, shape_profile=((data[0], ((), ())),))


class TestPlanCacheLRU:
    """The instantiation memo is LRU-bounded (``LEVEL_PLAN_CAP``);
    the template map needs no cap — it holds one entry per definition."""

    def test_compiled_plans_evict_lru(self, monkeypatch):
        from repro.runtime import level_plan
        monkeypatch.setattr(level_plan.forest, "LEVEL_PLAN_CAP", 2)
        graph, out, _ = _tree_sum_graph("lru")
        plan = plan_for_fetches(graph, {out.op})
        stats = RunStats()
        profiles = [(((), ()),), ((((), ()), ()),), (((), ((), ())),)]
        plans = [level_plan_for(graph, plan, p, False, stats=stats)
                 for p in profiles]
        assert all(lp is not None for lp in plans)
        assert stats.level_plan_evictions == 1
        # the most-recent entries survived ...
        assert level_plan_for(graph, plan, profiles[2], False,
                              stats=stats) is plans[2]
        # ... the oldest did not: re-instantiating it is a fresh miss
        before = stats.level_plan_cache_misses
        fresh = level_plan_for(graph, plan, profiles[0], False, stats=stats)
        assert fresh is not plans[0]
        assert stats.level_plan_cache_misses == before + 1
        # all of them share the definition's one template
        assert len({id(lp.template) for lp in plans + [fresh]}) == 1

    def test_recent_hit_refreshes_lru_order(self, monkeypatch):
        from repro.runtime import level_plan
        monkeypatch.setattr(level_plan.forest, "LEVEL_PLAN_CAP", 2)
        graph, out, _ = _tree_sum_graph("lru-touch")
        plan = plan_for_fetches(graph, {out.op})
        stats = RunStats()
        a, b = (((), ()),), ((((), ()), ()),)
        lp_a = level_plan_for(graph, plan, a, False, stats=stats)
        level_plan_for(graph, plan, b, False, stats=stats)
        # touch a: it becomes most-recent, so inserting c evicts b
        assert level_plan_for(graph, plan, a, False, stats=stats) is lp_a
        level_plan_for(graph, plan, (((), ((), ())),), False, stats=stats)
        assert level_plan_for(graph, plan, a, False, stats=stats) is lp_a
        assert stats.level_plan_evictions == 1


class TestKnobValidation:
    def test_session_rejects_non_positive_depth(self):
        with pytest.raises(ValueError, match="level_canon_depth"):
            repro.Session(repro.Graph("bad-knob"), repro.Runtime(),
                          level_canon_depth=0)

    def test_session_rejects_depth_on_existing_policy(self):
        with pytest.raises(ValueError, match="level_canon_depth"):
            repro.Session(repro.Graph("bad-knob2"), repro.Runtime(),
                          batch_policy=BatchPolicy(), level_canon_depth=-1)
