"""FramePlan compilation: caching, invalidation, slots, equivalence.

The contract under test: per ``(graph, op-set)`` body, everything the
scheduler derives from the graph (dependency counts, consumer lists,
registry resolution, signature prefixes, store masks) is computed exactly
once — the second and every later frame spawn performs **zero** graph
walks — while execution semantics stay bit-identical to the pre-plan
(seed) engines.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.graph.graph import Graph
from repro.runtime.batching import (Bucket, Coalescer, _SignatureState,
                                    batch_signature, signature_prefix)
from repro.runtime.engine import Frame, Instance
from repro.runtime.plan import plan_for, plan_for_fetches
from repro.runtime.scheduler import _DepthPriorityReady, _FifoReady
from repro.runtime.server import RequestTicket

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _power_with_grad(graph):
    """f(x) = x^5 via recursion, plus its gradient (forward + backward
    bodies, Invoke + Cond + InvokeGrad + CacheLookup frames)."""
    with SubGraph("pow") as p:
        x = p.input(repro.float32, ())
        n = p.input(repro.int32, ())
        p.declare_outputs([(repro.float32, ())])
        p.output(ops.cond(ops.less_equal(n, 0),
                          lambda: ops.constant(1.0),
                          lambda: ops.multiply(x, p(x, n - 1))))
    xin = ops.placeholder(repro.float32, ())
    y = p(xin, ops.constant(5))
    grads, _ = repro.gradients(y, [xin])
    return xin, y, grads[0]


# -- plan compilation and caching ---------------------------------------------

class TestPlanCompilation:
    def test_plan_is_cached_per_graph(self, graph):
        a = ops.constant(1.0)
        b = ops.add(a, a)
        plan = plan_for(graph)
        assert plan_for(graph) is plan
        assert plan.num_slots == graph.num_operations
        assert plan.index_of[b.op.id] == plan.op_ids.index(b.op.id)

    def test_plan_matches_graph_wiring(self, graph):
        a = ops.placeholder(repro.float32, (2,))
        b = ops.tanh(a)
        c = ops.add(b, a)
        plan = plan_for(graph)
        for slot, op in enumerate(plan.ops):
            assert plan.dep_counts[slot] == graph.dependency_count(op)
        a_slot = plan.index_of[a.op.id]
        assert sorted(plan.consumer_slots[a_slot]) == sorted(
            [plan.index_of[b.op.id], plan.index_of[c.op.id]])
        c_slot = plan.index_of[c.op.id]
        assert plan.input_locs[c_slot] == (
            (plan.index_of[b.op.id], 0), (plan.index_of[a.op.id], 0))

    def test_plan_invalidated_by_add_op(self, graph):
        ops.constant(1.0)
        plan = plan_for(graph)
        ops.constant(2.0)
        assert plan_for(graph) is not plan

    def test_plan_invalidated_by_cache_filter(self, graph):
        out = ops.tanh(ops.constant(1.0))
        plan = plan_for(graph)
        slot = plan.index_of[out.op.id]
        assert plan.store_masks[slot] == (True,)
        graph.set_cache_filter({(out.op.id, 0)})
        fresh = plan_for(graph)
        assert fresh is not plan
        assert fresh.store_masks[fresh.index_of[out.op.id]] == (True,)
        other = next(op for op in fresh.ops if op.id != out.op.id)
        assert fresh.store_masks[fresh.index_of[other.id]] == (False,)

    def test_plan_invalidated_by_registry_mutation(self, graph):
        """Registering a batched kernel *after* a plan compiled must not
        leave the stale (never-batching) plan in the caches.

        Plans bake in resolved OpDefs and batch-signature prefixes
        (``None`` while no ``batched_kernel`` exists), so registry
        mutation bumps a version that drops compiled plans on the next
        ``plan_for``/``plan_for_fetches``."""
        from repro.graph import registry

        name = "PlanStaleProbe"
        if name not in registry.all_op_types():
            registry.register_op(
                name,
                infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
                kernel=lambda op, inputs, ctx: [np.tanh(inputs[0])])
        x = ops.placeholder(repro.float32, (2, 2), "x")
        probed = graph.add_op(name, [x], {}).outputs[0]
        plan = plan_for(graph)
        fetch_plan = plan_for_fetches(graph, {probed.op})
        slot = plan.index_of[probed.op.id]
        assert plan.sig_prefixes[slot] is None  # not batchable yet

        registry.register_batched_kernel(name, None)  # member-loop fallback
        try:
            fresh = plan_for(graph)
            assert fresh is not plan
            assert plan_for_fetches(graph, {probed.op}) is not fetch_plan
            assert fresh.sig_prefixes[fresh.index_of[probed.op.id]] \
                is not None
            # and the recompiled plan actually batches through a session
            wide = repro.Graph("stale_wide")
            with wide.as_default():
                xs = ops.placeholder(repro.float32, (2, 2), "xs")
                tails = [wide.add_op(name, [xs], {}).outputs[0]
                         for _ in range(6)]
                out = tails[0]
                for t in tails[1:]:
                    out = ops.add(out, t)
            sess = repro.Session(wide, repro.Runtime(), num_workers=4,
                                 batching=True)
            sess.run(out, {xs: np.zeros((2, 2), np.float32)})
            assert sess.last_stats.batches > 0
        finally:
            # leave the registry as this test found it for later tests
            registry.op_def(name).batched_kernel = None
            registry.op_def(name).meta.pop("batch_attrs", None)
            registry._bump_version()

    def test_fetch_plans_prune_and_memoize(self, graph):
        a = ops.constant(1.0)
        b = ops.tanh(a)
        ops.tanh(ops.constant(99.0))  # unrelated branch, must be pruned
        plan = plan_for_fetches(graph, {b.op})
        assert plan_for_fetches(graph, {b.op}) is plan
        assert set(plan.op_ids) == graph.reachable_from({b.op})
        assert plan.num_slots < graph.num_operations

    def test_signature_prefix_interned_across_graphs(self):
        g1, g2 = repro.Graph("sig1"), repro.Graph("sig2")
        with g1.as_default():
            t1 = ops.tanh(ops.placeholder(repro.float32))
        with g2.as_default():
            t2 = ops.tanh(ops.placeholder(repro.float32))
        assert signature_prefix(t1.op) == signature_prefix(t2.op)
        x = np.zeros((2, 2), np.float32)
        assert batch_signature(t1.op, [x]) == batch_signature(t2.op, [x])
        # element 0 stays the op type: the stats/reporting contract
        assert batch_signature(t1.op, [x])[0] == "Tanh"


# -- the no-graph-walk guarantee ----------------------------------------------

class TestNoGraphWalksAfterFirstSpawn:
    @pytest.mark.parametrize("engine", ["event", "workerpool"])
    @pytest.mark.timeout(60)
    def test_second_run_does_zero_walks(self, engine, monkeypatch, graph,
                                        runtime):
        """Forward and backward recursive bodies, both engines: after the
        first run compiled the plans, later spawns of the same SubGraphs
        never call dependency_count/consumers again."""
        xin, y, grad = _power_with_grad(graph)
        sess = repro.Session(graph, runtime, record=True, engine=engine,
                             num_workers=4)
        first = sess.run([y, grad], {xin: 1.3})

        calls = {"dependency_count": 0, "consumers": 0}
        orig_dep = Graph.dependency_count
        orig_cons = Graph.consumers

        def counting_dep(self, op):
            calls["dependency_count"] += 1
            return orig_dep(self, op)

        def counting_cons(self):
            calls["consumers"] += 1
            return orig_cons(self)

        monkeypatch.setattr(Graph, "dependency_count", counting_dep)
        monkeypatch.setattr(Graph, "consumers", counting_cons)
        second = sess.run([y, grad], {xin: 1.3})
        assert calls == {"dependency_count": 0, "consumers": 0}
        assert first == second  # same feeds, bit-identical results

    def test_first_run_walks_each_body_once(self, monkeypatch, graph,
                                            runtime):
        """Plan compilation is once per body graph, not per frame."""
        xin, y, grad = _power_with_grad(graph)
        calls = {"consumers": 0}
        orig_cons = Graph.consumers

        def counting_cons(self):
            calls["consumers"] += 1
            return orig_cons(self)

        monkeypatch.setattr(Graph, "consumers", counting_cons)
        sess = repro.Session(graph, runtime, record=True, num_workers=4)
        sess.run([y, grad], {xin: 1.3})
        frames = sess.last_stats.frames_created
        assert frames > 20  # recursion really spawned many frames ...
        # ... but the graph was walked at most once per distinct body
        # (main graph + forward/backward bodies + cond branches)
        assert calls["consumers"] <= 12


# -- slotted hot-path classes -------------------------------------------------

class TestHotPathSlots:
    def test_hot_path_classes_reject_stray_attributes(self, graph):
        a = ops.constant(1.0)
        plan = plan_for(graph)
        frame = Frame(plan, {}, ("k",), 0, False, lambda f: None, None)
        instances = [
            plan,
            frame,
            Instance(a.op, frame, plan.index_of[a.op.id]),
            Bucket("sig", "Tanh"),
            Coalescer(),
            _SignatureState(width_ema=1.0, min_batch=2),
            _FifoReady(),
            _DepthPriorityReady(),
            RequestTicket(0, [], {}, True, None),
        ]
        for obj in instances:
            with pytest.raises(AttributeError, match="stray|attribute"):
                obj.stray = 1
            assert not hasattr(obj, "__dict__"), type(obj).__name__


# -- randomized-tree equivalence with the seed semantics ----------------------

def _random_tree(rng, max_nodes=23):
    """Random binary tree as (left, right, is_leaf, values) arrays."""
    left, right, is_leaf, values = [], [], [], []

    def gen(depth):
        i = len(left)
        left.append(0), right.append(0), is_leaf.append(1)
        values.append(rng.standard_normal())
        if depth >= 4 or len(left) >= max_nodes - 2 \
                or (depth > 0 and rng.random() < 0.35):
            return i
        is_leaf[i] = 0
        left[i] = gen(depth + 1)
        right[i] = gen(depth + 1)
        return i

    gen(0)
    return (np.asarray(left, np.int32), np.asarray(right, np.int32),
            np.asarray(is_leaf, np.int32),
            np.asarray(values, np.float32))


def _reference_eval(i, left, right, is_leaf, values):
    """Pure-numpy recursion: the seed semantics the engines must match
    bit for bit (same kernels: gather, add, tanh on float32)."""
    if is_leaf[i]:
        return values[i]
    l = _reference_eval(left[i], left, right, is_leaf, values)
    r = _reference_eval(right[i], left, right, is_leaf, values)
    return np.tanh(np.add(l, r))


class TestRandomTreePlanEquivalence:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    @pytest.mark.timeout(120)
    def test_plan_execution_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        left, right, is_leaf, values = _random_tree(rng)
        expected = _reference_eval(0, left, right, is_leaf, values)

        graph = repro.Graph("treeval")
        with graph.as_default():
            left_t = ops.placeholder(repro.int32, left.shape, name="l")
            right_t = ops.placeholder(repro.int32, right.shape, name="r")
            leaf_t = ops.placeholder(repro.int32, is_leaf.shape, name="f")
            vals_t = ops.placeholder(repro.float32, values.shape, name="v")
            with SubGraph("treeval") as tv:
                idx = tv.input(repro.int32, ())
                tv.declare_outputs([(repro.float32, ())])
                tv.output(ops.cond(
                    ops.equal(ops.gather(leaf_t, idx), 1),
                    lambda: ops.gather(vals_t, idx),
                    lambda: ops.tanh(ops.add(tv(ops.gather(left_t, idx)),
                                             tv(ops.gather(right_t, idx))))))
            root = tv(ops.constant(0))
        feeds = {left_t: left, right_t: right, leaf_t: is_leaf,
                 vals_t: values}

        results = {}
        for label, kwargs in (
                ("event", dict(num_workers=8)),
                ("event_batched", dict(num_workers=8, batching=True)),
                ("workerpool_batched", dict(num_workers=2,
                                            engine="workerpool",
                                            batching=True))):
            sess = repro.Session(graph, repro.Runtime(), **kwargs)
            results[label] = sess.run(root, feeds)
        for label, value in results.items():
            assert np.array_equal(np.asarray(value), np.asarray(expected)), \
                (label, seed)
