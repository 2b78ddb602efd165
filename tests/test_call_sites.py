"""Call-site descriptors: one call semantics for both tiers.

Every ``Invoke`` / ``Cond`` / ``InvokeGrad`` / ``CondGrad`` op has one
descriptor (:mod:`repro.core.callsite`).  For every call site of the
paper's tree models and a 3-ary tree sum, forward and train, these
tests pin that a dynamic child frame receives exactly the bindings and
key the descriptor gives, and that the compiled template's recursive
sites bind the same placeholder ids to the same input positions.
"""

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.cache import child_key
from repro.core.callsite import call_site
from repro.core.subgraph import SubGraph
from repro.data import batch_trees, make_treebank
from repro.models import (ModelConfig, RNTNSentiment, TDTreeLSTM,
                          TreeLSTMSentiment, TreeRNNSentiment,
                          tree_lstm_config)
from repro.runtime.level_plan import Template, template_for
from repro.runtime.plan import plan_for, plan_for_fetches
from repro.runtime.scheduler import SchedulerCore
from repro.runtime.variables import Variable

CALLS = ("Invoke", "Cond", "InvokeGrad", "CondGrad")
SMALL = ModelConfig(vocab_size=50, hidden=6, embed_dim=6)


def _tree_model(cls, config):
    def build(train):
        runtime = repro.Runtime()
        built = cls(config, runtime).build_recursive(3)
        bank = make_treebank(num_train=3, num_val=0, vocab_size=50,
                             max_words=8, mean_log_words=1.8, seed=5)
        batch = batch_trees(bank.train)
        fetches = [built.loss, built.root_logits]
        if train:
            _, updates = repro.gradients(built.loss, [])
            fetches += [op.outputs[-1] for op in updates]
        return (built.graph, runtime, fetches, built.feed_dict(batch),
                built.shape_profiles(batch))
    return build


def _td_tree_lstm(train):
    """Top-down generation: its structure comes from computed gates, so
    it has no shape profile (and no loss: ``train`` records)."""
    runtime = repro.Runtime()
    built = TDTreeLSTM(SMALL, runtime, max_depth=4).build_recursive(3)
    return (built.graph, runtime, [built.node_counts],
            built.feed_dict(np.array([1, 2, 3])), None)


def _tree_sum3(train):
    """``h = tanh(w * sum(h(children)) + v * x)`` over a fed 3-ary tree."""
    runtime = repro.Runtime()
    graph = repro.Graph("callsite-sum3")
    with graph.as_default():
        x = ops.placeholder(repro.float32, (None, 4))
        children = ops.placeholder(repro.int32, (None, 3))
        is_leaf = ops.placeholder(repro.bool_, (None,))
        root = ops.placeholder(repro.int32, ())
        w = Variable("callsite-sum3/w", np.full((4,), 0.5, np.float32),
                     runtime=runtime)
        v = Variable("callsite-sum3/v",
                     np.linspace(-1, 1, 4, dtype=np.float32),
                     runtime=runtime)
        with SubGraph("callsite-sum3_node") as node:
            idx = node.input(repro.int32, ())
            node.declare_outputs([(repro.float32, (4,))])

            def leaf():
                return ops.tanh(ops.multiply(v.read(), ops.gather(x, idx)))

            def internal():
                kids = ops.gather(children, idx)
                total = node(ops.gather(kids, 0))
                for j in (1, 2):
                    total = ops.add(total, node(ops.gather(kids, j)))
                return ops.tanh(ops.add(
                    ops.multiply(w.read(), total),
                    ops.multiply(v.read(), ops.gather(x, idx))))

            node.output(ops.cond(ops.gather(is_leaf, idx), leaf, internal))
        loss = ops.reduce_sum(ops.square(node(root)))
        fetches = [loss]
        if train:
            _, updates = repro.gradients(loss, [])
            fetches += [op.outputs[-1] for op in updates]
    # post-order: leaves 0-2 and 4-6, internal 3 and 7 (the root)
    kids = [[0, 0, 0]] * 3 + [[0, 1, 2]] + [[0, 0, 0]] * 3 + [[3, 4, 5]]
    profile = (((), (), ()), (), ())
    feeds = {x: np.random.default_rng(3).normal(size=(8, 4)).astype(
                 np.float32),
             children: np.array(kids, dtype=np.int32),
             is_leaf: np.array([not k[0] and not k[1] for k in kids]),
             root: 7}
    return graph, runtime, fetches, feeds, (profile,)


MODELS = {
    "treernn": _tree_model(TreeRNNSentiment, SMALL),
    "rntn": _tree_model(RNTNSentiment, SMALL),
    "treelstm": _tree_model(TreeLSTMSentiment,
                            tree_lstm_config(vocab_size=50, hidden=6,
                                             embed_dim=5)),
    "td_treelstm": _td_tree_lstm,
    "sum3": _tree_sum3,
}


def _call_ops(plan) -> dict:
    """Every call-site op reachable from ``plan``, through the bodies
    its descriptors name: ``id(op) -> op``."""
    found, stack, seen = {}, [plan], set()
    while stack:
        plan = stack.pop()
        for op in plan.ops:
            if op.op_type in CALLS and id(op) not in found:
                found[id(op)] = op
                for body in call_site(op).bodies.values():
                    if id(body.subgraph) not in seen:
                        seen.add(id(body.subgraph))
                        stack.append(plan_for(body.subgraph.graph))
    return found


@pytest.mark.parametrize("train", [False, True], ids=["forward", "train"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_dynamic_frames_get_the_descriptors_bindings_and_keys(
        model, train, monkeypatch):
    graph, runtime, fetches, feeds, _ = MODELS[model](train)
    spawned = {}
    real = SchedulerCore.spawn_frame

    def spy(self, subgraph, bindings, key, depth, on_complete, owner):
        op = owner.op
        if op.op_type in CALLS:
            frame = owner.frame
            inputs = [frame.values[s][i]
                      for s, i in frame.plan.input_locs[owner.slot]]
            site = call_site(op)
            role = "main"
            if site.branching:
                role = "true" if bool(np.asarray(inputs[0])) else "false"
            want = site.bind(role, inputs)
            assert subgraph is site.bodies[role].subgraph
            assert bindings.keys() == want.keys()
            assert all(bindings[ph] is want[ph] for ph in want), op.name
            assert key == child_key(frame.key, site.suffix)
            spawned[id(op)] = op
        return real(self, subgraph, bindings, key, depth, on_complete,
                    owner)

    monkeypatch.setattr(SchedulerCore, "spawn_frame", spy)
    session = repro.Session(graph, runtime, num_workers=2, record=train)
    session.run(fetches, feeds)
    sites = _call_ops(plan_for_fetches(graph, {t.op for t in fetches}))
    # every call site of the definition ran, and each was checked
    assert spawned.keys() == sites.keys()
    kinds = {op.op_type for op in sites.values()}
    assert kinds == ({"Invoke", "Cond"} if not train or model == "td_treelstm"
                     else set(CALLS))


@pytest.mark.parametrize("train", [False, True], ids=["forward", "train"])
@pytest.mark.parametrize("model", sorted(set(MODELS) - {"td_treelstm"}))
def test_template_sites_bind_like_the_descriptor(model, train):
    graph, runtime, fetches, feeds, profile = MODELS[model](train)
    plan = plan_for_fetches(graph, {t.op for t in fetches})
    tpl = template_for(graph, plan, train)
    assert isinstance(tpl, Template), tpl
    checked = 0
    for cls in tpl.classes:
        for site in cls.sites:
            kind = "Invoke" if site.family == "fwd" else "InvokeGrad"
            frame, op = next(
                (f, op) for f in cls.frames if f.rel == site.path[:-1]
                for op in f.plan.ops if op.op_type == kind
                and call_site(op).suffix == site.path[-1])
            refs, index_of = frame.refs, frame.plan.index_of
            in_refs = [refs[index_of[t.op.id]][t.index] for t in op.inputs]
            assert site.bind == call_site(op).bind("main", in_refs)
            checked += 1
    assert checked >= len(tpl.root_sites) * (2 if train else 1)
    # and the compiled run it describes matches the dynamic one
    session = repro.Session(graph, runtime, num_workers=2, record=train)
    ref = session.run(fetches, feeds)
    got = session.run(fetches, feeds, shape_profile=profile)
    assert session.last_stats.level_plan_hits == 1
    for a, b in zip(ref, got):
        assert np.array_equal(a, b)
