"""Independent numerical oracles: both executors, every tier, are *right*.

Bit-identity between backends proves they agree with each other; these
tests check each one against a computation that shares none of the
scheduler, batching or level-plan code:

* the tree sentiment models against :class:`repro.baselines.FoldingExecutor`,
  which runs the cells' plain-numpy twins level by level (loss, root
  logits and every parameter gradient);
* a Figure-1 style array-backed recursive reduction against a plain
  Python recursion over the same generated trees.

Each check runs on every registered executor and on each execution tier:
``dynamic`` (one kernel per instance), ``batched`` (the dynamic
scheduler with signature coalescing) and ``level-plan`` (the compiled
sweep, admitted through a shape profile).
"""

import numpy as np
import pytest

import repro
from repro import ops
from repro.baselines import FoldingExecutor
from repro.core.subgraph import SubGraph
from repro.data import Tree, batch_trees, build_shape, make_treebank
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)
from repro.runtime.scheduler import available_executors

ENGINES = available_executors()
TIERS = ["dynamic", "batched", "level-plan"]

MODELS = {
    "treernn": (TreeRNNSentiment,
                ModelConfig(vocab_size=40, hidden=6, embed_dim=6)),
    "rntn": (RNTNSentiment,
             ModelConfig(vocab_size=40, hidden=5, embed_dim=5)),
    "treelstm": (TreeLSTMSentiment,
                 tree_lstm_config(vocab_size=40, hidden=5, embed_dim=4)),
}


@pytest.fixture(scope="module")
def trees():
    bank = make_treebank(num_train=3, num_val=0, vocab_size=40,
                         max_words=10, mean_log_words=2.0, seed=5)
    return bank.train


def _run_tier(session, fetches, feeds, tier, profile):
    """Run ``fetches`` on ``tier``; assert the tier was really taken."""
    kwargs = {"shape_profile": profile} if tier == "level-plan" else {}
    values = session.run(fetches, feeds, **kwargs)
    stats = session.last_stats
    if tier == "level-plan":
        assert stats.level_plan_hits == 1
        assert stats.level_plan_fallbacks == 0
    else:
        assert stats.level_plan_hits == 0
    if tier == "batched":
        assert stats.batches > 0
    return values


def _model_under_test(name, trees, engine, tier, train):
    """Build ``name`` fresh, run it on ``tier``; return the model and
    ``(loss, root_logits, grads)``."""
    cls, config = MODELS[name]
    runtime = repro.Runtime()
    model = cls(config, runtime)
    built = model.build_recursive(len(trees))
    batch = batch_trees(trees)
    fetches = [built.loss, built.root_logits]
    if train:
        with built.graph.as_default():
            _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, runtime, num_workers=3,
                            engine=engine, record=train,
                            batching=tier == "batched")
    runtime.accumulators.zero()
    values = _run_tier(session, fetches, built.feed_dict(batch), tier,
                       built.shape_profiles(batch))
    grads = {n: np.array(runtime.accumulators.read(n))
             for n in runtime.accumulators.names()} if train else {}
    return model, (values[0], values[1], grads)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", list(MODELS))
class TestModelOracle:
    @pytest.mark.timeout(120)
    def test_forward_matches_numpy_oracle(self, trees, name, engine, tier):
        model, (loss, logits, _) = _model_under_test(name, trees, engine,
                                                     tier, train=False)
        ref_loss, ref_logits, _, _ = FoldingExecutor(model).forward(
            batch_trees(trees))
        assert float(loss) == pytest.approx(ref_loss, abs=1e-5)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-5,
                                   atol=1e-6)

    @pytest.mark.timeout(120)
    def test_gradients_match_numpy_oracle(self, trees, name, engine, tier):
        model, (loss, _, grads) = _model_under_test(name, trees, engine,
                                                    tier, train=True)
        fold = FoldingExecutor(model)
        ref_loss, _, state, _ = fold.forward(batch_trees(trees))
        ref_grads, _ = fold.backward(state)
        assert float(loss) == pytest.approx(ref_loss, abs=1e-5)
        # every parameter the oracle differentiates got a gradient
        assert set(ref_grads) <= set(grads)
        for param, ref in ref_grads.items():
            np.testing.assert_allclose(grads[param], ref, atol=1e-5,
                                       err_msg=param)


# -- array-backed recursion vs plain Python ----------------------------------

SHAPES = ["natural", "balanced", "moderate", "linear"]


def _reduction_graph():
    """``f(i) = v[i]`` at a leaf, ``0.5 f(l) + tanh(f(r) + v[i])``
    inside: a non-associative reduction, so evaluation order matters."""
    graph = repro.Graph("oracle_reduce")
    with graph.as_default():
        values = ops.placeholder(repro.float32, (None,), "values")
        children = ops.placeholder(repro.int32, (None, 2), "children")
        is_leaf = ops.placeholder(repro.bool_, (None,), "is_leaf")
        root = ops.placeholder(repro.int32, (), "root")
        half = ops.constant(np.float32(0.5))
        with SubGraph("reduce") as reduce:
            idx = reduce.input(repro.int32, ())
            reduce.declare_outputs([(repro.float32, ())])

            def leaf():
                return ops.gather(values, idx)

            def internal():
                pair = ops.gather(children, idx)
                left = reduce(ops.gather(pair, 0))
                right = reduce(ops.gather(pair, 1))
                return ops.add(ops.multiply(left, half),
                               ops.tanh(ops.add(right,
                                                ops.gather(values, idx))))

            reduce.output(ops.cond(ops.gather(is_leaf, idx), leaf,
                                   internal))
        out = reduce(root)
    return graph, (values, children, is_leaf, root), out


def _python_reduction(node, value_of):
    if node.is_leaf:
        return float(value_of[id(node)])
    left = _python_reduction(node.left, value_of)
    right = _python_reduction(node.right, value_of)
    return 0.5 * left + float(np.tanh(right + value_of[id(node)]))


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.timeout(60)
def test_recursive_reduction_matches_python(shape, engine, tier):
    rng = np.random.default_rng(SHAPES.index(shape))
    words = [int(w) for w in rng.integers(0, 30, size=11)]
    tree = Tree(build_shape(words, shape, rng))
    arrays = tree.to_arrays()
    node_values = rng.standard_normal(arrays.num_nodes).astype(np.float32)
    order = list(tree.root.post_order())
    value_of = {id(node): node_values[i] for i, node in enumerate(order)}

    graph, (values, children, is_leaf, root), out = _reduction_graph()
    feeds = {values: node_values, children: arrays.children,
             is_leaf: arrays.is_leaf, root: np.int32(arrays.root)}
    session = repro.Session(graph, repro.Runtime(), num_workers=3,
                            engine=engine, batching=tier == "batched")
    got = _run_tier(session, out, feeds, tier, (tree.shape_profile,))
    want = _python_reduction(tree.root, value_of)
    assert float(got) == pytest.approx(want, rel=1e-5, abs=1e-6)
