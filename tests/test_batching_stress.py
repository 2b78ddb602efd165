"""Concurrency stress tests for the coalescing schedulers.

Real threads (workerpool), deep recursion near the configured
``max_depth``, and many concurrent root instances — the situations where
a flush-policy bug shows up as nondeterminism or deadlock.  Every test carries a ``timeout``
watchdog (see conftest) so a deadlock fails fast instead of hanging.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.models import TreeRNNSentiment
from repro.models.common import ModelConfig

pytestmark = pytest.mark.stress

WORKER_COUNTS = (1, 2, 8)


def _chain_subgraph(name="deep_chain"):
    """f(x, n) = x + n + (n-1) + ... + 1, one frame per level."""
    with SubGraph(name) as sg:
        x = sg.input(repro.float32, ())
        n = sg.input(repro.int32, ())
        sg.declare_outputs([(repro.float32, ())])
        sg.output(ops.cond(
            ops.less_equal(n, 0),
            lambda: ops.identity(x),
            lambda: ops.add(ops.cast(n, repro.float32), sg(x, n - 1))))
    return sg


class TestDeepRecursionThreaded:
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_deep_chain_near_max_depth(self, workers):
        """Recursion within a few frames of the limit completes and is
        exact for every worker count, batched and unbatched."""
        depth = 120
        graph = repro.Graph("deep")
        runtime = repro.Runtime()
        with graph.as_default():
            sg = _chain_subgraph(f"chain_w{workers}")
            y = sg(ops.constant(2.5), ops.constant(depth))
        expected = 2.5 + depth * (depth + 1) / 2
        # each recursion level spawns an Invoke frame *and* a Cond branch
        # frame, so the frame depth is ~2 levels per call
        for batching in (False, True):
            sess = repro.Session(graph, runtime, num_workers=workers,
                                 engine="workerpool", batching=batching,
                                 max_depth=2 * depth + 12)
            assert sess.run(y) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.timeout(60)
    def test_depth_guard_still_fires_when_batched(self):
        graph = repro.Graph("deep_guard")
        runtime = repro.Runtime()
        with graph.as_default():
            sg = _chain_subgraph("chain_guard")
            y = sg(ops.constant(0.0), ops.constant(100))
        sess = repro.Session(graph, runtime, num_workers=2,
                             engine="workerpool", batching=True, max_depth=20)
        with pytest.raises(repro.EngineError, match="recursion limit"):
            sess.run(y)


class TestConcurrentRootsThreaded:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_many_concurrent_instances_deterministic(self, workers):
        """16 concurrent tree roots on real threads: values equal the
        virtual-time reference bit-for-bit, run after run."""
        bank = make_treebank(num_train=16, num_val=2, vocab_size=50, seed=23)
        model = TreeRNNSentiment(ModelConfig(hidden=12, embed_dim=12,
                                             vocab_size=50), repro.Runtime())
        built = model.build_recursive(16)
        feeds = built.feed_dict(batch_trees(bank.train[:16]))
        ref = repro.Session(built.graph, model.runtime,
                            num_workers=36).run(built.root_logits, feeds)
        for attempt in range(3):
            sess = repro.Session(built.graph, model.runtime,
                                 num_workers=workers, engine="workerpool",
                                 batching=True)
            out = sess.run(built.root_logits, feeds)
            assert np.array_equal(ref, out), \
                f"workers={workers} attempt={attempt} diverged"

    @pytest.mark.timeout(120)
    def test_event_and_workerpool_agree_under_stress(self):
        """Virtual-time and wall-clock engines agree bit-for-bit with
        batching on, across scheduler policies."""
        bank = make_treebank(num_train=12, num_val=2, vocab_size=40, seed=31)
        model = TreeRNNSentiment(ModelConfig(hidden=8, embed_dim=8,
                                             vocab_size=40), repro.Runtime())
        built = model.build_recursive(8)
        feeds = built.feed_dict(batch_trees(bank.train[:8]))
        results = []
        for engine, workers, scheduler in (("event", 36, "fifo"),
                                           ("event", 36, "depth"),
                                           ("workerpool", 4, "fifo")):
            kwargs = {} if engine == "workerpool" else \
                {"scheduler": scheduler}
            sess = repro.Session(built.graph, model.runtime,
                                 num_workers=workers, engine=engine,
                                 batching=True, **kwargs)
            results.append(sess.run(built.root_logits, feeds))
        for other in results[1:]:
            assert np.array_equal(results[0], other)
