"""Cross-instance dynamic micro-batching: equivalence, bucketing, policy.

The contract under test: running any graph with ``batching=True`` must
produce outputs *bit-for-bit identical* to the unbatched engines while
actually fusing work (stats record fused kernel calls), and the
coalescing machinery (signatures, buckets, flush policy) must behave per
:mod:`repro.runtime.batching`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import ops
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.harness import compare_batching
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)
from repro.runtime.batching import (BatchPolicy, Bucket, Coalescer,
                                    batch_signature)
from repro.runtime.cost_model import unit_cost

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

MODEL_FACTORIES = {
    "TreeRNN": lambda rt: TreeRNNSentiment(ModelConfig(hidden=16,
                                                       embed_dim=16,
                                                       vocab_size=60), rt),
    "RNTN": lambda rt: RNTNSentiment(ModelConfig(hidden=12, embed_dim=12,
                                                 vocab_size=60), rt),
    "TreeLSTM": lambda rt: TreeLSTMSentiment(
        tree_lstm_config(hidden=16, embed_dim=8, vocab_size=60), rt),
}
ALL_MODELS = sorted(MODEL_FACTORIES)


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=24, num_val=4, vocab_size=60, seed=11)


def _recursive_setup(model_name, bank, batch_size):
    model = MODEL_FACTORIES[model_name](repro.Runtime())
    built = model.build_recursive(batch_size)
    batch = batch_trees(bank.train[:batch_size])
    return model, built, built.feed_dict(batch)


# -- equivalence across engines ------------------------------------------------

class TestEquivalence:
    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_event_engine_bitwise(self, model_name, bank):
        model, built, feeds = _recursive_setup(model_name, bank, 4)
        fetches = [built.root_logits, built.loss]
        plain = repro.Session(built.graph, model.runtime, num_workers=36)
        ref_logits, ref_loss = plain.run(fetches, feeds)
        assert plain.last_stats.batches == 0

        batched = repro.Session(built.graph, model.runtime, num_workers=36,
                                batching=True)
        logits, loss = batched.run(fetches, feeds)
        assert batched.last_stats.batches > 0
        assert np.array_equal(ref_logits, logits)
        assert np.array_equal(np.asarray(ref_loss), np.asarray(loss))

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_workerpool_engine_bitwise(self, model_name, bank):
        model, built, feeds = _recursive_setup(model_name, bank, 4)
        ref = repro.Session(built.graph, model.runtime,
                            num_workers=36).run(built.root_logits, feeds)
        sess = repro.Session(built.graph, model.runtime, num_workers=4,
                             engine="workerpool", batching=True)
        out = sess.run(built.root_logits, feeds)
        assert np.array_equal(ref, out)
        assert sess.last_stats.batches > 0

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           batch_size=st.integers(min_value=1, max_value=6))
    def test_random_trees_bitwise(self, bank, seed, batch_size):
        """Random tree subsets: batched == unbatched, bit for bit."""
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(bank.train), size=batch_size, replace=False)
        model = MODEL_FACTORIES["TreeRNN"](repro.Runtime())
        built = model.build_recursive(batch_size)
        feeds = built.feed_dict(batch_trees([bank.train[i] for i in idx]))
        ref = repro.Session(built.graph, model.runtime,
                            num_workers=8).run(built.root_logits, feeds)
        out = repro.Session(built.graph, model.runtime, num_workers=8,
                            batching=True).run(built.root_logits, feeds)
        assert np.array_equal(ref, out)

    def test_run_level_batching_override(self, bank):
        """``Session.run(batching=...)`` flips the mode per call."""
        model, built, feeds = _recursive_setup("TreeRNN", bank, 2)
        sess = repro.Session(built.graph, model.runtime, num_workers=8)
        ref = sess.run(built.root_logits, feeds)
        assert sess.last_stats.batches == 0
        out = sess.run(built.root_logits, feeds, batching=True)
        assert sess.last_stats.batches > 0
        assert np.array_equal(ref, out)

    def test_serving_comparison_bitwise_and_fused(self, bank):
        model = MODEL_FACTORIES["TreeLSTM"](repro.Runtime())
        unbatched, batched = compare_batching(model, bank.train, 8,
                                              num_workers=36, waves=1,
                                              seed=5)
        assert np.array_equal(unbatched.logits, batched.logits)
        assert batched.stats.batches > 0
        assert unbatched.stats.batches == 0


# -- the throughput claim ------------------------------------------------------

class TestThroughput:
    def test_serving_speedup_at_32_concurrent_trees(self, bank):
        """The acceptance bar: >= 2x batched speedup at concurrency 32."""
        model = MODEL_FACTORIES["TreeLSTM"](repro.Runtime())
        unbatched, batched = compare_batching(model, bank.train, 32,
                                              num_workers=36, waves=1,
                                              seed=7)
        assert np.array_equal(unbatched.logits, batched.logits)
        speedup = batched.throughput / unbatched.throughput
        assert speedup >= 2.0, f"only {speedup:.2f}x at concurrency 32"
        # cross-instance fusion really happened, at substantial widths
        assert batched.stats.max_batch >= 16

    def test_deterministic_virtual_time(self, bank):
        """The batched event engine stays a deterministic simulator."""
        model, built, feeds = _recursive_setup("TreeRNN", bank, 4)
        times = set()
        for _ in range(3):
            sess = repro.Session(built.graph, model.runtime, num_workers=36,
                                 batching=True)
            sess.run(built.root_logits, feeds)
            times.add(round(sess.last_stats.virtual_time, 12))
        assert len(times) == 1


# -- batch signatures ----------------------------------------------------------

def _sig_of(graph_fn, inputs):
    """Build a tiny graph, return the signature of its single op."""
    graph = repro.Graph("sig")
    with graph.as_default():
        out = graph_fn()
    return batch_signature(out.op, inputs)


class TestBatchSignature:
    def test_same_shape_same_signature(self):
        a = np.zeros((2, 3), np.float32)
        s1 = _sig_of(lambda: ops.tanh(ops.placeholder(repro.float32)), [a])
        s2 = _sig_of(lambda: ops.tanh(ops.placeholder(repro.float32)),
                     [np.ones((2, 3), np.float32)])
        assert s1 is not None and s1 == s2

    @SETTINGS
    @given(r1=st.integers(min_value=1, max_value=4),
           c1=st.integers(min_value=1, max_value=4),
           r2=st.integers(min_value=1, max_value=4),
           c2=st.integers(min_value=1, max_value=4))
    def test_signature_distinguishes_shapes(self, r1, c1, r2, c2):
        x = np.zeros((r1, c1), np.float32)
        y = np.zeros((r2, c2), np.float32)
        builder = lambda: ops.tanh(ops.placeholder(repro.float32))
        same = _sig_of(builder, [x]) == _sig_of(builder, [y])
        assert same == ((r1, c1) == (r2, c2))

    def test_signature_distinguishes_dtypes_and_types(self):
        builder = lambda: ops.tanh(ops.placeholder(repro.float32))
        f32 = _sig_of(builder, [np.zeros(3, np.float32)])
        f64 = _sig_of(builder, [np.zeros(3, np.float64)])
        pyf = _sig_of(builder, [3.0])
        assert len({f32, f64, pyf}) == 3

    def test_signature_includes_batch_attrs(self):
        x = np.zeros((2, 2), np.float32)
        c0 = _sig_of(lambda: ops.concat(
            [ops.placeholder(repro.float32, (2, 2)),
             ops.placeholder(repro.float32, (2, 2))], axis=0), [x, x])
        c1 = _sig_of(lambda: ops.concat(
            [ops.placeholder(repro.float32, (2, 2)),
             ops.placeholder(repro.float32, (2, 2))], axis=1), [x, x])
        assert c0 != c1

    def test_unbatchable_ops_have_no_signature(self):
        # stateful (ReadVariable) and async (Invoke) ops never batch
        runtime = repro.Runtime()
        graph = repro.Graph("sig")
        with graph.as_default():
            v = repro.Variable("sig_v", np.float32(1.0), runtime=runtime)
            read = v.read()
        assert batch_signature(read.op, []) is None


# -- coalescer policy ----------------------------------------------------------

class _FakeInstance:
    def __init__(self, op_type="Tanh"):
        self.op = type("Op", (), {"op_type": op_type})()


class TestCoalescer:
    def test_full_bucket_is_returned_and_removed(self):
        co = Coalescer(BatchPolicy(max_batch=3))
        full = None
        for i in range(3):
            assert full is None
            full = co.offer("sig", _FakeInstance(), [i])
        assert isinstance(full, Bucket)
        assert len(full) == 3
        assert full.inputs == [[0], [1], [2]]       # arrival order kept
        assert len(co) == 0

    @SETTINGS
    @given(n=st.integers(min_value=1, max_value=40),
           cap=st.integers(min_value=1, max_value=8))
    def test_bucketing_partitions_offers(self, n, cap):
        """N same-signature offers yield floor(N/cap) full buckets plus a
        remainder bucket; nothing is lost or duplicated."""
        co = Coalescer(BatchPolicy(max_batch=cap))
        full_sizes = []
        for i in range(n):
            full = co.offer("sig", _FakeInstance(), [i])
            if full is not None:
                full_sizes.append(len(full))
        assert full_sizes == [cap] * (n // cap)
        assert len(co) == n % cap
        rest = co.pop()
        if n % cap:
            assert len(rest) == n % cap
        else:
            assert rest is None

    def test_pop_is_fifo_over_buckets(self):
        co = Coalescer(BatchPolicy(max_batch=10))
        co.offer("a", _FakeInstance(), [1])
        co.offer("b", _FakeInstance(), [2])
        co.offer("a", _FakeInstance(), [3])
        assert co.pop().signature == "a"
        assert co.pop().signature == "b"
        assert co.pop() is None

    def test_popping_all_buckets_returns_everything(self):
        co = Coalescer(BatchPolicy(max_batch=10))
        for sig in ("a", "b", "a", "c"):
            co.offer(sig, _FakeInstance(), [sig])
        buckets = []
        while (bucket := co.pop()) is not None:
            buckets.append(bucket)
        assert sorted(b.signature for b in buckets) == ["a", "b", "c"]
        assert sum(len(b) for b in buckets) == 4
        assert len(co) == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(min_batch=1)  # a batch of one is scalar execution


# -- scheduler accounting ------------------------------------------------------

class TestBatchedScheduling:
    def test_unit_cost_fused_makespan(self, runtime):
        """8 identical ready tanh ops on one worker: unbatched costs 8
        virtual seconds, fused costs 1 (one batch = one unit kernel)."""
        graph = repro.Graph("fuse")
        with graph.as_default():
            x = ops.placeholder(repro.float32, (2,))
            outs = [ops.tanh(ops.multiply(x, float(i + 1)))
                    for i in range(8)]
            total = outs[0]
            for o in outs[1:]:
                total = ops.add(total, o)
        feeds = {x: np.ones(2, np.float32)}

        plain = repro.Session(graph, runtime, num_workers=1,
                              cost_model=unit_cost())
        ref = plain.run(total, feeds)
        t_plain = plain.last_stats.virtual_time

        fused = repro.Session(graph, runtime, num_workers=1,
                              cost_model=unit_cost(), batching=True)
        out = fused.run(total, feeds)
        assert np.array_equal(ref, out)
        assert fused.last_stats.batches > 0
        assert fused.last_stats.virtual_time < t_plain

    def test_batch_stats_accounting(self, bank):
        model, built, feeds = _recursive_setup("TreeLSTM", bank, 6)
        sess = repro.Session(built.graph, model.runtime, num_workers=36,
                             batching=True)
        sess.run(built.root_logits, feeds)
        stats = sess.last_stats
        assert stats.batched_ops >= 2 * stats.batches  # min_batch >= 2
        assert 2.0 <= stats.batch_efficiency <= stats.max_batch
        assert "MatMul" in stats.batch_count_by_type
        assert "Gather" in stats.batch_count_by_type

    def test_max_batch_cap_respected(self, bank):
        model, built, feeds = _recursive_setup("TreeRNN", bank, 6)
        sess = repro.Session(built.graph, model.runtime, num_workers=36,
                             batching=True,
                             batch_policy=repro.BatchPolicy(max_batch=4))
        out = sess.run(built.root_logits, feeds)
        assert sess.last_stats.max_batch <= 4
        ref = repro.Session(built.graph, model.runtime,
                            num_workers=36).run(built.root_logits, feeds)
        assert np.array_equal(ref, out)

    def test_batching_composes_with_depth_scheduler(self, bank):
        model, built, feeds = _recursive_setup("TreeRNN", bank, 4)
        ref = repro.Session(built.graph, model.runtime,
                            num_workers=36).run(built.root_logits, feeds)
        sess = repro.Session(built.graph, model.runtime, num_workers=36,
                             scheduler="depth", batching=True)
        out = sess.run(built.root_logits, feeds)
        assert np.array_equal(ref, out)
