"""AdaptiveBatchPolicy feedback control."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.runtime.batching import (AdaptiveBatchPolicy, BatchPolicy,
                                    resolve_batching)

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestAdaptiveConvergence:
    def test_min_batch_converges_to_half_stationary_width(self):
        """Stationary flush width W: min_batch_for -> clamp(W/2)."""
        policy = AdaptiveBatchPolicy(max_batch=64)
        for _ in range(60):
            policy.observe("sig", 24, "drain")
        assert policy.min_batch_for("sig") == 12
        state = policy._signatures["sig"]
        assert state.width_ema == pytest.approx(24, abs=0.5)

    def test_min_batch_clamped_to_bounds(self):
        policy = AdaptiveBatchPolicy(max_batch=16)
        for _ in range(60):
            policy.observe("narrow", 2, "drain")
        assert policy.min_batch_for("narrow") == policy.min_batch
        for _ in range(60):
            policy.observe("wide", 500, "full")
        assert policy.min_batch_for("wide") <= policy.max_batch

    @SETTINGS
    @given(widths=st.lists(st.integers(1, 64), min_size=1, max_size=200),
           causes=st.lists(st.sampled_from(["full", "drain"]),
                           min_size=1, max_size=200))
    def test_knobs_always_stay_in_bounds(self, widths, causes):
        """Whatever the observation stream, the tuned knobs stay sane."""
        policy = AdaptiveBatchPolicy()
        for width, cause in zip(widths, causes):
            policy.observe("sig", width, cause)
            assert (policy.min_batch <= policy.min_batch_for("sig")
                    <= policy.max_batch)

    def test_signatures_tuned_independently(self):
        policy = AdaptiveBatchPolicy()
        for _ in range(40):
            policy.observe("hot", 32, "drain")
            policy.observe("cold", 1, "drain")
        assert policy.min_batch_for("hot") > policy.min_batch_for("cold")

    def test_snapshot_exposes_state(self):
        policy = AdaptiveBatchPolicy()
        policy.observe(("MatMul", (), ()), 16, "drain")
        snap = policy.snapshot()
        assert ("MatMul", (), ()) in snap
        state = snap[("MatMul", (), ())]
        assert state["width_ema"] > 0 and state["min_batch"] >= 2
        assert state["flushes"] == 1


class TestResolveBatching:
    def test_bool_passthrough(self):
        assert resolve_batching(False, None) == (False, None)
        enabled, policy = resolve_batching(True, None)
        assert enabled and policy is None

    def test_adaptive_selects_adaptive_policy(self):
        enabled, policy = resolve_batching("adaptive", None)
        assert enabled and isinstance(policy, AdaptiveBatchPolicy)

    def test_adaptive_keeps_explicit_policy(self):
        mine = AdaptiveBatchPolicy(max_batch=8)
        assert resolve_batching("adaptive", mine) == (True, mine)


class TestAdaptiveEndToEnd:
    def test_adaptive_session_bitwise_and_fused(self):
        """batching="adaptive" through a real recursive model: values
        bit-identical, fusion happens, histogram stats populated."""
        from repro.data import make_treebank
        from repro.data.batching import batch_trees
        from repro.models import TreeLSTMSentiment, tree_lstm_config

        bank = make_treebank(num_train=8, num_val=2, vocab_size=40, seed=3)
        model = TreeLSTMSentiment(
            tree_lstm_config(hidden=8, embed_dim=6, vocab_size=40),
            repro.Runtime())
        built = model.build_recursive(4)
        feeds = built.feed_dict(batch_trees(bank.train[:4]))
        ref = repro.Session(built.graph, model.runtime,
                            num_workers=16).run(built.root_logits, feeds)
        sess = repro.Session(built.graph, model.runtime, num_workers=16,
                             batching="adaptive")
        out = sess.run(built.root_logits, feeds)
        assert np.array_equal(ref, out)
        stats = sess.last_stats
        assert stats.batches > 0
        assert stats.batch_width_hist  # per-signature histograms populated
        assert isinstance(sess._engine.batch_policy, AdaptiveBatchPolicy)
        assert sess._engine.batch_policy.snapshot()

    def test_histogram_reporting_renders(self):
        from repro.harness import format_adaptive_policy, format_batch_histogram
        from repro.runtime.stats import RunStats

        stats = RunStats()
        stats.note_batch("MatMul", 8, 0.1, ("MatMul", (), ()))
        stats.note_batch("MatMul", 8, 0.1, ("MatMul", (), ()))
        stats.note_batch("Add", 3, 0.1)
        text = format_batch_histogram(stats)
        assert "MatMul" in text and "w=8" in text and "Add" in text

        policy = AdaptiveBatchPolicy()
        policy.observe(("MatMul", (), ()), 16, "drain")
        rendered = format_adaptive_policy(policy)
        assert "MatMul" in rendered and "width_ema" in rendered
        fixed = format_adaptive_policy(BatchPolicy())
        assert "fixed" in fixed
