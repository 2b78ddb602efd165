"""Training-path micro-batching: batched backward pass equivalence.

The contract under test (the training analogue of ``test_batching.py``):
running a full training step with ``batching=True`` / ``"adaptive"`` must
produce **bit-identical** losses and accumulated gradients to unbatched
execution, on both engines, while actually fusing backward work —
``InvokeGrad`` frame spawns, ``CacheLookup`` bulk cache reads and the
gradient-body kernels.  Bit-identity of the gradients rests on two
mechanisms: value-preserving batched kernels (forward and backward values
are identical) and the canonical frame-key ordering of
``GradientAccumulator`` sums.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.models import (RNTNSentiment, TreeLSTMSentiment, tree_lstm_config)
from repro.models.common import ModelConfig
from repro.nn.optimizers import Adagrad
from repro.nn.trainer import Trainer

MODEL_SETUPS = {
    "TreeLSTM": (TreeLSTMSentiment,
                 lambda: tree_lstm_config(hidden=8, embed_dim=6,
                                          vocab_size=40)),
    "RNTN": (RNTNSentiment,
             lambda: ModelConfig(hidden=6, embed_dim=6, vocab_size=40)),
}


def _training_setup(model_key, batch_size=3, seed=23):
    cls, config_fn = MODEL_SETUPS[model_key]
    config = config_fn()
    runtime = repro.Runtime()
    model = cls(config, runtime)
    bank = make_treebank(num_train=max(4, batch_size), num_val=2,
                         vocab_size=config.vocab_size, seed=seed)
    built = model.build_recursive(batch_size)
    feeds = built.feed_dict(batch_trees(bank.train[:batch_size]))
    return model, built, feeds


def _grad_step(model, built, feeds, **session_kwargs):
    """One forward+backward phase; returns (loss, grads dict, stats)."""
    model.runtime.accumulators.zero()
    _, updates = repro.gradients(built.loss, [])
    fetches = [built.loss] + [op.outputs[-1] for op in updates]
    sess = repro.Session(built.graph, model.runtime, num_workers=8,
                         record=True, **session_kwargs)
    loss = float(sess.run(fetches, feeds)[0])
    grads = {name: np.array(model.runtime.accumulators.read(name))
             for name in model.runtime.accumulators.names()}
    return loss, grads, sess.last_stats


class TestBitIdenticalTraining:
    """Losses and gradients match unbatched execution bit for bit."""

    @pytest.mark.parametrize("model_key", sorted(MODEL_SETUPS))
    @pytest.mark.parametrize("mode", [True, "adaptive"])
    def test_event_engine(self, model_key, mode):
        model, built, feeds = _training_setup(model_key)
        ref_loss, ref_grads, ref_stats = _grad_step(model, built, feeds,
                                                    batching=False)
        assert ref_stats.batches == 0
        loss, grads, stats = _grad_step(model, built, feeds, batching=mode)
        assert stats.batches > 0
        assert loss == ref_loss  # losses are forward values: exact
        assert sorted(grads) == sorted(ref_grads)
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), \
                f"gradient of {name} not bit-identical under batching"

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("model_key", sorted(MODEL_SETUPS))
    def test_workerpool_engine(self, model_key):
        model, built, feeds = _training_setup(model_key, batch_size=2)
        ref_loss, ref_grads, _ = _grad_step(model, built, feeds,
                                            batching=False)
        loss, grads, stats = _grad_step(model, built, feeds,
                                        engine="workerpool", batching=True)
        assert stats.batches > 0
        assert loss == ref_loss
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), \
                f"gradient of {name} differs between engines"

    def test_backward_work_actually_fuses(self):
        """The new training-path fusions really happen: gradient frames,
        cache lookups and backward-body kernels all appear as batches."""
        model, built, feeds = _training_setup("TreeLSTM", batch_size=4)
        _, _, stats = _grad_step(model, built, feeds, batching=True)
        assert "CacheLookup" in stats.batch_count_by_type
        assert "InvokeGrad" in stats.batch_count_by_type
        assert "GatherGrad" in stats.batch_count_by_type

    def test_full_step_and_convergence_parity(self):
        """Multi-step training: parameters evolve identically (bitwise)
        whether or not the coalescing scheduler is on."""
        histories = {}
        for mode in (False, "adaptive"):
            model, built, feeds = _training_setup("RNTN", batch_size=2)
            trainer = Trainer(built.graph, built.loss, Adagrad(0.05),
                              model.runtime,
                              session_kwargs=dict(num_workers=8),
                              batching=mode)
            losses = [trainer.step(feeds) for _ in range(3)]
            params = {v.name: np.array(v.value()) for v in model.variables}
            histories[mode] = (losses, params)
        losses_ref, params_ref = histories[False]
        losses_mb, params_mb = histories["adaptive"]
        assert losses_ref == losses_mb
        for name in params_ref:
            assert np.array_equal(params_ref[name], params_mb[name])


class TestFiniteDifference:
    """Independent validation: FD of the loss vs batched-training grads."""

    @pytest.mark.parametrize("engine", ["event", "workerpool"])
    def test_fd_matches_batched_gradients(self, engine):
        model, built, feeds = _training_setup("TreeLSTM", batch_size=2,
                                              seed=31)
        _, grads, _ = _grad_step(model, built, feeds, engine=engine,
                                 batching=True)
        loss_sess = repro.Session(built.graph, model.runtime, num_workers=8,
                                  record=False, batching=True, engine=engine)
        rng = np.random.default_rng(7)
        eps = 1e-3
        checked = 0
        for var in model.variables:
            base = np.array(model.runtime.variables.read(var.name))
            flat = base.reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size),
                                  replace=False):
                for sign, store in ((+1, "plus"), (-1, "minus")):
                    bumped = flat.copy()
                    bumped[idx] += sign * eps
                    model.runtime.variables.write(
                        var.name, bumped.reshape(base.shape))
                    if store == "plus":
                        l_plus = float(loss_sess.run(built.loss, feeds))
                    else:
                        l_minus = float(loss_sess.run(built.loss, feeds))
                model.runtime.variables.write(var.name, base)
                numeric = (l_plus - l_minus) / (2 * eps)
                analytic = float(grads[var.name].reshape(-1)[idx])
                assert numeric == pytest.approx(analytic, rel=5e-2,
                                                abs=5e-4), \
                    f"{var.name}[{idx}]: fd={numeric} vs grad={analytic}"
                checked += 1
        assert checked >= 10


class TestTrainerKnob:
    """The ``batching=`` knob on the Trainer plumbs through correctly."""

    def test_trainer_batching_flag(self):
        model, built, feeds = _training_setup("RNTN", batch_size=2)
        trainer = Trainer(built.graph, built.loss, Adagrad(0.05),
                          model.runtime,
                          session_kwargs=dict(num_workers=8),
                          batching=True)
        trainer.step(feeds)
        assert trainer.last_step_stats.batches > 0

    def test_trainer_adaptive_policy_persists_across_steps(self):
        from repro.runtime.batching import AdaptiveBatchPolicy
        model, built, feeds = _training_setup("RNTN", batch_size=2)
        trainer = Trainer(built.graph, built.loss, Adagrad(0.05),
                          model.runtime,
                          session_kwargs=dict(num_workers=8),
                          batching="adaptive")
        policy = trainer.session._engine.batch_policy
        assert isinstance(policy, AdaptiveBatchPolicy)
        trainer.step(feeds)
        flushes_after_one = sum(s.flushes
                                for s in policy._signatures.values())
        assert flushes_after_one > 0
        trainer.step(feeds)
        assert policy is trainer.session._engine.batch_policy
        assert (sum(s.flushes for s in policy._signatures.values())
                > flushes_after_one)

    def test_trainer_explicit_policy_implies_batching(self):
        model, built, feeds = _training_setup("RNTN", batch_size=2)
        trainer = Trainer(built.graph, built.loss, Adagrad(0.05),
                          model.runtime,
                          session_kwargs=dict(num_workers=8),
                          batch_policy=repro.BatchPolicy(max_batch=8))
        trainer.step(feeds)
        assert trainer.last_step_stats.batches > 0
        assert trainer.last_step_stats.max_batch <= 8
