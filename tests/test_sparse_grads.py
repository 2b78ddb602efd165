"""Sparse embedding gradients and memory-aware execution.

The contract under test (see ARCHITECTURE.md "Value lifetime"):

* ``GatherGrad`` emits :class:`~repro.graph.sparse.IndexedSlices`
  gradients that are **bit-identical** to the dense scatter on every
  registered executor and on both dispatch tiers (dynamic scheduler and
  compiled level plan) — same losses, same accumulated gradients, same
  variable values after a sparse-apply optimizer step.
* Eager slot release: a frame slot is freed at its last consumer, never
  earlier, and fetched (pinned) slots survive to the end of the run.
* Memory-budgeted scheduling reorders dispatch but never changes values
  or sheds work.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.cache import ROOT_KEY
from repro.data import batch_trees, make_treebank
from repro.graph.sparse import (IndexedSlices, set_sparse_gather_grads,
                                sparse_gather_grads_enabled)
from repro.models import (ModelConfig, TreeLSTMSentiment, TreeRNNSentiment,
                          tree_lstm_config)
from repro.nn import Adagrad, SGD, Trainer
from repro.runtime.engine import EventEngine
from repro.runtime.plan import plan_for_fetches
from repro.runtime.scheduler import available_executors

ENGINES = available_executors()

MODELS = [
    ("treernn", TreeRNNSentiment,
     ModelConfig(vocab_size=50, hidden=8, embed_dim=8)),
    ("treelstm", TreeLSTMSentiment,
     tree_lstm_config(vocab_size=50, hidden=6, embed_dim=5)),
]


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=12, num_val=0, vocab_size=50,
                         max_words=12, mean_log_words=2.2, seed=29)


@pytest.fixture(autouse=True)
def _restore_sparse_mode():
    previous = sparse_gather_grads_enabled()
    yield
    set_sparse_gather_grads(previous)


# -- IndexedSlices unit contract ----------------------------------------------

class TestIndexedSlices:
    def test_from_scatter_equals_dense_scatter(self):
        rng = np.random.default_rng(3)
        for trial in range(8):
            rows, cols, picks = 17, 5, int(rng.integers(1, 40))
            idx = rng.integers(0, rows, size=picks)
            grads = rng.standard_normal((picks, cols)).astype(np.float32)
            dense = np.zeros((rows, cols), np.float32)
            np.add.at(dense, idx, grads)
            sl = IndexedSlices.from_scatter(idx, grads, (rows, cols))
            assert np.unique(sl.indices).size == sl.indices.size
            assert np.array_equal(sl.to_dense(), dense), trial

    def test_from_scatter_casts_to_table_dtype(self):
        sl = IndexedSlices.from_scatter(
            np.array([1, 1]), np.ones((2, 3), np.float64), (4, 3),
            dtype=np.float32)
        assert sl.dtype == np.float32
        assert sl.dense_shape == (4, 3)

    def test_add_sparse_sparse_preserves_order(self):
        a = IndexedSlices(np.array([0, 2]), np.ones((2, 2), np.float32),
                          (4, 2))
        b = IndexedSlices(np.array([2, 3]),
                          np.full((2, 2), 2.0, np.float32), (4, 2))
        combined = a + b
        assert isinstance(combined, IndexedSlices)
        dense = np.zeros((4, 2), np.float32)
        np.add.at(dense, [0, 2], np.ones((2, 2), np.float32))
        np.add.at(dense, [2, 3], np.full((2, 2), 2.0, np.float32))
        assert np.array_equal(combined.to_dense(), dense)
        assert np.array_equal(combined.unique().to_dense(), dense)

    def test_add_with_dense_operands(self):
        sl = IndexedSlices(np.array([1]), np.ones((1, 2), np.float32),
                           (3, 2))
        base = np.full((3, 2), 5.0, np.float32)
        expect = base.copy()
        expect[1] += 1.0
        assert np.array_equal(sl + base, expect)       # sparse + dense
        assert np.array_equal(base + sl, expect)       # dense + sparse
        buf = base.copy()
        sl.add_to(buf)
        assert np.array_equal(buf, expect)

    def test_nbytes_counts_both_arrays(self):
        sl = IndexedSlices(np.zeros(4, np.int64),
                           np.zeros((4, 8), np.float32), (100, 8))
        assert sl.nbytes == 4 * 8 + 4 * 8 * 4


class TestStackedSparseGatherGrad:
    """The columnar sparse ``GatherGrad``: one scalar index per member
    touches one row, so the column is ``from_scatter`` per member
    without its ``unique`` — bit for bit."""

    @pytest.mark.parametrize("g_dtype, table_dtype", [
        (np.float32, np.float32), (np.float16, np.float32),
        (np.float64, np.float32), (np.float32, np.float64)])
    @pytest.mark.parametrize("idx_dtype", [np.int32, np.int64])
    def test_column_equals_from_scatter_per_member(self, g_dtype,
                                                   table_dtype, idx_dtype):
        from repro.graph.registry import op_def
        set_sparse_gather_grads(True)
        defn = op_def("GatherGrad")
        rng = np.random.default_rng(5)
        table = rng.standard_normal((9, 4)).astype(table_dtype)
        for members in (1, 2, 7):
            idx = rng.integers(0, 9, size=members).astype(idx_dtype)
            g = rng.standard_normal((members, 4)).astype(g_dtype)
            (column,) = defn.stacked_kernel(None, [g, idx, table],
                                            (False, False, True), None)
            assert len(column) == members
            for i, got in enumerate(column):
                (want,) = defn.kernel(None, [g[i], idx[i], table], None)
                assert isinstance(got, IndexedSlices)
                assert got.dense_shape == want.dense_shape
                assert got.indices.dtype == want.indices.dtype
                assert got.values.dtype == want.values.dtype == table_dtype
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.values, want.values)

    def test_other_operand_forms_decline_to_the_row_loop(self):
        from repro.graph.registry import op_def
        set_sparse_gather_grads(True)
        stacked = op_def("GatherGrad").stacked_kernel
        table = np.zeros((9, 4), np.float32)
        g = np.ones((3, 2, 4), np.float32)
        idx = np.array([[0, 0], [1, 2], [3, 3]])  # duplicate rows: unique
        assert stacked(None, [g, idx, table], (False, False, True),
                       None) is None
        # per-member tables, a shared index
        assert stacked(None, [g[:, 0], idx[:, 0], np.stack([table] * 3)],
                       (False, False, False), None) is None
        assert stacked(None, [g[:, 0], idx[0, 0], table],
                       (False, True, True), None) is None


# -- sparse-vs-dense equivalence matrix ---------------------------------------

def _train_once(engine, cls, config, trees, sparse, use_profile, workers=4):
    """One recorded forward+backward; returns (loss, grads dict)."""
    set_sparse_gather_grads(sparse)
    runtime = repro.Runtime()
    model = cls(config, runtime)
    built = model.build_recursive(len(trees))
    batch = batch_trees(trees)
    with built.graph.as_default():
        _, updates = repro.gradients(built.loss, [])
    fetches = [built.loss] + [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, runtime, num_workers=workers,
                            engine=engine, record=True)
    runtime.accumulators.zero()
    kwargs = ({"shape_profile": built.shape_profiles(batch)}
              if use_profile else {})
    values = session.run(fetches, built.feed_dict(batch), **kwargs)
    grads = {name: np.copy(runtime.accumulators.read(name))
             for name in runtime.accumulators.names()}
    if use_profile:
        assert session.last_stats.level_plan_hits == 1
        assert session.last_stats.level_plan_fallbacks == 0
    return float(values[0]), grads


def _assert_same_grads(ref, got):
    (ref_loss, ref_grads), (loss, grads) = ref, got
    assert ref_loss == loss
    assert set(grads) == set(ref_grads)
    for name in ref_grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


class TestSparseDenseEquivalence:
    """Bit-identity of sparse GatherGrad across executors × tiers."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("use_profile", [False, True],
                             ids=["dynamic", "level-plan"])
    def test_gradients_identical(self, bank, engine, use_profile):
        name, cls, config = MODELS[1]  # TreeLSTM: embedding-heavy
        dense = _train_once(engine, cls, config, bank.train[:3],
                            sparse=False, use_profile=use_profile)
        sparse = _train_once(engine, cls, config, bank.train[:3],
                             sparse=True, use_profile=use_profile)
        _assert_same_grads(dense, sparse)

    @pytest.mark.parametrize("name,cls,config", MODELS,
                             ids=[m[0] for m in MODELS])
    def test_randomized_trees_identical(self, name, cls, config):
        """Randomized shapes × both models × every executor × both tiers."""
        wide = make_treebank(num_train=16, num_val=0, vocab_size=50,
                             max_words=16, mean_log_words=2.4, seed=31)
        for engine in ENGINES:
            for lo in (0, 8):
                for use_profile in (False, True):
                    trees = wide.train[lo:lo + 3]
                    dense = _train_once(engine, cls, config, trees,
                                        sparse=False,
                                        use_profile=use_profile)
                    sparse = _train_once(engine, cls, config, trees,
                                         sparse=True,
                                         use_profile=use_profile)
                    _assert_same_grads(dense, sparse)

    def test_sparse_mode_accumulates_indexed_slices(self, bank):
        """With sparse mode on, the embedding table's accumulated
        gradient is actually sparse (the whole point) and densifies at
        the explicit ``read(dense=True)`` boundary only."""
        set_sparse_gather_grads(True)
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(
            tree_lstm_config(vocab_size=50, hidden=6, embed_dim=5), runtime)
        built = model.build_recursive(2)
        batch = batch_trees(bank.train[:2])
        with built.graph.as_default():
            _, updates = repro.gradients(built.loss, [])
        session = repro.Session(built.graph, runtime, num_workers=2,
                                record=True)
        runtime.accumulators.zero()
        session.run([built.loss] + [op.outputs[-1] for op in updates],
                    built.feed_dict(batch))
        sparse_names = [
            name for name in runtime.accumulators.names()
            if isinstance(runtime.accumulators.read(name, dense=False),
                          IndexedSlices)]
        assert sparse_names, "no IndexedSlices gradient reached the " \
                             "accumulator — sparse GatherGrad is dead"
        for name in sparse_names:
            sl = runtime.accumulators.read(name, dense=False)
            dense = runtime.accumulators.read(name)
            assert isinstance(dense, np.ndarray)
            assert np.array_equal(sl.to_dense(), dense)
            # far fewer touched rows than the vocab-sized table
            assert sl.indices.size < sl.dense_shape[0]


class TestSparseOptimizerEquivalence:
    """Sparse apply (touched rows only) moves variables bit-identically
    to the dense apply path."""

    def _step(self, bank, sparse_opt, sparse_grads, optimizer_cls,
              engine="event"):
        set_sparse_gather_grads(sparse_grads)
        runtime = repro.Runtime()
        model = TreeLSTMSentiment(
            tree_lstm_config(vocab_size=50, hidden=6, embed_dim=5), runtime)
        built = model.build_recursive(4)
        batch = batch_trees(bank.train[:4])
        trainer = Trainer(built.graph, built.loss,
                          optimizer_cls(0.05, sparse=sparse_opt), runtime,
                          session_kwargs=dict(num_workers=4, engine=engine))
        loss = trainer.step(built.feed_dict(batch))
        return loss, runtime.variables.snapshot()

    @pytest.mark.parametrize("optimizer_cls", [SGD, Adagrad],
                             ids=["sgd", "adagrad"])
    def test_variables_identical_after_step(self, bank, optimizer_cls):
        ref_loss, ref_vars = self._step(bank, sparse_opt=False,
                                        sparse_grads=False,
                                        optimizer_cls=optimizer_cls)
        loss, got_vars = self._step(bank, sparse_opt=True,
                                    sparse_grads=True,
                                    optimizer_cls=optimizer_cls)
        assert ref_loss == loss
        assert set(ref_vars) == set(got_vars)
        for name in ref_vars:
            assert np.array_equal(ref_vars[name], got_vars[name]), name

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sparse_step_identical_across_executors(self, bank, engine):
        ref = self._step(bank, sparse_opt=True, sparse_grads=True,
                         optimizer_cls=Adagrad, engine="event")
        got = self._step(bank, sparse_opt=True, sparse_grads=True,
                         optimizer_cls=Adagrad, engine=engine)
        assert ref[0] == got[0]
        for name in ref[1]:
            assert np.array_equal(ref[1][name], got[1][name]), name


# -- eager slot release --------------------------------------------------------

class TestSlotRelease:
    def _diamond(self, graph):
        """a -> (b, c) -> d: every intermediate has a known last consumer."""
        a = ops.constant(np.ones((16, 16), np.float32), name="a")
        b = ops.add(a, a, name="b")
        c = ops.multiply(a, a, name="c")
        d = ops.add(b, c, name="d")
        return a, b, c, d

    def _run_frame(self, graph, fetch, track=False):
        plan = plan_for_fetches(graph, {fetch.op})
        eng = EventEngine(repro.Runtime(), num_workers=2,
                          track_live_bytes=track)
        frame = eng._make_frame(plan, {}, key=ROOT_KEY, depth=0,
                                record=False,
                                on_complete=lambda f: None, owner=None,
                                pin_locs=((fetch.op.id, fetch.index),))
        eng._start_frame(frame)
        eng._loop()
        return eng, plan, frame

    def test_non_pinned_slots_freed_pinned_survive(self, graph):
        a, b, c, d = self._diamond(graph)
        eng, plan, frame = self._run_frame(graph, d)
        for tensor in (a, b, c):
            slot = plan.index_of[tensor.op.id]
            assert frame.values[slot] is None, tensor.op.name
        out = frame.values[plan.index_of[d.op.id]]
        assert out is not None
        assert np.array_equal(out[0], np.full((16, 16), 3.0, np.float32))

    def test_recording_frames_keep_every_slot(self, graph):
        """record=True disables release: the backward pass may read any
        forward value from the cache."""
        a, b, c, d = self._diamond(graph)
        plan = plan_for_fetches(graph, {d.op})
        eng = EventEngine(repro.Runtime(), num_workers=2, record=True)
        frame = eng._make_frame(plan, {}, key=ROOT_KEY, depth=0,
                                record=True,
                                on_complete=lambda f: None, owner=None,
                                pin_locs=((d.op.id, d.index),))
        assert frame.release_counts is None
        eng._start_frame(frame)
        eng._loop()
        for tensor in (a, b, c, d):
            assert frame.values[plan.index_of[tensor.op.id]] is not None

    def test_live_bytes_unwinds_at_frame_completion(self, graph):
        """After the run, tracked live bytes return to zero — every
        stored value was subtracted either at its release or in the
        frame-completion sweep (the fetch is handed off in
        ``on_complete``) — and the peak saw at least the fetch."""
        a, b, c, d = self._diamond(graph)
        eng, plan, frame = self._run_frame(graph, d, track=True)
        out = frame.values[plan.index_of[d.op.id]][0]
        assert eng.stats.peak_live_bytes >= out.nbytes
        assert eng._live_bytes == 0

    def test_model_run_releases_through_sessions(self, bank):
        """End-to-end: an inference session's fetched values match with
        eager release active (release is unconditional on the
        non-recording path, so equality here certifies no slot was freed
        before its last consumer)."""
        runtime = repro.Runtime()
        model = TreeRNNSentiment(
            ModelConfig(vocab_size=50, hidden=8, embed_dim=8), runtime)
        built = model.build_recursive(3)
        batch = batch_trees(bank.train[:3])
        session = repro.Session(built.graph, runtime, num_workers=4)
        ref = session.run(built.root_logits, built.feed_dict(batch))
        again = session.run(built.root_logits, built.feed_dict(batch))
        assert np.array_equal(ref, again)


# -- memory-budgeted scheduling -----------------------------------------------

class TestMemoryBudget:
    def _run(self, bank, **session_kwargs):
        runtime = repro.Runtime()
        model = TreeRNNSentiment(
            ModelConfig(vocab_size=50, hidden=8, embed_dim=8), runtime)
        built = model.build_recursive(4)
        batch = batch_trees(bank.train[:4])
        with built.graph.as_default():
            _, updates = repro.gradients(built.loss, [])
        fetches = [built.loss] + [op.outputs[-1] for op in updates]
        session = repro.Session(built.graph, runtime, num_workers=4,
                                record=True, **session_kwargs)
        runtime.accumulators.zero()
        values = session.run(fetches, built.feed_dict(batch))
        grads = {name: np.copy(runtime.accumulators.read(name))
                 for name in runtime.accumulators.names()}
        return values, grads, session.last_stats

    def test_budget_reorders_but_never_changes_values(self, bank):
        ref_values, ref_grads, ref_stats = self._run(bank)
        # a tiny budget keeps the scheduler permanently "over budget":
        # every dispatch takes the deepest-first path
        values, grads, stats = self._run(bank, memory_budget=1,
                                         track_live_bytes=True)
        assert stats.ops_executed == ref_stats.ops_executed  # no shedding
        assert float(values[0]) == float(ref_values[0])
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    def test_peak_live_bytes_only_when_tracking(self, bank):
        _, _, untracked = self._run(bank)
        assert untracked.peak_live_bytes == 0
        _, _, tracked = self._run(bank, track_live_bytes=True)
        assert tracked.peak_live_bytes > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_budget_accepted_by_every_executor(self, bank, engine):
        """memory_budget is a SchedulerCore knob: every backend accepts
        it and still produces the reference loss."""
        ref_values, ref_grads, _ = self._run(bank)
        values, grads, _ = self._run(bank, engine=engine,
                                     memory_budget=1 << 20,
                                     track_live_bytes=True)
        assert float(values[0]) == float(ref_values[0])
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name]), name
