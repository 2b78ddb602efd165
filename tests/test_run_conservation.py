"""A finished ``run`` leaves nothing behind.

``Session.run`` is a one-request serving session: its root is admitted
like a served request and the backend runs until that root completes.
Whatever the run took — the dynamic tier, the compiled tier, a profile
that fell back, or a kernel fault — it must return the executor to an
idle state:

* no root is still counted open, and no compiled root is still pending;
* no executor thread is left, and the process thread count is back
  where it started;
* with live-bytes tracking on, every byte a successful run booked was
  released again.
"""

import threading

import pytest

import repro
from repro.data import batch_trees, make_treebank
from repro.graph.registry import op_def
from repro.models import ModelConfig, TreeRNNSentiment
from repro.runtime.scheduler import available_executors

CASES = ["dynamic", "compiled", "fallback", "failed-dynamic",
         "failed-compiled"]


@pytest.fixture(scope="module")
def trees():
    return make_treebank(num_train=2, num_val=0, vocab_size=40,
                         max_words=9, mean_log_words=2.0, seed=13).train


def _break_tanh(monkeypatch):
    definition = op_def("Tanh")

    def boom(*args):
        raise RuntimeError("injected Tanh fault")

    for entry in ("kernel", "batched_kernel", "stacked_kernel"):
        if getattr(definition, entry) is not None:
            monkeypatch.setattr(definition, entry, boom)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("train", [False, True], ids=["forward", "train"])
@pytest.mark.parametrize("engine", available_executors())
@pytest.mark.timeout(60)
def test_run_returns_the_executor_to_idle(trees, engine, train, case,
                                          monkeypatch):
    runtime = repro.Runtime()
    built = TreeRNNSentiment(
        ModelConfig(vocab_size=40, hidden=6, embed_dim=6),
        runtime).build_recursive(len(trees))
    fetches = [built.loss, built.root_logits]
    if train:
        with built.graph.as_default():
            _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    batch = batch_trees(trees)
    profile = built.shape_profiles(batch)
    session = repro.Session(built.graph, runtime, num_workers=3,
                            engine=engine, record=train,
                            track_live_bytes=True)
    core = session._engine
    kwargs = {"dynamic": {}, "failed-dynamic": {},
              "compiled": {"shape_profile": profile},
              "failed-compiled": {"shape_profile": profile},
              "fallback": {"shape_profile": profile + profile}}[case]
    threads = threading.active_count()

    if case.startswith("failed"):
        _break_tanh(monkeypatch)
        with pytest.raises(repro.EngineError, match="injected Tanh fault"):
            session.run(fetches, built.feed_dict(batch), **kwargs)
    else:
        session.run(fetches, built.feed_dict(batch), **kwargs)
        stats = session.last_stats
        assert stats.level_plan_hits == (case == "compiled")
        assert stats.level_plan_fallbacks == (case == "fallback")
        assert stats.peak_live_bytes > 0
        assert core._live_bytes == 0

    assert core._open_roots == 0
    assert core._pending_level_runs == []
    assert getattr(core, "_pool", []) == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("engine", available_executors())
@pytest.mark.timeout(60)
def test_merged_sweep_over_ragged_feeds_closes_its_books(engine):
    """Requests of different sizes served as one compiled sweep: every
    feed is a ragged column, every byte the sweep booked is released,
    and the peak covers at least the feeds themselves."""
    trees = make_treebank(num_train=6, num_val=0, vocab_size=40,
                          max_words=9, mean_log_words=2.0, seed=13).train
    trees = list({t.num_nodes: t for t in trees}.values())[:3]
    assert len(trees) == 3
    runtime = repro.Runtime()
    built = TreeRNNSentiment(
        ModelConfig(vocab_size=40, hidden=6, embed_dim=6),
        runtime).build_recursive(1)
    session = repro.Session(built.graph, runtime, num_workers=3,
                            engine=engine, track_live_bytes=True)
    core = session._engine
    server = session.serve(max_in_flight=len(trees))
    feeds = []
    for tree in trees:
        batch = batch_trees([tree])
        feeds.append(built.feed_dict(batch))
        server.submit(built.root_logits, feeds[-1],
                      shape_profile=built.shape_profiles(batch))
    server.drain()
    stats = server.stats
    assert stats.level_plan_hits == len(trees)
    assert stats.level_plan_cache_hits + stats.level_plan_cache_misses == 1
    assert stats.level_row_loop_steps == {}
    assert core._live_bytes == 0
    assert stats.peak_live_bytes >= sum(v.nbytes for feed in feeds
                                        for v in feed.values())
    server.close()
    assert core._open_roots == 0
    assert core._pending_level_runs == []
