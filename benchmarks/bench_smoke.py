"""Tiny-config regression canary for the paper benchmarks.

``make bench-smoke`` runs this file: miniature fig7/table2 sweeps (small
treebank, one measured step, reduced batch sizes) that exercise every
runner kind on the training *and* inference paths — including the batched
backward pass — in well under the tier-1 watchdog budget.  It asserts
sanity (positive throughput, batched == unbatched losses bit-for-bit,
fusion actually happening), not the paper's shape claims; the full
benches own those.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from benchmarks.common import call_counts, runner_config
import repro
from repro import Runtime
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.harness import (make_runner, measure_throughput,
                           poisson_request_stream, serve_stream)
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          TreeRNNSentiment, tree_lstm_config)

SMOKE_BATCHES = (1, 6)
SMOKE_FACTORIES = {
    "TreeRNN": lambda: TreeRNNSentiment(
        ModelConfig(hidden=12, embed_dim=12, vocab_size=50), Runtime()),
    "RNTN": lambda: RNTNSentiment(
        ModelConfig(hidden=8, embed_dim=8, vocab_size=50), Runtime()),
    "TreeLSTM": lambda: TreeLSTMSentiment(
        tree_lstm_config(hidden=12, embed_dim=8, vocab_size=50), Runtime()),
}


@lru_cache(maxsize=None)
def smoke_bank():
    return make_treebank(num_train=12, num_val=4, vocab_size=50, seed=19)


def test_smoke_fig7_training_all_kinds():
    """Fig7 in miniature: every training runner produces finite positive
    throughput on a small model at both smoke batch sizes."""
    for kind in ("Recursive", "BatchedRecursive", "Iterative", "Unrolling"):
        for batch_size in SMOKE_BATCHES:
            runner = make_runner(kind, SMOKE_FACTORIES["TreeRNN"](),
                                 batch_size, runner_config())
            result = measure_throughput(runner, smoke_bank().train,
                                        batch_size, "train", steps=1,
                                        warmup=0, seed=3)
            assert np.isfinite(result.throughput)
            assert result.throughput > 0, f"{kind} b={batch_size}"


def test_smoke_table2_infer_and_train():
    """Table2 in miniature: TreeLSTM across all four kinds, both modes."""
    for kind in ("Recursive", "BatchedRecursive", "Iterative", "Folding"):
        for mode in ("infer", "train"):
            runner = make_runner(kind, SMOKE_FACTORIES["TreeLSTM"](), 6,
                                 runner_config())
            result = measure_throughput(runner, smoke_bank().train, 6, mode,
                                        steps=1, warmup=0, seed=3)
            assert result.throughput > 0, f"{kind}/{mode}"


def test_smoke_batched_training_is_equivalent_and_fused():
    """The canary for the batched backward pass: same batch, bit-identical
    loss, backward fusion observed, and no throughput collapse."""
    bank = smoke_bank()
    batch = batch_trees(bank.train[:6])
    losses = {}
    vtimes = {}
    for kind in ("Recursive", "BatchedRecursive"):
        runner = make_runner(kind, SMOKE_FACTORIES["RNTN"](), 6,
                             runner_config())
        loss, vtime = runner.train_step(batch)
        losses[kind] = loss
        vtimes[kind] = vtime
        if kind == "BatchedRecursive":
            stats = runner.trainer.last_step_stats
            assert stats.batches > 0
            assert "CacheLookup" in stats.batch_count_by_type
            assert "InvokeGrad" in stats.batch_count_by_type
    assert losses["Recursive"] == losses["BatchedRecursive"]
    # regression canary: batching must never slow training down at this
    # concurrency (generous 0.9 bound to stay noise-proof).  Only the
    # deterministic virtual-time backend supports a ratio gate; under
    # --engine workerpool the times are host wall-clock noise.
    if runner_config().engine == "event":
        assert vtimes["BatchedRecursive"] <= vtimes["Recursive"] / 0.9


def test_smoke_level_plan_canary():
    """Compiled-dispatch canary: the level-plan fast path must admit a
    profiled smoke batch (hit, no fallback) and reproduce the dynamic
    path's logits bit-for-bit — the always-on guard for the two-tier
    dispatch equivalence contract (the full paired bench is
    ``make bench-level``)."""
    bank = smoke_bank()
    batch = batch_trees(bank.train[:6])
    model = SMOKE_FACTORIES["TreeRNN"]()
    built = model.build_recursive(6)
    config = runner_config()
    session = repro.Session(built.graph, model.runtime,
                            num_workers=config.num_workers,
                            engine=config.engine)
    ref = session.run(built.root_logits, built.feed_dict(batch))
    got = session.run(built.root_logits, built.feed_dict(batch),
                      shape_profile=built.shape_profiles(batch))
    stats = session.last_stats
    assert stats.level_plan_hits == 1
    assert stats.level_plan_fallbacks == 0
    assert np.array_equal(ref, got)


def test_smoke_level_row_loop_canary():
    """Columnar-training canary: a compiled TreeLSTM training sweep
    hands the accumulator whole columns, broadcasts reduce-gradients in
    one call and emits the leaves' sparse embedding gradients as one
    column — none may fall back to looping its scalar kernel over rows
    (``RunStats.level_row_loop_steps`` names what did: only the root
    ``Stack`` is left), and the gradients equal the dynamic tier's bit
    for bit."""
    bank = smoke_bank()
    batch = batch_trees(bank.train[:6])
    model = SMOKE_FACTORIES["TreeLSTM"]()
    built = model.build_recursive(6)
    _, updates = repro.gradients(built.loss, [])
    fetches = [built.loss] + [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, model.runtime, record=True,
                            num_workers=runner_config().num_workers)
    accumulators = model.runtime.accumulators
    grads = []
    for kwargs in ({}, {"shape_profile": built.shape_profiles(batch)}):
        accumulators.zero()
        session.run(fetches, built.feed_dict(batch), **kwargs)
        grads.append({n: np.copy(accumulators.read(n))
                      for n in accumulators.names()})
    stats = session.last_stats
    assert stats.level_plan_hits == 1 and stats.level_plan_fallbacks == 0
    assert stats.level_row_loop_steps == {"Stack": 1}
    assert grads[0].keys() == grads[1].keys()
    for name in grads[0]:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_smoke_level_block_canary():
    """Block-dispatch canary: a compiled TreeLSTM inference sweep makes
    the per-step schedule's kernel calls (366 at the parent commit: 28
    prologue invariants + 338 class steps over 192 levels) in one
    framework dispatch per class segment and depth / height — a count
    that follows the forest's depth and height, never its steps."""
    bank = smoke_bank()
    batch = batch_trees(bank.train[:6])
    model = SMOKE_FACTORIES["TreeLSTM"]()
    built = model.build_recursive(6)
    session = repro.Session(built.graph, model.runtime,
                            num_workers=runner_config().num_workers)
    session.run(built.root_logits, built.feed_dict(batch),
                shape_profile=built.shape_profiles(batch))
    stats = session.last_stats
    assert stats.level_plan_hits == 1 and stats.level_plan_fallbacks == 0
    (lp,) = built.graph._level_plans["instances"].values()
    _, depths, heights = lp.shape
    assert stats.level_kernel_calls == 366
    assert stats.level_blocks == lp.n_blocks <= 2 * (depths + heights) + 4
    assert "level_blocks=22  level_kernel_calls=366" in stats.summary()


def test_smoke_level_slab_canary(monkeypatch):
    """Slab canary: the compiled TreeLSTM inference sweep reads every
    import that several columns feed as one read of its slab's array —
    no slab there becomes a list of rows (what a producer whose rows do
    not fit the array leaves), which its readers gather row by row."""
    from repro.runtime.level_plan import sweep

    real, reads = sweep._Sweep.operand, {"slab": 0, "row slab": []}

    def operand(state, spec):
        if len(spec) == 2:
            if state.cols[spec[0]].__class__ is list:
                reads["row slab"].append(spec)
            else:
                reads["slab"] += 1
        return real(state, spec)

    monkeypatch.setattr(sweep._Sweep, "operand", operand)
    bank = smoke_bank()
    batch = batch_trees(bank.train[:6])
    model = SMOKE_FACTORIES["TreeLSTM"]()
    built = model.build_recursive(6)
    session = repro.Session(built.graph, model.runtime,
                            num_workers=runner_config().num_workers)
    session.run(built.root_logits, built.feed_dict(batch),
                shape_profile=built.shape_profiles(batch))
    assert session.last_stats.level_plan_hits == 1
    assert reads["slab"] > 0 and reads["row slab"] == []


def test_smoke_level_wiring_canary(monkeypatch):
    """Instantiation-cost canary (counts, no timing): an 8-run merged
    TreeLSTM forest resolves every ref its imports read in one pass of
    rank arithmetic over the whole forest, whatever the runs' depths and
    heights — the wiring kinds were decided with the template.  A
    regression to per-segment or per-block resolution (176 spec calls
    for the 36 (block program, import) pairs of the serving workload's
    forests) fails here."""
    from repro.runtime.level_plan import (forest, linearise, template_for,
                                          wiring)
    from repro.runtime.plan import plan_for_fetches

    calls = {"wire": 0, "rows": 0}
    for name in calls:
        real = getattr(wiring, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(wiring, name, counted)
    model = SMOKE_FACTORIES["TreeLSTM"]()
    built = model.build_recursive(1)
    tpl = template_for(built.graph, plan_for_fetches(
        built.graph, {built.root_logits.op}), False)
    lins = [linearise(tpl, built.shape_profiles(batch_trees([tree])))
            for tree in smoke_bank().train[:8]]
    counts = []
    for runs in (lins[:1], lins):
        calls.update(wire=0, rows=0)
        lp = forest.LevelPlan(tpl, runs)
        blocks = [blk for level in lp.program[1:] for blk in level]
        pairs = {(blk.prog, i) for blk in blocks
                 for i in range(len(blk.imports))}
        counts.append(dict(calls))
        assert calls == {"wire": 1, "rows": 1}
    # the same calls for 1 run as for 8, and fewer than the pairs the
    # blocks wire, let alone their imports (per-block wiring's calls)
    wired = sum(len(blk.imports) for blk in blocks)
    assert counts[0] == counts[1], counts
    assert calls["rows"] < len(pairs) < wired, (calls, pairs, wired)


#: Python calls and C calls (``sys.setprofile``'s ``call`` / ``c_call``
#: events) of one warm step of each reduced workload below, and the
#: interpreter minor version they were taken on: a change that moves a
#: count re-pins it and names the delta and its reason in CHANGES.md
WORK_PINS_PYTHON = (3, 11)
WORK_PINS = {
    "infer_lvl": (2588, 3924),
    "train_lvl": (10012, 11866),
    "infer_dyn": (170469, 158535),
    "train_dyn": (588153, 562694),
    "infer_pool": (2584, 3924),
    "train_pool": (9986, 11797),
    "serve_burst": (8356, 19508),
    "instantiate": (540, 1062),
}


def work_counts() -> dict:
    """The call counts of one warm step of reduced ``bench_e2e``
    workloads: ``infer_b10`` / ``train_b10`` ``lvl`` and ``dyn`` on the
    event engine (a 6-tree TreeLSTM batch: feeds, profiles and the
    compiled run(s) — for training the recorded gradient run and the
    Adagrad apply run; ``dyn`` passes no profile, so its gradient run
    takes the dynamic tier), ``pool`` (the ``lvl`` step on workerpool,
    whose ``run`` executes on the calling thread) and one merged
    ``serve_longtail``-style burst on the event engine (16 batch-1
    requests, at most 8 in flight, then ``drain``).
    Each step runs once cold first; variables are restored before every
    step, outside the count."""
    from repro.nn.optimizers import Adagrad

    bank, counts = smoke_bank(), {}
    batch = batch_trees(bank.train[:6])
    for name in ("infer_lvl", "train_lvl", "infer_dyn", "train_dyn",
                 "infer_pool", "train_pool"):
        train, compiled = name.startswith("train"), not name.endswith("dyn")
        model = SMOKE_FACTORIES["TreeLSTM"]()
        runtime, built = model.runtime, model.build_recursive(6)
        fetches, apply = [built.loss, built.root_logits], None
        if train:
            fetches += [op.outputs[-1]
                        for op in repro.gradients(built.loss, [])[1]]
            apply = Adagrad(0.05).build_apply(
                built.graph, runtime.trainable_variables(), runtime)
        snapshot = runtime.variables.snapshot()
        session = repro.Session(
            built.graph, runtime, num_workers=4, record=train,
            engine="workerpool" if name.endswith("pool") else "event")
        first = [None]   # the (gradient) run's stats

        def step():
            feed = built.feed_dict(batch)
            profile = built.shape_profiles(batch) if compiled else None
            if apply is None:
                session.run(fetches, feed, shape_profile=profile)
                first[0] = session.last_stats
                return
            runtime.accumulators.zero()
            session.run(fetches, feed, record=True, shape_profile=profile)
            first[0] = session.last_stats
            session.run(apply, record=False)
        for _ in range(2):
            runtime.variables.restore(snapshot)
            got = call_counts(step)
        assert first[0].level_plan_hits == int(compiled)
        assert first[0].level_plan_fallbacks == 0
        counts[name] = got
    model = SMOKE_FACTORIES["TreeLSTM"]()
    built = model.build_recursive(1)
    singles = [batch_trees([tree]) for tree in bank.train + bank.val]
    server = repro.Session(built.graph, model.runtime, engine="event",
                           num_workers=4).serve(max_in_flight=8)

    def burst():
        tickets = [server.submit(built.root_logits, built.feed_dict(single),
                                 size_hint=single.total_nodes,
                                 shape_profile=built.shape_profiles(single))
                   for single in singles[:16]]
        server.drain()
        assert all(ticket.done for ticket in tickets)
    for _ in range(2):
        got = call_counts(burst)
    assert server.stats.level_plan_fallbacks == 0
    server.close()
    counts["serve_burst"] = got
    counts["instantiate"] = instantiate_count()
    return counts


def instantiate_count() -> tuple:
    """The calls of instantiating one fixed 8-run merged serving forest
    (batch-1 TreeLSTM requests: a merged forest is never memoised), run
    once cold first."""
    from repro.runtime.level_plan import instance_for, linearise, template_for
    from repro.runtime.plan import plan_for_fetches

    model = SMOKE_FACTORIES["TreeLSTM"]()
    built = model.build_recursive(1)
    tpl = template_for(built.graph, plan_for_fetches(
        built.graph, {built.root_logits.op}), False)
    lins = [linearise(tpl, built.shape_profiles(batch_trees([tree])))
            for tree in smoke_bank().train[:8]]
    for _ in range(2):
        got = call_counts(lambda: instance_for(tpl, lins))
    return got


def test_smoke_work_count_pins():
    """Count canary (host-free): the Python and C calls of one warm step
    are deterministic, so any change to the work a step does — one more
    numpy call per block — moves a pin exactly, where wall clock on a
    shared host would not show it."""
    if sys.version_info[:2] != WORK_PINS_PYTHON:
        pytest.skip(f"call counts pinned on Python "
                    f"{'.'.join(map(str, WORK_PINS_PYTHON))}")
    assert work_counts() == WORK_PINS


def test_smoke_level_canon_canary():
    """Shape-stream canary: a 50-shape heavy-tailed stream through one
    session compiles exactly one template and falls back on no shape
    (the full 500-request row is ``make bench-level``)."""
    from benchmarks.bench_level_plan import run_canon_stream

    row = run_canon_stream(requests=50, seed=23, max_depth=7)
    assert row["fallbacks"] == 0
    assert row["templates"] == 1
    assert row["partial_roots"] == 0
    assert row["subtree_runs"] == 0
    assert row["hits"] + row["misses"] == 50  # one probe per request


def test_smoke_level_template_canary():
    """Count-based compile-cost canary (no timing): 20 fresh shapes of
    one definition — a ~600-node batch — flushed together are *one*
    instantiation of *one* template, the template is no bigger than for
    a single leaf, and the instantiated program's size follows the
    forest's depth and height, never its node count: the compile path
    creates no per-tree-node Python objects beyond the O(nodes) key /
    offset lists."""
    from benchmarks.bench_level_plan import (profile_feeds, rand_profile,
                                             tree_sum_graph)
    from repro.runtime.level_plan import instance_for, linearise

    rng = np.random.default_rng(31)
    graph, out, placeholders = tree_sum_graph("template-canary")
    session = repro.Session(graph, repro.Runtime(), num_workers=2)
    session.run(out, profile_feeds(placeholders, (), rng),
                shape_profile=((),))
    (template,) = graph._level_plans["templates"].values()
    size = (template.num_steps, len(template.classes))
    shapes = set()
    while len(shapes) < 20:
        shapes.add(rand_profile(rng, 6, force=4))
    shapes = sorted(shapes, key=repr)
    nodes = sum(str(p).count("(") for p in shapes)
    assert nodes >= 600
    with session.serve(max_in_flight=len(shapes)) as server:
        tickets = [server.submit(out, profile_feeds(placeholders, p, rng),
                                 at=0.0, shape_profile=(p,))
                   for p in shapes]
        server.drain()
        assert all(t.done for t in tickets)
        stats = server.stats
    assert stats.level_plan_hits == 20 and stats.level_plan_fallbacks == 0
    assert stats.level_plan_cache_misses == 1
    assert stats.level_plan_cache_hits == 0
    assert list(graph._level_plans["templates"].values()) == [template]
    assert (template.num_steps, len(template.classes)) == size
    # program size: blocks follow the (depth + height) keys, columns the
    # exported steps per block — neither the node count
    lp = instance_for(template, [linearise(template, (p,)) for p in shapes])
    n, depths, heights = lp.shape
    assert n == nodes + len(shapes)  # plus one virtual root per run
    blocks = [blk for level in lp.program for blk in level]
    assert len(blocks) == lp.n_blocks <= (
        1 + len(template.classes) * (depths + heights + 1))
    exports = sum(len(blk.prog.exports) for blk in blocks)
    assert len(lp.step_m) == 1 + exports <= template.num_steps * len(blocks)
    assert sum(len(blk.prog.steps) + len(blk.prog.feeds) for blk in blocks) \
        <= template.num_steps * (depths + heights + 1)
    assert len(lp.step_m) < nodes


def test_smoke_continuous_serving_canary():
    """Continuous-batching serving in miniature: one seeded open-loop
    stream served wave-synchronized then continuously at equal
    concurrency.  Asserts the structural claims (identical per-request
    logits, no wave-tail starvation, latency percentiles populated,
    fusion observed) in about a second."""
    bank = smoke_bank()
    stream = poisson_request_stream(16, 3000.0, len(bank.train), seed=5)
    results = {}
    for admission in ("wave", "continuous"):
        model = SMOKE_FACTORIES["TreeRNN"]()
        config = runner_config()
        results[admission] = serve_stream(
            model, bank.train, stream=stream, max_in_flight=4,
            admission=admission, batching=True,
            num_workers=config.num_workers, engine=config.engine, seed=5)
    wave, continuous = results["wave"], results["continuous"]
    assert wave.instances == continuous.instances == 16
    for rid in wave.request_logits:
        assert np.array_equal(wave.request_logits[rid],
                              continuous.request_logits[rid]), rid
    if runner_config().engine == "event":
        # deterministic virtual time: the admission claim gates hard;
        # wall-clock backends assert only the structural claims above
        assert continuous.throughput >= wave.throughput, \
            (f"continuous {continuous.throughput:.1f} < wave "
             f"{wave.throughput:.1f} inst/s")
    for result in results.values():
        latency = result.latency_summary()
        assert latency["requests"] == 16
        assert 0.0 < latency["total"]["p50"] <= latency["total"]["p99"]
        assert result.stats.batches > 0


def test_smoke_memory_canary():
    """Memory-aware execution canary: a miniature large-vocab TreeLSTM
    training step with sparse GatherGrad must hold peak live scratch
    well under the dense run's, with bit-identical gradients; the
    recorded ``memory`` section of ``BENCH_overhead.json`` (written by
    ``make bench-memory``) must still satisfy its gates and every row
    must carry a populated ``peak_rss_mb`` stamp."""
    from repro.graph.sparse import set_sparse_gather_grads
    from repro.nn import Adagrad, Trainer

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCH_overhead.json")
    if os.path.exists(path):
        with open(path) as fh:
            memory = json.load(fh).get("memory")
        if memory is not None:
            assert memory["peak_scratch_reduction"] >= 5.0
            assert memory["gradients_bit_identical"]
            for row in ("dense", "sparse", "budgeted"):
                assert memory[row]["peak_rss_mb"] > 0, row

    bank = smoke_bank()
    batch = batch_trees(bank.train[:6])
    config = runner_config()
    results = {}
    for sparse in (False, True):
        previous = set_sparse_gather_grads(sparse)
        try:
            runtime = Runtime()
            model = TreeLSTMSentiment(
                tree_lstm_config(hidden=12, embed_dim=16, vocab_size=2000),
                runtime)
            built = model.build_recursive(6)
            trainer = Trainer(built.graph, built.loss, Adagrad(0.05),
                              runtime,
                              session_kwargs=dict(
                                  num_workers=config.num_workers,
                                  engine=config.engine,
                                  track_live_bytes=True))
            loss = trainer.step(built.feed_dict(batch))
            results[sparse] = (loss, trainer.gradient_snapshot(),
                               trainer.last_step_stats.peak_live_bytes)
        finally:
            set_sparse_gather_grads(previous)
    dense_loss, dense_grads, dense_peak = results[False]
    sparse_loss, sparse_grads, sparse_peak = results[True]
    assert dense_loss == sparse_loss
    for name in dense_grads:
        assert np.array_equal(dense_grads[name], sparse_grads[name]), name
    assert sparse_peak > 0
    # generous 2x floor (the full bench gates 5x on the bigger workload):
    # at vocab 2000 the dense table scratch dominates by far more, so a
    # miss here means sparse emission silently stopped engaging
    assert 2 * sparse_peak <= dense_peak, (
        f"sparse peak {sparse_peak} not well under dense {dense_peak}")


def test_smoke_spawn_overhead_canary():
    """Regression canary for the frame-plan scheduler: per-frame spawn
    overhead (wall-clock, miniature invoke-chain) must stay within 2x of
    the ``BENCH_overhead.json`` recorded baseline, rescaled by a host
    speed probe so a slower machine fails only on a *real* regression
    (an accidental return of per-spawn graph walking is ~3-5x).  The
    miniature 8x120 shape has per-frame cost close to the recorded
    16x250 workload; the 2x margin absorbs the shape difference."""
    from benchmarks.bench_overhead import build_spawn_chain, \
        measure_python_probe

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCH_overhead.json")
    if not os.path.exists(path):
        pytest.skip("no BENCH_overhead.json baseline recorded yet")
    with open(path) as fh:
        recorded = json.load(fh)
    baseline = recorded["after"]["spawn_us_per_frame"]
    probe = recorded.get("host_probe_us")
    if probe:
        # slower host -> proportionally wider gate; never tighter than
        # the margin calibrated on the recording host
        baseline *= max(1.0, measure_python_probe() / probe)

    graph, total = build_spawn_chain(8, 120)
    sess = repro.Session(graph, Runtime(), num_workers=36)
    sess.run(total)  # warm the plan caches
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        sess.run(total)
        best = min(best, time.perf_counter() - t0)
    us_per_frame = 1e6 * best / sess.last_stats.frames_created
    assert us_per_frame <= 2.0 * baseline, (
        f"frame spawn overhead {us_per_frame:.1f} us/frame regressed "
        f">2x over the host-scaled {baseline:.1f} us/frame baseline")
