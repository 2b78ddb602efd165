"""Level-plan compilation microbench: dynamic vs compiled dispatch.

Paired host-wall-clock measurement of the same admissions executed twice
— once through the dynamic scheduler (frame spawns, signature matching,
coalescer bookkeeping per node) and once through the compiled level-plan
fast path (:mod:`repro.runtime.level_plan`), which lowers each known
tree shape to a fixed sequence of pre-bucketed fused dispatches.  The
workload sweeps the benchmark treebank's sentence-length distribution at
the paper's batch sizes, so compiled plans are memoized per distinct
shape profile exactly as a serving process would reuse them.

Reported per mode: µs per tree-node instance (host wall-clock over the
whole epoch sweep) and the level-plan hit/fallback counters.  The
``level_plan`` section of ``BENCH_overhead.json`` records the paired
rows; the acceptance gate is a >= 1.5x per-instance throughput win at
batch >= 10.  ``benchmarks/bench_smoke.py`` carries the always-on
equivalence canary.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.data.batching import batch_trees

from benchmarks.common import (WORKERS, bench_engine, fresh_model,
                               merge_bench_json, treebank)

BATCH_SIZES = (1, 10)
MODEL = "TreeRNN"
REPEATS = 3


def _epoch_batches(batch_size: int):
    bank = treebank()
    trees = bank.train[:(len(bank.train) // batch_size) * batch_size]
    return [batch_trees(trees[i:i + batch_size])
            for i in range(0, len(trees), batch_size)]


def _measure(batch_size: int, compiled: bool, train: bool) -> dict:
    """Best-of-N wall clock for one epoch sweep, one dispatch mode."""
    model = fresh_model(MODEL)
    runtime = model.runtime
    built = model.build_recursive(batch_size)
    fetches = [built.loss, built.root_logits]
    if train:
        _, updates = repro.gradients(built.loss, [])
        fetches += [op.outputs[-1] for op in updates]
    session = repro.Session(built.graph, runtime, num_workers=WORKERS,
                            engine=bench_engine(), record=train)
    batches = _epoch_batches(batch_size)
    instances = sum(sum(t.num_nodes for t in b.trees) for b in batches)

    def sweep():
        for batch in batches:
            kwargs = ({"shape_profile": built.shape_profiles(batch)}
                      if compiled else {})
            session.run(fetches, built.feed_dict(batch), **kwargs)

    sweep()  # warm: plan caches, and (compiled) per-profile level plans
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sweep()
        best = min(best, time.perf_counter() - t0)
    hits = fallbacks = 0
    if compiled:
        # one timed sweep's counters (last run's session stats accumulate
        # per run; re-read per batch for totals)
        for batch in batches:
            session.run(fetches, built.feed_dict(batch),
                        shape_profile=built.shape_profiles(batch))
            hits += session.last_stats.level_plan_hits
            fallbacks += session.last_stats.level_plan_fallbacks
    return {"batch_size": batch_size,
            "mode": "train" if train else "infer",
            "trees": sum(b.size for b in batches),
            "instances": instances,
            "wall_s": best,
            "us_per_instance": 1e6 * best / instances,
            "level_plan_hits": hits,
            "level_plan_fallbacks": fallbacks}


def test_level_plan_dispatch_bench():
    rows = {}
    for train in (False, True):
        for batch_size in BATCH_SIZES:
            dynamic = _measure(batch_size, compiled=False, train=train)
            compiled = _measure(batch_size, compiled=True, train=train)
            # the compiled path must never miss on this workload
            assert compiled["level_plan_fallbacks"] == 0
            assert compiled["level_plan_hits"] > 0
            key = f"{dynamic['mode']}_b{batch_size}"
            rows[key] = {
                "dynamic": dynamic,
                "compiled": compiled,
                "speedup": (dynamic["us_per_instance"]
                            / compiled["us_per_instance"]),
            }

    payload = {
        "description": "paired dynamic vs compiled level-plan dispatch "
                       "(host wall-clock, treebank length distribution)",
        "model": MODEL,
        "rows": rows,
    }
    merge_bench_json("overhead", {"level_plan": payload})

    print("\nlevel-plan dispatch bench (host wall-clock):")
    for key, row in rows.items():
        print(f"  {key}: dynamic "
              f"{row['dynamic']['us_per_instance']:.1f} us/inst, compiled "
              f"{row['compiled']['us_per_instance']:.1f} us/inst "
              f"-> {row['speedup']:.2f}x "
              f"(hits={row['compiled']['level_plan_hits']}, "
              f"fallbacks={row['compiled']['level_plan_fallbacks']})")

    # the acceptance gate: per-instance throughput at batch >= 10
    for mode in ("infer", "train"):
        speedup = rows[f"{mode}_b10"]["speedup"]
        assert speedup >= 1.5, (
            f"compiled {mode} path {speedup:.2f}x at batch 10 — "
            "below the 1.5x acceptance bar")


# ---------------------------------------------------------------------------
# profile canonicalization: heavy-tailed shape streams


def tree_sum_graph(name):
    """Array-backed binary reduction with a *fed* root index: one graph
    serves a whole stream of distinct tree shapes (also used by the
    bench_smoke canonicalization canary)."""
    from repro import ops
    from repro.core.subgraph import SubGraph

    graph = repro.Graph(name)
    with graph.as_default():
        values = ops.placeholder(repro.float32, (None,))
        children = ops.placeholder(repro.int32, (None, 2))
        is_leaf = ops.placeholder(repro.bool_, (None,))
        root = ops.placeholder(repro.int32, ())
        with SubGraph("tsum") as tsum:
            idx = tsum.input(repro.int32, ())
            tsum.declare_outputs([(repro.float32, ())])

            def leaf():
                return ops.gather(values, idx)

            def internal():
                pair = ops.gather(children, idx)
                return ops.add(tsum(ops.gather(pair, 0)),
                               tsum(ops.gather(pair, 1)))

            tsum.output(ops.cond(ops.gather(is_leaf, idx), leaf, internal))
        out = tsum(root)
    return graph, out, (values, children, is_leaf, root)


def rand_profile(rng, depth, force=3):
    """Random binary shape; the top ``force`` levels are internal, so
    every stream tree is deeper than the canon bucket."""
    if depth <= 1:
        return ()
    if force <= 0 and rng.random() < 0.3:
        return ()
    return (rand_profile(rng, depth - 1, force - 1),
            rand_profile(rng, depth - 1, force - 1))


def profile_feeds(placeholders, profile, rng):
    """Post-order array encoding of a shape profile, random leaf values."""
    values, children, is_leaf, root = placeholders
    nodes = []

    def build(p):
        if not p:
            nodes.append((True, -1, -1))
        else:
            left = build(p[0])
            right = build(p[1])
            nodes.append((False, left, right))
        return len(nodes) - 1

    root_idx = build(profile)
    vals = rng.normal(size=len(nodes)).astype(np.float32)
    kids = np.array([[l, r] for _, l, r in nodes], dtype=np.int32)
    leaf = np.array([f for f, _, _ in nodes])
    return {values: vals, children: kids, is_leaf: leaf, root: root_idx}


def run_canon_stream(requests: int, seed: int, max_depth: int = 9) -> dict:
    """Serve ``requests`` heavy-tailed tree shapes through one session;
    returns the aggregated level-plan counters plus the number of
    templates the graph ended up with."""
    rng = np.random.default_rng(seed)
    graph, out, placeholders = tree_sum_graph(f"canon-stream-{seed}")
    session = repro.Session(graph, repro.Runtime(), num_workers=2)
    totals = {"hits": 0, "misses": 0, "fallbacks": 0, "partial_roots": 0,
              "subtree_runs": 0, "evictions": 0, "compile_ms": 0.0}
    shapes = set()
    wall = 0.0
    for _ in range(requests):
        profile = rand_profile(rng, int(rng.integers(5, max_depth + 1)))
        shapes.add(profile)
        feeds = profile_feeds(placeholders, profile, rng)
        t0 = time.perf_counter()
        session.run(out, feeds, shape_profile=(profile,))
        wall += time.perf_counter() - t0
        stats = session.last_stats
        totals["hits"] += stats.level_plan_cache_hits
        totals["misses"] += stats.level_plan_cache_misses
        totals["fallbacks"] += stats.level_plan_fallbacks
        totals["partial_roots"] += stats.level_plan_partial_roots
        totals["subtree_runs"] += stats.level_plan_subtree_runs
        totals["evictions"] += stats.level_plan_evictions
        totals["compile_ms"] += stats.level_plan_compile_ms
    return {"requests": requests, "distinct_shapes": len(shapes),
            "templates": len(graph._level_plans.get("templates", ())),
            "instantiations": totals["misses"],
            "wall_s": wall, **totals}


def test_level_canonicalization_stream_bench():
    """The heavy-tailed acceptance row: 500 requests.

    Before the level templates every distinct shape compiled its own
    plan (500 shapes -> ~480+ plans).  Now the definition compiles once:
    one template, no fallbacks, and one cheap instantiation per distinct
    shape.
    """
    row = run_canon_stream(requests=500, seed=17)
    payload = {
        "description": "heavy-tailed shape stream through one session "
                       "(fed-root binary reduction, event backend)",
        **{k: v for k, v in row.items() if not k.startswith("_")},
    }
    merge_bench_json("overhead", {"level_plan_canonicalization": payload})
    print(f"\nshape stream bench ({row['requests']} requests):")
    print(f"  distinct shapes: {row['distinct_shapes']}, templates: "
          f"{row['templates']}, instantiations: {row['instantiations']}")
    print(f"  compile: {row['compile_ms']:.1f} ms "
          f"({row['compile_ms'] / row['requests']:.2f} ms/request)")
    assert row["fallbacks"] == 0
    assert row["templates"] == 1, row
    assert row["partial_roots"] == 0 and row["subtree_runs"] == 0, row
    # a re-instantiation only ever follows an LRU eviction
    assert (row["instantiations"] - row["evictions"]
            <= row["distinct_shapes"]), row


def test_level_plan_values_match_dynamic():
    """The bench workload itself is value-checked (belt and braces on
    top of tests/test_level_plan.py): one batch, both paths, bit-equal."""
    model = fresh_model(MODEL)
    built = model.build_recursive(10)
    batch = _epoch_batches(10)[0]
    session = repro.Session(built.graph, model.runtime, num_workers=WORKERS,
                            engine=bench_engine())
    ref = session.run(built.root_logits, built.feed_dict(batch))
    got = session.run(built.root_logits, built.feed_dict(batch),
                      shape_profile=built.shape_profiles(batch))
    assert session.last_stats.level_plan_hits == 1
    assert np.array_equal(ref, got)
