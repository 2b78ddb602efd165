"""The benchmark's contract as data: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; ``bench_e2e/tests`` asserts the two stay equal and that the command
prints exactly these names.  ``moves`` records, for every per-layer
metric, the end-to-end metric it is expected to move (choosing-metrics
section 3: written down before measuring).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "Workload", "WORKLOADS", "END_TO_END", "PER_LAYER",
           "RUN_SECONDS", "COMMAND", "benchmark_json"]

#: how long one run measures (the driver passes it back as ``--seconds``)
RUN_SECONDS = 24
COMMAND = ["python3", "-m", "bench_e2e"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str               # "higher" | "lower"
    bound: float = 0.0        # end-to-end only: tolerated worsening
    moves: str = ""           # per-layer only: the end-to-end metric it moves
    what: str = ""            # one-line glossary entry


WORKLOADS = (
    Workload("infer_b10",
             "TreeLSTM h64 inference, batch 10: numpy math is ~2% of wall, "
             "so scheduler/batching/level_plan do the work; a kernel or "
             "transport change must not move it"),
    Workload("train_b10",
             "same model, one full training step: record=True cache "
             "stores/lookups, gradient frames and accumulators; a dispatch "
             "gain bought with cache cost shows as a loss here"),
    Workload("kernel_bound",
             "RNTN h64 (O(H^3) tensor product) inference: numpy floor is "
             ">40% of wall, so kernel/pool/shm changes show here and "
             "scheduler changes at most half; procpool competes for pool"),
    Workload("serve_longtail",
             "32 short distinct-shape trees served one per request: "
             "per-request overhead dominates, so server admission, plan "
             "memo keying and cross-request coalescing do the work"),
)

END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           what="floor over the in-process repetitions of: tree generation "
                "+ batch_trees + model/graph build (+ gradients + "
                "build_apply on train) + Session() + the first, cold pass "
                "over the workload's steps on the compiled tier"),
    Metric("dyn_inst_per_s", "1/s", "higher", 0.25,
           what="tree nodes per wall second, per-step floor; "
                "engine=event, dynamic tier, micro-batching on"),
    Metric("lvl_inst_per_s", "1/s", "higher", 0.25,
           what="same, compiled level-plan tier (shape_profile= on every "
                "run/submit; level_canon_depth=3 on serve_longtail)"),
    Metric("pool_inst_per_s", "1/s", "higher", 0.25,
           what="same, workerpool at min(nproc,4) workers (compiled tier "
                "on the sweeps, dynamic tier on serve_longtail), its "
                "threads confined to one CPU"),
    Metric("virt_inst_per_s", "1/s", "higher", 0.20,
           what="tree nodes per *virtual* second: event engine, 36 "
                "workers, dyn config, second pass of a fresh session "
                "(deterministic for a given seed)"),
    Metric("peak_rss_mb", "MiB", "lower", 0.20,
           what="ru_maxrss of the workload's process at exit"),
)

_SETUP = "setup_s"
_WALL = "dyn/lvl/pool_inst_per_s"

PER_LAYER = (
    # -- setup, piece by piece -------------------------------------------
    Metric("data.treebank_s", "s", "lower", moves=_SETUP,
           what="seeded tree generation (floor over setup repetitions)"),
    Metric("data.batch_trees_s", "s", "lower", moves=_SETUP,
           what="batch_trees over the workload's steps"),
    Metric("models.build_graph_s", "s", "lower", moves=_SETUP,
           what="Runtime() + model + build_recursive"),
    Metric("core.autodiff_s", "s", "lower", moves=_SETUP,
           what="repro.gradients on the loss (0 on inference workloads)"),
    Metric("nn.build_apply_s", "s", "lower", moves=_SETUP,
           what="Adagrad.build_apply (0 on inference workloads)"),
    Metric("session.init_s", "s", "lower", moves=_SETUP,
           what="Session() construction (+ Session.serve on serve_longtail)"),
    Metric("graph.ops_built", "count", "lower", moves=_SETUP,
           what="graph.num_operations after setup"),
    Metric("plan.cold_extra_s", "s", "lower", moves=_SETUP,
           what="first dyn pass on a fresh graph minus the dyn floor "
                "(FramePlan compile + first-use costs)"),
    Metric("level_plan.cold_extra_s", "s", "lower", moves=_SETUP,
           what="setup's cold compiled pass minus the lvl floor (FramePlan "
                "+ LevelPlan compile)"),
    Metric("level_plan.compile_ms", "ms", "lower", moves=_SETUP,
           what="RunStats.level_plan_compile_ms summed over the cold pass"),
    Metric("level_plan.plans_compiled", "count", "lower", moves=_SETUP,
           what="RunStats.level_plan_cache_misses summed over the cold pass"),
    Metric("executor.workerpool.start_s", "s", "lower", moves=_SETUP,
           what="one-constant Session.run on workerpool minus the same on "
                "event (pool start + stop, paid on every run)"),
    Metric("executor.procpool.start_s", "s", "lower", moves=_SETUP,
           what="same for procpool (fork + shm arena); 0 if unregistered"),
    # -- feeding ---------------------------------------------------------
    Metric("data.feed_us_per_inst", "us", "lower", moves=_WALL,
           what="BuiltModel.feed_dict per tree node (traced-pass floor)"),
    Metric("data.profile_us_per_inst", "us", "lower", moves=_WALL,
           what="BuiltModel.shape_profiles per tree node"),
    # -- dynamic tier ----------------------------------------------------
    Metric("scheduler.frames_per_inst", "count", "lower",
           moves="dyn_inst_per_s, virt_inst_per_s",
           what="RunStats.frames_created per tree node, dyn config"),
    Metric("scheduler.ops_per_inst", "count", "lower",
           moves="dyn_inst_per_s, virt_inst_per_s",
           what="RunStats.ops_executed per tree node, dyn config"),
    Metric("scheduler.us_per_op", "us", "lower", moves="dyn_inst_per_s",
           what="dyn floor / ops_executed"),
    Metric("batching.fused_batches", "count", "lower",
           moves="dyn_inst_per_s, virt_inst_per_s",
           what="RunStats.batches (fused kernel calls), dyn config"),
    Metric("batching.mean_batch", "count", "higher",
           moves="dyn_inst_per_s, virt_inst_per_s",
           what="RunStats.batch_efficiency (members per fused call)"),
    Metric("batching.max_batch", "count", "higher",
           moves="virt_inst_per_s", what="RunStats.max_batch"),
    Metric("batching.wall_gain_x", "x", "higher", moves="dyn_inst_per_s",
           what="unbatched floor / dyn floor (3-round side row)"),
    Metric("batching.virt_gain_x", "x", "higher", moves="virt_inst_per_s",
           what="unbatched virtual time / dyn virtual time"),
    # -- compiled tier ---------------------------------------------------
    Metric("level_plan.speedup_x", "x", "higher", moves="lvl_inst_per_s",
           what="dyn floor / lvl floor"),
    Metric("level_plan.hit_rate", "ratio", "higher", moves="lvl_inst_per_s",
           what="RunStats.level_plan_cache_hit_rate over one warm pass"),
    Metric("level_plan.fallbacks", "count", "lower", moves="lvl_inst_per_s",
           what="RunStats.level_plan_fallbacks over one warm pass"),
    Metric("level_plan.partial_roots", "count", "lower",
           moves="lvl_inst_per_s",
           what="roots admitted as a dynamic spine (canonicalisation)"),
    Metric("level_plan.subtree_runs", "count", "lower",
           moves="lvl_inst_per_s", what="compiled sub-sweeps launched"),
    Metric("level_plan.evictions", "count", "lower", moves="lvl_inst_per_s",
           what="plan-memo LRU evictions over one warm pass"),
    Metric("level_plan.mean_width", "count", "higher",
           moves="lvl_inst_per_s",
           what="mean fused-dispatch width from RunStats.level_width_hist"),
    # -- kernels ---------------------------------------------------------
    Metric("ops.numpy_floor_s", "s", "lower", moves=_WALL,
           what="per-step floor of FoldingExecutor.forward (+ .backward "
                "on train): the same math in bare numpy"),
    Metric("ops.kernel_share", "ratio", "higher", moves=_WALL,
           what="numpy floor / dyn floor"),
    Metric("runtime.overhead_x", "x", "lower", moves=_WALL,
           what="dyn floor / numpy floor"),
    Metric("ops.mflop_per_step", "Mflop", "lower", moves=_WALL,
           what="computed, not measured: cell.leaf_flops/internal_flops "
                "over the step's nodes (x3 on train)"),
    # -- executors -------------------------------------------------------
    Metric("executor.workerpool.dyn_inst_per_s", "1/s", "higher",
           moves="pool_inst_per_s",
           what="workerpool, dynamic tier, min(nproc,4) workers, free "
                "to use every CPU (as are all executor.* rows)"),
    Metric("executor.workerpool.lvl_inst_per_s", "1/s", "higher",
           moves="pool_inst_per_s", what="workerpool, compiled tier"),
    Metric("executor.workerpool.scaling_x", "x", "higher",
           moves="pool_inst_per_s",
           what="workerpool at min(nproc,4) workers / at 1 worker, the "
                "pool config's tier, both free to use every CPU"),
    Metric("executor.workerpool.one_cpu_x", "x", "lower",
           moves="pool_inst_per_s",
           what="pool config free to use every CPU / confined to one: "
                ">1 is what cross-CPU thread handoffs cost on this host"),
    Metric("executor.procpool.lvl_inst_per_s", "1/s", "higher",
           moves="pool_inst_per_s",
           what="procpool, compiled tier; 0 if unregistered"),
    Metric("executor.procpool.vs_workerpool_x", "x", "higher",
           moves="pool_inst_per_s",
           what="procpool / workerpool, both compiled tier (ROADMAP's "
                "'procpool must beat workerpool' bar)"),
    Metric("executor.threaded.dyn_inst_per_s", "1/s", "higher",
           moves="(none: context for 'executors earn their keep')",
           what="threaded, dynamic tier; 0 if unregistered"),
    # -- training path ---------------------------------------------------
    Metric("trainer.grad_s", "s", "lower", moves=_WALL + " on train_b10",
           what="floor of accumulators.zero() + the record=True run"),
    Metric("trainer.apply_s", "s", "lower", moves=_WALL + " on train_b10",
           what="floor of the build_apply run"),
    Metric("cache.stores_per_inst", "count", "lower",
           moves=_WALL + " on train_b10",
           what="RunStats.cache_stores per tree node"),
    Metric("cache.lookups_per_inst", "count", "lower",
           moves=_WALL + " on train_b10",
           what="RunStats.cache_lookups per tree node"),
    Metric("memory.peak_live_mb", "MiB", "lower", moves="peak_rss_mb",
           what="RunStats.peak_live_bytes of one track_live_bytes pass"),
    # -- serving ---------------------------------------------------------
    Metric("server.submit_us", "us", "lower",
           moves=_WALL + " on serve_longtail",
           what="median server.submit call, dyn config"),
    Metric("server.drain_share", "ratio", "lower",
           moves=_WALL + " on serve_longtail",
           what="server.drain time / burst wall, dyn config"),
    Metric("server.wall_p50_ms", "ms", "lower", moves="pool_inst_per_s",
           what="closed-loop request latency (arrival -> complete), "
                "workerpool, all timed rounds"),
    Metric("server.wall_p90_ms", "ms", "lower", moves="pool_inst_per_s",
           what="same, p90: the highest percentile >=144 samples support "
                "with ten beyond it"),
    Metric("server.wall_queue_p50_ms", "ms", "lower",
           moves="pool_inst_per_s", what="arrival -> admit, workerpool"),
    Metric("server.mean_batch", "count", "higher",
           moves="dyn_inst_per_s, virt_inst_per_s",
           what="members per fused call across requests, dyn config"),
    Metric("server.virt_p50_ms", "ms", "lower",
           moves="(user-visible; deterministic, so any change is real)",
           what="open loop at RATE_LO, latency from scheduled arrival"),
    Metric("server.virt_p95_ms", "ms", "lower",
           moves="(user-visible; deterministic)",
           what="same, p95: 200 requests leave ten beyond it"),
    Metric("server.virt_queue_p95_ms", "ms", "lower",
           moves="server.virt_p95_ms", what="arrival -> admit at RATE_LO"),
    Metric("server.virt_goodput_per_s", "1/s", "higher",
           moves="(user-visible; deterministic)",
           what="deadline-meeting completions per virtual second at "
                "RATE_HI; shed/timed-out/rejected count as misses"),
    Metric("server.rejected_share", "ratio", "lower",
           moves="server.virt_goodput_per_s",
           what="requests shed at admission at RATE_HI"),
    Metric("server.timed_out_share", "ratio", "lower",
           moves="server.virt_goodput_per_s",
           what="requests dropped by deadline enforcement at RATE_HI"),
    # -- cost model ------------------------------------------------------
    Metric("cost_model.virt_over_wall_1w", "ratio", "higher",
           moves="(none: how far virt_* may be trusted to predict wall)",
           what="virtual seconds at 1 virtual worker / dyn floor seconds"),
    # -- the paper's comparison, as context ------------------------------
    Metric("baseline.iterative.inst_per_s", "1/s", "higher",
           moves="(none: context)",
           what="build_iterative graph on event, wall floor"),
    Metric("baseline.iterative.virt_inst_per_s", "1/s", "higher",
           moves="(none: context)", what="same, virtual, 36 workers"),
    Metric("paper.rec_over_iter_virt_x", "x", "higher",
           moves="(none: context)",
           what="virt_inst_per_s / baseline.iterative.virt_inst_per_s"),
    # -- the harness and the host ----------------------------------------
    Metric("trace.coverage", "ratio", "higher", moves="(harness)",
           what="lowest share of a traced step's wall covered by spans"),
    Metric("trace.overhead_x", "x", "lower", moves="(harness)",
           what="traced-pass floor / floor of the last untraced rounds"),
    Metric("host.probe_ms_min", "ms", "lower", moves="(host)",
           what="fastest reading of a fixed pure-Python probe"),
    Metric("host.probe_ms_med", "ms", "lower", moves="(host)",
           what="median reading; med/min is the drift the run saw"),
    Metric("host.steal_share", "ratio", "lower", moves="(host)",
           what="share of the machine's CPU time the hypervisor gave to "
                "someone else during the run (/proc/stat steal)"),
    Metric("host.nproc", "count", "higher", moves="pool_inst_per_s",
           what="CPUs this process may run on"),
)


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
