"""The measuring loop every workload shares.

A workload (``sweep.SweepBench``, ``serve.ServeBench``) supplies the
inputs, the sessions and one ``step``; this module supplies the protocol
around it: repeated setup, interleaved round-robin rounds timed step by
step until the budget is spent, verification of every timed step,
traced passes, side rows, and the assembly of the metrics named in
``spec``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time
import traceback
from dataclasses import dataclass

import repro
from repro import ops
from repro.harness.reporting import peak_rss_mb
from repro.runtime import available_executors

from . import estimator, spec
from .trace import STEP, Tracer
from .verify import Checker

__all__ = ["Config", "Bench", "Measured", "run_workload", "stats_info",
           "span_floor", "nproc", "pool_workers", "VIRTUAL_WORKERS"]

#: the paper's testbed (2 x 18 cores): every ``event`` session uses it
VIRTUAL_WORKERS = 36
#: setup is repeated between the rounds for as long as the repetitions
#: have used less than SETUP_SHARE of the time measured so far — evenly
#: spread over the run, more of them when setup is cheap — and at least
#: MIN_SETUP_REPS times
SETUP_SHARE = 0.15
MIN_SETUP_REPS = 3
MIN_ROUNDS = 3
TRACED_PASSES = 2
#: share of ``--seconds`` a traced run spends on the main rounds; the
#: rest of its time goes to side rows, which have fixed round counts
TRACE_MAIN_SHARE = 0.4


def nproc() -> int:
    """CPUs this process may run on (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_workers() -> int:
    return min(nproc(), 4)


def cpu_jiffies() -> tuple:
    """``(stolen, total)`` CPU time of the whole machine so far, from
    ``/proc/stat`` — ``(0, 0)`` where there is none.  *Stolen* is time a
    virtual CPU was ready to run and the hypervisor ran someone else."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def stats_info(*stats) -> dict:
    """The public ``RunStats`` numbers one step contributes, summed over
    the ``Session.run`` calls it made (a training step makes two)."""
    info = {"virtual_s": 0.0, "ops": 0, "frames": 0, "batches": 0,
            "batched_ops": 0, "max_batch": 0, "cache_stores": 0,
            "cache_lookups": 0, "lp_hits": 0, "lp_fallbacks": 0,
            "lp_partial": 0, "lp_subtree": 0, "lp_cache_hits": 0,
            "lp_cache_misses": 0, "lp_compile_ms": 0.0, "lp_evictions": 0,
            "width_sum": 0, "width_count": 0, "peak_live_bytes": 0}
    for st in stats:
        info["virtual_s"] += st.virtual_time
        info["ops"] += st.ops_executed
        info["frames"] += st.frames_created
        info["batches"] += st.batches
        info["batched_ops"] += st.batched_ops
        info["max_batch"] = max(info["max_batch"], st.max_batch)
        info["cache_stores"] += st.cache_stores
        info["cache_lookups"] += st.cache_lookups
        info["lp_hits"] += st.level_plan_hits
        info["lp_fallbacks"] += st.level_plan_fallbacks
        info["lp_partial"] += st.level_plan_partial_roots
        info["lp_subtree"] += st.level_plan_subtree_runs
        info["lp_cache_hits"] += st.level_plan_cache_hits
        info["lp_cache_misses"] += st.level_plan_cache_misses
        info["lp_compile_ms"] += st.level_plan_compile_ms
        info["lp_evictions"] += st.level_plan_evictions
        for hist in st.level_width_hist.values():
            for width, count in hist.items():
                info["width_sum"] += width * count
                info["width_count"] += count
        info["peak_live_bytes"] = max(info["peak_live_bytes"],
                                      st.peak_live_bytes)
    return info


@dataclass(frozen=True)
class Config:
    """One timed way of running the workload's steps."""

    name: str
    engine: str
    workers: int
    compiled: bool = False       # pass shape_profile= (level-plan tier)
    batching: bool = True        # cross-instance micro-batching
    iterative: bool = False      # the build_iterative baseline graph
    track_live: bool = False     # track_live_bytes=True
    one_cpu: bool = False        # confine its threads to one CPU (README)
    rounds: int = 3              # side rows only; main rounds fill the budget


@contextlib.contextmanager
def confined(config: Config):
    """Run the body — and every thread it starts — on one CPU.

    On this 2-vCPU VM a thread handoff that crosses vCPUs costs so much,
    and so erratically, that the same workerpool run takes 0.16 s
    confined to one CPU and 0.27-0.34 s free to use both (README,
    "Pool configs run on one CPU").  The bounded ``pool`` metric is
    therefore measured confined, which times the executor's own code
    path; the free-running rows are per-layer context.
    """
    if not (config.one_cpu and hasattr(os, "sched_setaffinity")):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})     # 0: the calling thread
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Bench:
    """What a workload must provide.  ``info`` dicts returned by
    :meth:`step` carry public ``RunStats`` numbers for that step."""

    name = ""
    #: tree nodes in each step — the 'instances' of every throughput
    nodes: list = []
    #: timed in every run: ``dyn``, ``lvl`` and ``pool``
    main: list = []
    #: traced runs only; must include ``unb``, ``pool_free``, ``wp_1``
    #: and ``virt_1w``
    side: list = []

    def __init__(self, seed: int, tracer: Tracer, checker: Checker):
        self.seed = seed
        self.tracer = tracer
        self.checker = checker
        #: per step: reference outputs, oracle outputs, oracle timings
        self.reference: list = []
        self.oracle: list = []
        self.oracle_wall: list = []
        self._cold: list = []

    def config(self, name: str) -> "Config":
        return next(c for c in self.main + self.side if c.name == name)

    def verify_cold(self, config=None, raws=()) -> None:
        """Cold-pass outputs are operations too.  Repetition 0 runs
        before the references exist, so checks queue up until they do."""
        self._cold += [(config, s, raw) for s, raw in enumerate(raws)]
        if self.reference:
            for c, s, raw in self._cold:
                self.verify(c, s, f"{self.name}/setup/cold/{s}", raw)
            self._cold.clear()

    def setup(self, keep: bool, cold: str = "lvl") -> dict:
        """Everything a user pays before the first warm step, once:
        inputs, model, graph, session and a cold pass over the steps on
        config ``cold``.  Returns that pass's ``info`` plus
        ``cold_pass_s``.  ``keep`` adopts the objects built for the
        timed rounds (repetition 0)."""
        raise NotImplementedError

    def make_references(self, oracle_passes: int = 1) -> None:
        """Fill ``reference``, ``oracle`` and ``oracle_wall`` for every
        step; the oracle is timed ``oracle_passes`` times (the numpy
        floor).  Ends with :meth:`verify_cold`."""
        raise NotImplementedError

    def open(self, config: Config) -> None:
        raise NotImplementedError

    def close(self, config: Config) -> None:
        raise NotImplementedError

    def prepare(self, config: Config, s: int) -> None:
        """Untimed work before a step (restore variables, ...)."""

    def step(self, config: Config, s: int):
        """The timed operation; returns ``(raw_outputs, info)``."""
        raise NotImplementedError

    def verify(self, config: Config, s: int, step_id: str, raw) -> None:
        """Untimed: check ``raw`` against both oracles via the checker."""
        raise NotImplementedError

    def layer_metrics(self, run: "Measured") -> dict:
        """Workload-specific per-layer values (missing names print 0)."""
        return {}

    def context(self) -> dict:
        return {}


class Measured:
    """Samples and per-step info of a set of configs over some rounds."""

    def __init__(self):
        self.wall: dict = {}     # config -> [round][step] seconds
        self.info: dict = {}     # config -> [round][step] info dict

    def floor(self, name: str) -> float:
        return estimator.floor_s(self.wall[name])

    def has(self, name: str) -> bool:
        return bool(self.wall.get(name))

    def rate(self, name: str, nodes: int) -> float:
        """Tree nodes per wall second from the per-step floor (0 when
        the config did not run, e.g. an unregistered executor)."""
        return nodes / self.floor(name) if self.has(name) else 0.0

    def total(self, name: str, key: str, round_: int = -1) -> float:
        """Sum of one info field over the steps of one round."""
        return sum(step.get(key, 0) for step in self.info[name][round_])


def measure(bench: Bench, configs: list, *, label: str, deadline=None,
            rounds=None, between=None, into: Measured = None) -> Measured:
    """Interleaved round-robin rounds, every step timed on its own.

    With ``deadline`` (a ``perf_counter`` instant) rounds repeat until it
    passes (at least ``MIN_ROUNDS``); otherwise each config runs its own
    ``rounds`` (or ``config.rounds``).  The config order rotates every
    step so no config always runs first after a cache-cold neighbour.
    """
    out = into or Measured()
    for c in configs:
        out.wall.setdefault(c.name, [])
        out.info.setdefault(c.name, [])
    r = 0
    while True:
        live = [c for c in configs if deadline is not None
                or r < (rounds or c.rounds)]
        if not live:
            break
        for c in live:
            out.wall[c.name].append([])
            out.info[c.name].append([])
        for s in range(len(bench.nodes)):
            k = (r + s) % len(live)
            for c in live[k:] + live[:k]:
                step_id = f"{bench.name}/{c.name}/{label}{r}/{s}"
                bench.prepare(c, s)
                raw = info = None
                try:
                    with confined(c):
                        t0 = time.perf_counter()
                        with bench.tracer.span(STEP, step_id):
                            raw, info = bench.step(c, s)
                        wall = time.perf_counter() - t0
                except Exception as exc:  # noqa: BLE001 - an operation
                    # that raises is a failed operation, not a crash
                    traceback.print_exc()
                    bench.checker.raised(step_id, exc)
                    wall = estimator.FAILED
                else:
                    bench.verify(c, s, step_id, raw)
                out.wall[c.name][-1].append(wall)
                out.info[c.name][-1].append(info or {})
        r += 1
        if between is not None:
            between(r)
        if deadline is not None and r >= MIN_ROUNDS \
                and time.perf_counter() >= deadline:
            break
    return out


def _start_cost_s(engine: str) -> float:
    """What starting and stopping ``engine``'s workers adds to a run: a
    one-constant ``Session.run`` on it minus the same on ``event``."""
    if engine not in available_executors():
        return 0.0
    graph = repro.Graph("bench_e2e_probe")
    with graph.as_default():
        one = ops.constant(1.0)

    def fastest(name: str, workers: int) -> float:
        session = repro.Session(graph, repro.Runtime(), engine=name,
                                num_workers=workers)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            session.run(one)
            best = min(best, time.perf_counter() - t0)
        return best

    return fastest(engine, pool_workers()) - fastest("event", 1)


def _registered(configs: list) -> tuple:
    """Split configs into runnable ones and skipped executor names."""
    have = set(available_executors())
    return ([c for c in configs if c.engine in have],
            sorted({c.engine for c in configs if c.engine not in have}))


def run_workload(bench_cls, seed: int, seconds: float, trace: bool,
                 trace_path: str = "") -> dict:
    """Run one workload; returns the result row (see README)."""
    tracer, checker = Tracer(), Checker()
    bench = bench_cls(seed, tracer, checker)
    probes, setup_s, cold_infos = [], [], []
    stolen0, jiffies0 = cpu_jiffies()

    def one_setup(rep: int) -> None:
        tracer.enabled = trace
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("setup", f"{bench.name}/setup/{rep}/0"):
            cold_infos.append(bench.setup(keep=rep == 0))
        setup_s.append(time.perf_counter() - t0)
        tracer.enabled = False

    def between(r: int) -> None:
        probes.append(estimator.host_probe_ms())
        now = time.perf_counter()
        if now < deadline and sum(setup_s[1:]) < SETUP_SHARE * (now - start):
            one_setup(len(setup_s))

    one_setup(0)
    tracer.enabled = trace      # the oracle's spans belong in the trace
    bench.make_references(oracle_passes=3 if trace else 1)
    tracer.enabled = False
    main, skipped_main = _registered(bench.main)
    for c in main:
        with confined(c):       # a server starts its threads in open()
            bench.open(c)
    start = time.perf_counter()
    deadline = start + seconds * (TRACE_MAIN_SHARE if trace else 1.0)
    run = measure(bench, main, label="r", between=between,
                  deadline=deadline)
    while len(setup_s) < MIN_SETUP_REPS:
        one_setup(len(setup_s))

    traced = None
    skipped = skipped_main
    if trace:
        tracer.enabled = True
        traced = measure(bench, main, label="traced", rounds=TRACED_PASSES)
        tracer.enabled = False
    for c in main:
        bench.close(c)
    if trace:
        side, skipped_side = _registered(bench.side)
        skipped = sorted(set(skipped_main) | set(skipped_side))
        for c in side:
            with confined(c):
                bench.open(c)
        measure(bench, side, label="side", into=run)
        for c in side:
            bench.close(c)

    nodes = sum(bench.nodes)
    stolen1, jiffies1 = cpu_jiffies()
    steal_share = (stolen1 - stolen0) / max(1, jiffies1 - jiffies0)
    if trace:
        values = _per_layer(bench, run, traced, tracer, cold_infos, probes,
                            nodes)
        values["host.steal_share"] = steal_share
        if trace_path:
            tracer.write_chrome(trace_path)
    else:
        values = {
            "setup_s": min(setup_s),
            "dyn_inst_per_s": run.rate("dyn", nodes),
            "lvl_inst_per_s": run.rate("lvl", nodes),
            "pool_inst_per_s": run.rate("pool", nodes),
            # round 1 = the second pass of the fresh dyn session
            "virt_inst_per_s": nodes / run.total("dyn", "virtual_s", 1),
            "peak_rss_mb": peak_rss_mb(),
        }
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    unknown = set(values) - {m.name for m in declared}
    if unknown:
        raise ValueError(f"metrics missing from bench_e2e.spec: "
                         f"{sorted(unknown)}")
    # a per-layer metric that does not apply to this workload prints 0
    metrics = {m.name: {"value": float(values.get(m.name, 0.0)),
                        "unit": m.unit} for m in declared}
    virt = [run.total("dyn", "virtual_s", r)
            for r in range(1, len(run.info["dyn"]))]
    return {
        "workload": bench.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": checker.correct,
        "attempted": checker.attempted, "failed": checker.failed,
        "failures": checker.messages, "metrics": metrics,
        "context": {
            "nodes": nodes, "steps": len(bench.nodes),
            "rounds": len(run.wall["dyn"]),
            "floors": {n: estimator.summarize(w)
                       for n, w in run.wall.items() if w},
            # every timed step, [round][step] seconds: lets a reader
            # re-derive the floors or try another estimator offline
            "samples": {n: [[round(t, 6) for t in row] for row in w]
                        for n, w in run.wall.items() if w},
            "setup_reps_s": setup_s,
            "probe_ms": {"min": min(probes), "median":
                         statistics.median(probes), "max": max(probes)},
            "steal_share": steal_share,
            # the adaptive policy may keep tuning after pass 2; the
            # metric is pinned to pass 2, this records whether it matters
            "virt_same_every_pass": len(set(virt)) <= 1,
            "skipped_executors": skipped,
            **bench.context(),
        },
    }


def span_floor(tracer: Tracer, name: str, prefix: str) -> float:
    """Sum over steps of the fastest ``name`` span(s) seen for that step
    position, across the traced passes and configs under ``prefix``."""
    by_step: dict = {}
    for step_id, durs in tracer.durations(name, prefix).items():
        pos = step_id.rsplit("/", 1)[-1]
        by_step[pos] = min(by_step.get(pos, float("inf")), sum(durs))
    return sum(by_step.values())


def _per_layer(bench: Bench, run: Measured, traced: Measured,
               tracer: Tracer, cold_infos: list, probes: list,
               nodes: int) -> dict:
    """Every metric of ``spec.PER_LAYER`` this workload can fill."""
    w = bench.name
    dyn, lvl = run.floor("dyn"), run.floor("lvl")
    # each setup call's span, fastest repetition: "<span name>_s"
    values = {f"{name}_s": min((sum(d) for d in tracer.durations(
                  name, f"{w}/setup/").values()), default=0.0)
              for name in ("data.treebank", "data.batch_trees",
                           "models.build_graph", "core.autodiff",
                           "nn.build_apply", "session.init")}
    cold = cold_infos[0]
    numpy_floor = sum(min(w) for w in bench.oracle_wall)
    # a fresh graph's first dyn pass: FramePlan compile + first-use costs
    cold_dyn_s = bench.setup(keep=False, cold="dyn")["cold_pass_s"]
    ops = run.total("dyn", "ops", 1)
    batches = run.total("dyn", "batches", 1)
    widths = run.total("lvl", "width_count")
    probes_hits = (run.total("lvl", "lp_cache_hits")
                   + run.total("lvl", "lp_cache_misses"))
    k = len(traced.wall["dyn"])
    last = {n: estimator.floor_s(run.wall[n][-k:]) for n in traced.wall}
    values.update({
        "plan.cold_extra_s": cold_dyn_s - dyn,
        "level_plan.cold_extra_s":
            min(i["cold_pass_s"] for i in cold_infos) - lvl,
        "executor.workerpool.start_s": _start_cost_s("workerpool"),
        "executor.procpool.start_s": _start_cost_s("procpool"),
        "level_plan.compile_ms": cold.get("lp_compile_ms", 0.0),
        "level_plan.plans_compiled": cold.get("lp_cache_misses", 0),
        "data.feed_us_per_inst":
            1e6 * span_floor(tracer, "data.feed_dict", f"{w}/") / nodes,
        "data.profile_us_per_inst":
            1e6 * span_floor(tracer, "data.shape_profiles", f"{w}/lvl/")
            / nodes,
        "scheduler.frames_per_inst": run.total("dyn", "frames", 1) / nodes,
        "scheduler.ops_per_inst": ops / nodes,
        "scheduler.us_per_op": 1e6 * dyn / ops,
        "batching.fused_batches": batches,
        "batching.mean_batch":
            run.total("dyn", "batched_ops", 1) / batches if batches else 0.0,
        "batching.max_batch":
            max(i.get("max_batch", 0) for i in run.info["dyn"][1]),
        "batching.wall_gain_x": run.floor("unb") / dyn,
        "batching.virt_gain_x": (run.total("unb", "virtual_s")
                                 / run.total("dyn", "virtual_s", 1)),
        "level_plan.speedup_x": dyn / lvl,
        "level_plan.hit_rate":
            run.total("lvl", "lp_cache_hits") / probes_hits
            if probes_hits else 0.0,
        "level_plan.fallbacks": run.total("lvl", "lp_fallbacks"),
        "level_plan.partial_roots": run.total("lvl", "lp_partial"),
        "level_plan.subtree_runs": run.total("lvl", "lp_subtree"),
        "level_plan.evictions": run.total("lvl", "lp_evictions"),
        "level_plan.mean_width":
            run.total("lvl", "width_sum") / widths if widths else 0.0,
        "ops.numpy_floor_s": numpy_floor,
        "ops.kernel_share": numpy_floor / dyn,
        "runtime.overhead_x": dyn / numpy_floor,
        "executor.workerpool.scaling_x":
            run.floor("wp_1") / run.floor("pool_free"),
        "executor.workerpool.one_cpu_x":
            run.floor("pool_free") / run.floor("pool"),
        "executor.procpool.lvl_inst_per_s": run.rate("procpool", nodes),
        "executor.threaded.dyn_inst_per_s": run.rate("threaded", nodes),
        "cost_model.virt_over_wall_1w":
            run.total("virt_1w", "virtual_s") / dyn,
        "trace.coverage": tracer.coverage(),
        "trace.overhead_x":
            statistics.median(traced.floor(n) / last[n] for n in last),
        "host.probe_ms_min": min(probes),
        "host.probe_ms_med": statistics.median(probes),
        "host.nproc": nproc(),
    })
    values.update(bench.layer_metrics(run))
    return values
