"""serve_longtail: short distinct-shape trees, one tree per request.

Wall-clock part — closed loop: each step is one burst (``submit`` x 16,
then ``drain()``) against one long-lived ``Session.serve`` server per
config; the next burst is sent only after the previous one drained.
Virtual part (traced runs) — open loop on ``event``/36 workers: seeded
Poisson arrivals at two fixed rates, a size-proportional deadline per
request, EDF admission and cost-predicted shedding; latency is taken
from the *scheduled* arrival, and a shed, rejected or timed-out request
counts as a goodput miss (not as a failed operation: shedding under 2x
overload is the server doing its job).
"""

from __future__ import annotations

import statistics
import time

import repro
from repro.baselines.folding import FoldingExecutor
from repro.data.batching import batch_trees
from repro.harness import poisson_request_stream
from repro.models import TreeLSTMSentiment, tree_lstm_config

from . import estimator
from .harness import (VIRTUAL_WORKERS, Bench, Config, Measured,
                      pool_workers, stats_info)
from .inputs import make_trees, stratified_lengths

__all__ = ["ServeLongtail"]

BURSTS = 2
BURST = 16
#: half a burst: the second half of every burst waits in the server queue
MAX_IN_FLIGHT = 8
#: exp(N(2.3, 0.55)) clipped to [4, 60] words: ~11 words, ~21 nodes a tree
LENGTHS = stratified_lengths(BURSTS * BURST, 2.3, 0.55, 4, 60)
CANON_DEPTH = 3

#: Open-loop rates in requests per virtual second, frozen when this file
#: was written: saturated throughput of these trees at MAX_IN_FLIGHT on
#: 36 virtual workers measured 1340/s (seed 7) and 1428/s (seed 8) with
#: a 200-request backlog, so RATE_LO is ~0.6x capacity and RATE_HI ~2x.  They are constants, not re-derived per
#: run, so a faster server shows as lower latency, not as a higher rate.
RATE_LO = 800.0
RATE_HI = 2800.0
#: 200 samples leave ten beyond p95 (estimator.supported_percentile)
N_LO = 200
N_HI = 120
QUEUE_COST_CAP = 0.04


def deadline_s(nodes: int) -> float:
    """Size-proportional completion SLO (small trees promise tight
    latencies) — the repo's bench_serving_slo rule."""
    return 0.01 + 0.0005 * nodes


class _Service:
    """One model, its batch-1 graph and the request payloads."""

    def __init__(self, seed: int, span):
        with span("data.treebank"):
            self.trees = make_trees(seed, LENGTHS)
        with span("data.batch_trees"):
            self.singles = [batch_trees([t]) for t in self.trees]
        with span("models.build_graph"):
            self.runtime = repro.Runtime()
            self.model = TreeLSTMSentiment(tree_lstm_config(), self.runtime)
            self.built = self.model.build_recursive(1)

    def session(self, config: Config) -> repro.Session:
        kwargs = {}
        if config.batching:
            kwargs.update(batching=True,
                          batch_policy=repro.QueueAwareBatchPolicy())
        if config.compiled:
            kwargs["level_canon_depth"] = CANON_DEPTH
        return repro.Session(self.built.graph, self.runtime,
                             engine=config.engine,
                             num_workers=config.workers, **kwargs)

    def burst(self, server, config: Config, s: int, span) -> list:
        """Submit burst ``s`` and drain it; returns the tickets."""
        built, fetch = self.built, self.built.root_logits
        tickets = []
        for single in self.singles[s * BURST:(s + 1) * BURST]:
            with span("data.feed_dict"):
                feed = built.feed_dict(single)
            profile = None
            if config.compiled:
                with span("data.shape_profiles"):
                    profile = built.shape_profiles(single)
            with span("server.submit"):
                tickets.append(server.submit(
                    fetch, feed, size_hint=single.total_nodes,
                    shape_profile=profile))
        with span("server.drain"):
            server.drain()
        return tickets


class ServeLongtail(Bench):
    name = "serve_longtail"

    def __init__(self, seed, tracer, checker):
        super().__init__(seed, tracer, checker)
        w = pool_workers()
        self.main = [Config("dyn", "event", VIRTUAL_WORKERS),
                     Config("lvl", "event", VIRTUAL_WORKERS, compiled=True),
                     Config("pool", "workerpool", w, one_cpu=True)]
        self.side = [
            Config("unb", "event", VIRTUAL_WORKERS, batching=False),
            Config("pool_free", "workerpool", w),
            Config("wp_lvl", "workerpool", w, compiled=True),
            Config("wp_1", "workerpool", 1),
            Config("procpool", "procpool", w, compiled=True, rounds=2),
            Config("threaded", "threaded", w, rounds=2),
            Config("virt_1w", "event", 1, rounds=2),
        ]
        self._servers: dict = {}
        self._submitted: dict = {}
        self._last: dict = {}
        self.latency: dict = {}     # config -> [(queue_s, total_s), ...]

    # -- setup ---------------------------------------------------------------

    def setup(self, keep: bool, cold: str = "lvl") -> dict:
        span = self.tracer.span
        service = _Service(self.seed, span)
        config = self.config(cold)
        with span("session.init"):
            server = service.session(config).serve(
                max_in_flight=MAX_IN_FLIGHT)
        t0 = time.perf_counter()
        with span("setup.cold_pass"):
            bursts = [service.burst(server, config, s, span)
                      for s in range(BURSTS)]
        cold_s = time.perf_counter() - t0
        info = stats_info(server.stats)
        if keep:
            self.service = service
            self.nodes = [sum(b.total_nodes for b in
                              service.singles[s * BURST:(s + 1) * BURST])
                          for s in range(BURSTS)]
            # the long-lived server the timed rounds keep using
            self._adopt(cold, server, BURSTS * BURST, info)
        else:
            server.close()
            self._conserved(f"setup/{cold}", server, BURSTS * BURST)
        self.verify_cold(config, bursts)
        return {"cold_pass_s": cold_s, **info}

    def make_references(self, oracle_passes: int = 1) -> None:
        service = self.service
        session = service.session(self.config("unb"))
        folding = FoldingExecutor(service.model)
        self.oracle_wall = [[] for _ in range(BURSTS)]
        for s in range(BURSTS):
            lo = s * BURST
            for _ in range(oracle_passes):
                t0 = time.perf_counter()
                with self.tracer.span("oracle.folding",
                                      f"{self.name}/oracle/0/{s}"):
                    # one level-batched pass over the burst's trees
                    _, logits, _, _ = folding.forward(
                        batch_trees(service.trees[lo:lo + BURST]))
                self.oracle_wall[s].append(time.perf_counter() - t0)
            for i in range(lo, lo + BURST):
                oracle = {"logits": logits[i - lo:i - lo + 1]}
                # a served request must equal a one-shot Session.run
                value = session.run(
                    service.built.root_logits,
                    service.built.feed_dict(service.singles[i]))
                self.checker.check_oracle(f"{self.name}/reference/{i}",
                                          {"logits": value}, oracle)
                self.reference.append({"logits": value})
                self.oracle.append(oracle)
        self.verify_cold()

    # -- the timed operation -------------------------------------------------

    def _adopt(self, name: str, server, submitted: int, info: dict) -> None:
        self._servers[name] = server
        self._submitted[name] = submitted
        self._last[name] = info

    def open(self, config: Config, **serve_kwargs) -> None:
        if config.name not in self._servers:   # else: setup opened it
            server = self.service.session(config).serve(
                max_in_flight=MAX_IN_FLIGHT, **serve_kwargs)
            self._adopt(config.name, server, 0, stats_info())

    def close(self, config: Config) -> None:
        server = self._servers.pop(config.name)
        server.close()
        self._conserved(config.name, server,
                        self._submitted.pop(config.name))

    def _conserved(self, label: str, server, submitted: int) -> None:
        done = (server.completed + server.rejected + server.cancelled
                + server.timed_out)
        self.checker.expect(
            f"{self.name}/{label}/conservation", done == submitted,
            f"completed+rejected+cancelled+timed_out = {done}, "
            f"submitted = {submitted}")

    def step(self, config: Config, s: int):
        server = self._servers[config.name]
        tickets = self.service.burst(server, config, s, self.tracer.span)
        self._submitted[config.name] += BURST
        # server stats are cumulative over the session: report deltas
        now = stats_info(server.stats)
        before = self._last[config.name]
        self._last[config.name] = now
        info = {k: (v if k in ("max_batch", "peak_live_bytes")
                    else v - before[k]) for k, v in now.items()}
        return tickets, info

    def verify(self, config: Config, s: int, step_id: str, tickets) -> None:
        """Every request is one operation."""
        samples = self.latency.setdefault(config.name, [])
        for k, ticket in enumerate(tickets):
            i = s * BURST + k
            label = f"{step_id}/{i}"
            if ticket.status != "done":
                self.checker.expect(label, False,
                                    f"request ended {ticket.status}")
                continue
            self.checker.check(label, {"logits": ticket.value},
                               self.reference[i], self.oracle[i])
            # only ``pool``'s are read: the event engine's are virtual
            samples.append((ticket.queue_time, ticket.latency))

    # -- the virtual open loop -----------------------------------------------

    def _open_loop(self, rate: float, n: int) -> dict:
        """Serve ``n`` Poisson arrivals at ``rate`` on a fresh server."""
        config = Config(f"open_{rate:g}", "event", VIRTUAL_WORKERS)
        self.open(config, order="edf", shedding="cost",
                  queue_cost_cap=QUEUE_COST_CAP)
        server = self._servers[config.name]
        service = self.service
        arrivals = poisson_request_stream(n, rate, len(service.trees),
                                          seed=self.seed).arrivals
        tickets = []
        for when, i in arrivals:
            single = service.singles[i]
            tickets.append((i, server.submit(
                service.built.root_logits, service.built.feed_dict(single),
                at=when, timeout=deadline_s(single.total_nodes),
                size_hint=single.total_nodes)))
        self._submitted[config.name] = n
        stats = server.drain()
        done = [(i, t) for i, t in tickets if t.status == "done"]
        for k, (i, t) in enumerate(done):
            self.checker.check(f"{self.name}/{config.name}/{k}",
                               {"logits": t.value}, self.reference[i],
                               self.oracle[i])
        out = {
            "latency_s": [t.latency for _, t in done],
            "queue_s": [t.queue_time for _, t in done],
            "goodput_per_s": stats.goodput_requests / stats.virtual_time,
            "rejected_share": server.rejected / n,
            "timed_out_share": server.timed_out / n,
        }
        self.close(config)
        return out

    # -- per-layer -----------------------------------------------------------

    def layer_metrics(self, run: Measured) -> dict:
        nodes = sum(self.nodes)
        cell = self.service.model.cell
        leaves = sum(t.num_leaves for t in self.service.trees)
        spans = self.tracer.durations
        prefix = f"{self.name}/dyn/traced"
        submit = [d for ds in spans("server.submit", prefix).values()
                  for d in ds]
        drain = sum(d for ds in spans("server.drain", prefix).values()
                    for d in ds)
        burst = sum(d for ds in spans("step", prefix).values() for d in ds)
        queue, total = zip(*self.latency["pool"])
        lo = self._open_loop(RATE_LO, N_LO)
        hi = self._open_loop(RATE_HI, N_HI)
        values = {
            "graph.ops_built": self.service.built.graph.num_operations,
            "ops.mflop_per_step":
                (cell.leaf_flops(leaves)
                 + cell.internal_flops(nodes - leaves)) / BURSTS / 1e6,
            "executor.workerpool.dyn_inst_per_s":
                run.rate("pool_free", nodes),
            "executor.workerpool.lvl_inst_per_s": run.rate("wp_lvl", nodes),
            "server.submit_us": 1e6 * statistics.median(submit),
            "server.drain_share": drain / burst,
            "server.wall_p50_ms": 1e3 * statistics.median(total),
            "server.wall_p90_ms": 1e3 * estimator.tail(total, 90.0),
            "server.wall_queue_p50_ms": 1e3 * statistics.median(queue),
            "server.mean_batch":
                run.total("dyn", "batched_ops", 1)
                / max(1, run.total("dyn", "batches", 1)),
            "server.virt_p50_ms": 1e3 * statistics.median(lo["latency_s"]),
            "server.virt_p95_ms": 1e3 * estimator.tail(lo["latency_s"], 95.0),
            "server.virt_queue_p95_ms":
                1e3 * estimator.tail(lo["queue_s"], 95.0),
            "server.virt_goodput_per_s": hi["goodput_per_s"],
            "server.rejected_share": hi["rejected_share"],
            "server.timed_out_share": hi["timed_out_share"],
        }
        if run.has("procpool"):
            values["executor.procpool.vs_workerpool_x"] = (
                run.floor("wp_lvl") / run.floor("procpool"))
        self._open_loop_context = {
            "rate_lo": RATE_LO, "rate_hi": RATE_HI,
            "lo_completed": len(lo["latency_s"]), "lo_sent": N_LO,
            "hi_sent": N_HI, "wall_latency_samples": len(total)}
        return values

    def context(self) -> dict:
        trees = self.service.trees
        return {"trees": len(trees), "model": "treelstm",
                "distinct_shapes": len({t.shape_profile for t in trees}),
                "max_in_flight": MAX_IN_FLIGHT,
                **getattr(self, "_open_loop_context", {})}
