"""The three ``Session.run`` workloads: infer_b10, train_b10, kernel_bound.

A step is one batch of ten trees through ``Session.run``.  Its wall
covers ``built.feed_dict(batch)`` + ``built.shape_profiles(batch)`` +
the run call(s); ``batch_trees`` is setup.  A training step is driven
through the same two ``Session.run`` calls ``Trainer.step`` makes
(``accumulators.zero()``, the gradient fetches with ``record=True``,
then the ``build_apply`` fetches) so ``shape_profile=`` can be passed;
variables are restored from a snapshot before each timed step, outside
the timing, so every round computes identical values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import repro
from repro.baselines.folding import FoldingExecutor
from repro.data.batching import batch_trees
from repro.models import (ModelConfig, RNTNSentiment, TreeLSTMSentiment,
                          tree_lstm_config)
from repro.nn.optimizers import Adagrad

from .harness import (VIRTUAL_WORKERS, Bench, Config, Measured,
                      pool_workers, span_floor, stats_info)
from .inputs import make_trees, stratified_lengths

__all__ = ["SweepSpec", "SweepBench", "INFER_B10", "TRAIN_B10",
           "KERNEL_BOUND"]

BATCH = 10


@dataclass(frozen=True)
class SweepSpec:
    name: str
    model: str                 # "treelstm" | "rntn"
    train: bool
    lengths: tuple             # sentence lengths, BATCH per step
    iterative_baseline: bool   # time the paper's iterative graph too


# Sizing: this host's speed drifts on a 5-20 s timescale, and the
# per-step floor only sees through that if every step gets many rounds.
# So each workload is ONE step of ten trees, small enough that a round
# over all configs takes ~1 s (trees per step were shrunk before rounds).
#
# The treebank's own length distribution (exp(N(3.3, 0.55)), ~27 words):
# 596 nodes.
INFER_B10 = SweepSpec(
    "infer_b10", "treelstm", train=False,
    lengths=stratified_lengths(BATCH, 3.3, 0.55, 4, 250),
    iterative_baseline=True)
# A training step costs ~2.5x an inference step per node and RNTN ~1.5x,
# so these two use shorter trees (exp(N(2.6, 0.55)), ~13 words): 286 nodes.
_SHORT = stratified_lengths(BATCH, 2.6, 0.55, 4, 250)
TRAIN_B10 = SweepSpec("train_b10", "treelstm", train=True, lengths=_SHORT,
                      iterative_baseline=True)
KERNEL_BOUND = SweepSpec("kernel_bound", "rntn", train=False, lengths=_SHORT,
                         iterative_baseline=False)


def _make_model(kind: str, runtime):
    if kind == "treelstm":
        # the repo's Fig. 8 model: hidden 64, embedding 32
        return TreeLSTMSentiment(tree_lstm_config(), runtime)
    # hidden 64 makes the O(H^3) tensor product dominate the runtime
    return RNTNSentiment(ModelConfig(hidden=64), runtime)


class _Program:
    """One model + built graph + the fetches a step runs."""

    def __init__(self, kind: str, train: bool, span, iterative: bool = False):
        with span("models.build_graph"):
            self.runtime = repro.Runtime()
            self.model = _make_model(kind, self.runtime)
            self.built = (self.model.build_iterative(BATCH) if iterative
                          else self.model.build_recursive(BATCH))
        self.fetches = [self.built.loss, self.built.root_logits]
        self.apply_fetches = None
        if train:
            with span("core.autodiff"):
                _, updates = repro.gradients(self.built.loss, [])
                self.fetches += [op.outputs[-1] for op in updates]
            with span("nn.build_apply"):
                self.apply_fetches = Adagrad(0.05).build_apply(
                    self.built.graph, self.runtime.trainable_variables(),
                    self.runtime)
        # taken after build_apply so the Adagrad slots are in it
        self.snapshot = self.runtime.variables.snapshot()

    def session(self, config: Config) -> repro.Session:
        return repro.Session(
            self.built.graph, self.runtime, engine=config.engine,
            num_workers=config.workers, record=self.apply_fetches is not None,
            batching="adaptive" if config.batching else False,
            track_live_bytes=config.track_live)

    def run(self, session, config: Config, batch, span):
        """One step; returns ``(outputs, info)``."""
        built, runtime = self.built, self.runtime
        with span("data.feed_dict"):
            feed = built.feed_dict(batch)
        kwargs = {}
        if config.compiled:
            with span("data.shape_profiles"):
                kwargs["shape_profile"] = built.shape_profiles(batch)
        if self.apply_fetches is None:
            with span("session.run"):
                values = session.run(self.fetches, feed, **kwargs)
            return ({"loss": values[0], "logits": values[1]},
                    stats_info(session.last_stats))
        with span("trainer.grad"):
            runtime.accumulators.zero()
            values = session.run(self.fetches, feed, record=True, **kwargs)
        grad_stats = session.last_stats
        with span("trainer.apply"):
            session.run(self.apply_fetches, record=False)
        outputs = {"loss": values[0], "logits": values[1]}
        for name in runtime.accumulators.names():
            outputs[f"grad/{name}"] = np.array(runtime.accumulators.read(name))
        return outputs, stats_info(grad_stats, session.last_stats)

    def restore(self) -> None:
        self.runtime.variables.restore(self.snapshot)


class SweepBench(Bench):
    spec: SweepSpec = None

    def __init__(self, seed, tracer, checker):
        super().__init__(seed, tracer, checker)
        self.name = self.spec.name
        w = pool_workers()
        self.main = [Config("dyn", "event", VIRTUAL_WORKERS),
                     Config("lvl", "event", VIRTUAL_WORKERS, compiled=True),
                     Config("pool", "workerpool", w, compiled=True,
                            one_cpu=True)]
        self.side = [
            # also the reference config every output is compared with
            Config("unb", "event", VIRTUAL_WORKERS, batching=False),
            # what a user of this host sees: the pool config on all CPUs
            Config("pool_free", "workerpool", w, compiled=True),
            Config("wp_dyn", "workerpool", w),
            Config("wp_1", "workerpool", 1, compiled=True),
            # context rows for 'executors earn their keep': two rounds
            Config("procpool", "procpool", w, compiled=True, rounds=2),
            Config("threaded", "threaded", w, rounds=2),
            # virtual time only: its second pass is the one read
            Config("virt_1w", "event", 1, rounds=2),
        ]
        if self.spec.iterative_baseline:
            self.side.append(Config("iter", "event", VIRTUAL_WORKERS,
                                    batching=False, iterative=True,
                                    rounds=2))
        if self.spec.train:
            self.side.append(Config("mem", "event", VIRTUAL_WORKERS,
                                    track_live=True, rounds=1))
        self._sessions: dict = {}

    # -- setup ---------------------------------------------------------------

    def setup(self, keep: bool, cold: str = "lvl") -> dict:
        span = self.tracer.span
        with span("data.treebank"):
            trees = make_trees(self.seed, self.spec.lengths)
        with span("data.batch_trees"):
            batches = [batch_trees(trees[i:i + BATCH])
                       for i in range(0, len(trees), BATCH)]
        program = _Program(self.spec.model, self.spec.train, span)
        config = self.config(cold)
        with span("session.init"):
            session = program.session(config)
        t0 = time.perf_counter()
        with span("setup.cold_pass"):
            passes = [program.run(session, config, batch, span)
                      for batch in batches]
        cold_s = time.perf_counter() - t0
        program.restore()
        if keep:
            self.program, self.batches = program, batches
            self.nodes = [b.total_nodes for b in batches]
            self._sessions[cold] = session
        self.verify_cold(config, [raw for raw, _ in passes])
        return {"cold_pass_s": cold_s,
                **{key: sum(info[key] for _, info in passes)
                   for key in ("lp_compile_ms", "lp_cache_misses")}}

    def _run_oracle(self, s: int) -> dict:
        """The same math in bare numpy, timed: the kernel floor."""
        folding = FoldingExecutor(self.program.model)
        t0 = time.perf_counter()
        with self.tracer.span("oracle.folding",
                              f"{self.name}/oracle/0/{s}"):
            loss, logits, state, _ = folding.forward(self.batches[s])
            out = {"loss": loss, "logits": logits}
            if self.spec.train:
                grads, _ = folding.backward(state)
                out.update({f"grad/{k}": v for k, v in grads.items()})
        self.oracle_wall[s].append(time.perf_counter() - t0)
        return out

    def make_references(self, oracle_passes: int = 1) -> None:
        program, unb = self.program, self.config("unb")
        session = program.session(unb)
        self.oracle_wall = [[] for _ in self.batches]
        for s, batch in enumerate(self.batches):
            program.restore()
            self.oracle.append([self._run_oracle(s)
                                for _ in range(oracle_passes)][-1])
            raw, _ = program.run(session, unb, batch, self.tracer.span)
            program.restore()
            self.checker.check_oracle(f"{self.name}/reference/{s}", raw,
                                      self.oracle[s])
            self.reference.append(raw)
        self.verify_cold()

    # -- the timed operation -------------------------------------------------

    def open(self, config: Config) -> None:
        if config.iterative:
            # its own model on its own runtime: same seed, same weights
            self._iterative = _Program(self.spec.model, self.spec.train,
                                       self.tracer.span, iterative=True)
            self._sessions[config.name] = self._iterative.session(config)
        elif config.name not in self._sessions:
            self._sessions[config.name] = self.program.session(config)

    def close(self, config: Config) -> None:
        # pool backends start and stop their workers inside every run
        self._sessions.pop(config.name, None)

    def _program_of(self, config: Config) -> _Program:
        return self._iterative if config.iterative else self.program

    def prepare(self, config: Config, s: int) -> None:
        if self.spec.train:
            self._program_of(config).restore()

    def step(self, config: Config, s: int):
        return self._program_of(config).run(
            self._sessions[config.name], config, self.batches[s],
            self.tracer.span)

    def verify(self, config: Config, s: int, step_id: str, raw) -> None:
        if config.iterative:
            # the iterative graph sums in another order: oracle only
            self.checker.check_oracle(step_id, raw, self.oracle[s])
        else:
            self.checker.check(step_id, raw, self.reference[s],
                               self.oracle[s])

    # -- per-layer -----------------------------------------------------------

    def _mflop_per_step(self) -> float:
        cell = self.program.model.cell
        flops = 0.0
        for batch in self.batches:
            leaves = sum(t.num_leaves for t in batch.trees)
            flops += (cell.leaf_flops(leaves)
                      + cell.internal_flops(batch.total_nodes - leaves))
        return flops * (3 if self.spec.train else 1) / len(self.batches) / 1e6

    def layer_metrics(self, run: Measured) -> dict:
        nodes = sum(self.nodes)
        virt = nodes / run.total("dyn", "virtual_s", 1)
        values = {
            "graph.ops_built": self.program.built.graph.num_operations,
            "ops.mflop_per_step": self._mflop_per_step(),
            "executor.workerpool.dyn_inst_per_s": run.rate("wp_dyn", nodes),
            "executor.workerpool.lvl_inst_per_s":
                run.rate("pool_free", nodes),
        }
        if run.has("procpool"):
            values["executor.procpool.vs_workerpool_x"] = (
                run.floor("pool_free") / run.floor("procpool"))
        if self.spec.train:
            prefix = f"{self.name}/dyn/"
            values.update({
                "trainer.grad_s":
                    span_floor(self.tracer, "trainer.grad", prefix),
                "trainer.apply_s":
                    span_floor(self.tracer, "trainer.apply", prefix),
                "cache.stores_per_inst":
                    run.total("dyn", "cache_stores", 1) / nodes,
                "cache.lookups_per_inst":
                    run.total("dyn", "cache_lookups", 1) / nodes,
                "memory.peak_live_mb":
                    run.total("mem", "peak_live_bytes") / 2**20,
            })
        if run.has("iter"):
            iter_virt = nodes / run.total("iter", "virtual_s")
            values.update({
                "baseline.iterative.inst_per_s": run.rate("iter", nodes),
                "baseline.iterative.virt_inst_per_s": iter_virt,
                "paper.rec_over_iter_virt_x": virt / iter_virt,
            })
        return values

    def context(self) -> dict:
        trees = [t for b in self.batches for t in b.trees]
        return {"trees": len(trees), "model": self.spec.model,
                "distinct_shapes": len({t.shape_profile for t in trees}),
                "max_depth": max(t.depth for t in trees)}


class InferB10(SweepBench):
    spec = INFER_B10


class TrainB10(SweepBench):
    spec = TRAIN_B10


class KernelBound(SweepBench):
    spec = KERNEL_BOUND
