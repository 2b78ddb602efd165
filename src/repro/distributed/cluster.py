"""Multi-machine data-parallel training (paper Figure 10), simulated.

The paper scales TreeLSTM training to 8 machines with synchronous data
parallelism over a parameter server [12].  This module reproduces the
step-time arithmetic of that setup on one host:

* the global batch is split into per-machine shards;
* every machine runs the recursive implementation on its shard (its
  virtual compute time measured by the engine — shards run sequentially on
  the host, but their gradients genuinely sum in the accumulators, exactly
  like synchronous data parallelism);
* the synchronous step time is ``max(shard compute times) + communication
  + parameter update``, where communication is a push+pull of the full
  parameter set over the configured link.

Near-linear scaling emerges because per-step compute falls ~1/M while the
communication term (a few MB of parameters) stays small — with stragglers
(the max over unevenly-sized shards) providing the paper's slight
sublinearity (1.85×/3.65×/7.34× at 2/4/8 machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.data.batching import TreeBatch, batch_trees
from repro.nn.trainer import Trainer
from repro.runtime.session import Runtime

__all__ = ["CommunicationModel", "DataParallelCluster"]


@dataclass
class CommunicationModel:
    """Parameter-server style synchronous gradient exchange."""

    bandwidth_bytes_per_s: float = 1.2e9   # 10 GbE link
    latency_s: float = 120e-6
    #: parameter-server processing per byte (aggregation)
    server_rate: float = 4.0e9

    def round_trip(self, param_bytes: int, num_machines: int) -> float:
        """Push gradients + pull parameters, server aggregates M shards."""
        transfer = 2.0 * param_bytes / self.bandwidth_bytes_per_s
        aggregate = num_machines * param_bytes / self.server_rate
        return 2 * self.latency_s + transfer + aggregate


class DataParallelCluster:
    """Synchronous data parallelism over M simulated machines: shards
    run sequentially and report virtual compute times (see the module
    docstring)."""

    def __init__(self, model, global_batch: int, num_machines: int,
                 optimizer, runtime: Runtime,
                 comm: Optional[CommunicationModel] = None,
                 session_kwargs: Optional[dict] = None):
        if global_batch % num_machines:
            raise ValueError(
                f"global batch {global_batch} does not divide across "
                f"{num_machines} machines")
        self.model = model
        self.runtime = runtime
        self.num_machines = num_machines
        self.global_batch = global_batch
        self.shard_size = global_batch // num_machines
        self.comm = comm or CommunicationModel()
        built = model.build_recursive(self.shard_size)
        self.trainer = Trainer(built.graph, built.loss, optimizer,
                               runtime, session_kwargs=session_kwargs)
        self.built = built
        self.param_bytes = sum(
            runtime.variables.read(v.name).nbytes
            for v in runtime.trainable_variables())

    def split(self, trees: Sequence) -> list[TreeBatch]:
        """Stratified sharding: deal size-sorted trees round-robin so shard
        compute times stay balanced (the standard straggler mitigation)."""
        if len(trees) != self.global_batch:
            raise ValueError(
                f"need {self.global_batch} trees, got {len(trees)}")
        by_size = sorted(trees, key=lambda t: t.num_nodes, reverse=True)
        shards: list[list] = [[] for _ in range(self.num_machines)]
        for i, tree in enumerate(by_size):
            shards[i % self.num_machines].append(tree)
        return [batch_trees(shard) for shard in shards]

    def train_step(self, trees: Sequence) -> tuple[float, float]:
        """One synchronous step; returns (mean loss, virtual step time)."""
        shards = self.split(trees)
        self.runtime.accumulators.zero()
        losses = []
        compute_times = []
        for shard in shards:
            feeds = self.built.feed_dict(shard)
            self.runtime.cache.clear()
            values = self.trainer.session.run(self.trainer._grad_fetches,
                                              feeds, record=True)
            losses.append(float(values[0]))
            compute_times.append(self.trainer.session.last_stats.virtual_time)
        # apply once on the aggregated gradients
        self.trainer.session.run(self.trainer._apply_fetches, record=False)
        apply_time = self.trainer.session.last_stats.virtual_time
        step_time = (max(compute_times)
                     + self.comm.round_trip(self.param_bytes,
                                            self.num_machines)
                     + apply_time)
        return float(np.mean(losses)), step_time

    def throughput(self, trees: Sequence, steps: int = 3) -> float:
        """Instances/second over ``steps`` synchronous steps."""
        rng = np.random.default_rng(11)
        total_time = 0.0
        pool = list(trees)
        for _ in range(steps):
            replace = len(pool) < self.global_batch
            picks = rng.choice(len(pool), size=self.global_batch,
                               replace=replace)
            _, step_time = self.train_step([pool[i] for i in picks])
            total_time += step_time
        return self.global_batch * steps / total_time
