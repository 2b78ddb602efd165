"""Uniform runners for the four execution strategies the paper compares.

Every runner exposes ``train_step(batch) -> (loss, virtual_seconds)`` and
``infer_step(batch) -> (root_logits, virtual_seconds)`` so the throughput
harness can treat Recursive / Iterative / Unrolling / Folding identically.

* Recursive and Iterative build their graph **once per batch size** and
  reuse it every step (the embedded-control-flow advantage).
* Unrolling rebuilds a fresh graph **every step** (PyTorch-style); its
  virtual time includes per-op graph-construction cost and it executes
  with a single-worker eager profile.
* Folding runs the numpy dynamic-batching executor under the GPU profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.baselines.folding import FoldingExecutor
from repro.data.batching import TreeBatch
from repro.nn.optimizers import Adagrad
from repro.nn.trainer import Trainer
from repro.runtime.batching import BatchPolicy
from repro.runtime.cost_model import CostModel, client_eager, testbed_cpu
from repro.runtime.session import Session

__all__ = ["RunnerConfig", "RecursiveRunner", "BatchedRecursiveRunner",
           "IterativeRunner", "UnrolledRunner", "FoldingRunner",
           "make_runner"]

#: Paper testbed: 2 x 18-core Xeon.
PAPER_WORKERS = 36
#: Client-side graph construction cost per op for the unrolling baseline.
BUILD_COST_PER_OP = 9e-6


@dataclass
class RunnerConfig:
    num_workers: int = PAPER_WORKERS
    cost_model: Optional[CostModel] = None
    scheduler: str = "fifo"
    #: executor name ("event": the virtual clock | "workerpool": the
    #: wall clock).  The virtual-time paper figures use "event".
    engine: str = "event"
    learning_rate: float = 0.05
    #: cross-instance dynamic micro-batching in the engines: ``False``,
    #: ``True`` (fixed flush policy) or ``"adaptive"`` (per-signature
    #: adaptive flush policy — covers the training path: backward frames,
    #: gradient kernels and bulk value-cache traffic all coalesce)
    batching: "bool | str" = False
    batch_policy: Optional[BatchPolicy] = None

    def model_for(self):
        return self.cost_model or testbed_cpu()


class _GraphRunner:
    """Shared logic for runners with a pre-built reusable graph."""

    builder = ""
    kind = ""

    def __init__(self, model, batch_size: int,
                 config: Optional[RunnerConfig] = None, train: bool = True):
        self.model = model
        self.batch_size = batch_size
        self.config = config or RunnerConfig()
        self.built = getattr(model, self.builder)(batch_size)
        session_kwargs = dict(num_workers=self.config.num_workers,
                              cost_model=self.config.model_for(),
                              scheduler=self.config.scheduler,
                              engine=self.config.engine,
                              batching=self.config.batching,
                              batch_policy=self.config.batch_policy)
        self.trainer = None
        if train:
            self.trainer = Trainer(self.built.graph, self.built.loss,
                                   Adagrad(self.config.learning_rate),
                                   model.runtime,
                                   session_kwargs=session_kwargs)
            self.infer_session = self.trainer.session
        else:
            self.infer_session = Session(self.built.graph, model.runtime,
                                         record=False, **session_kwargs)

    def train_step(self, batch: TreeBatch) -> tuple[float, float]:
        loss = self.trainer.step(self.built.feed_dict(batch))
        return loss, self.trainer.last_step_stats.virtual_time

    def infer_step(self, batch: TreeBatch) -> tuple[np.ndarray, float]:
        logits = self.infer_session.run(self.built.root_logits,
                                        self.built.feed_dict(batch),
                                        record=False)
        return logits, self.infer_session.last_stats.virtual_time


class RecursiveRunner(_GraphRunner):
    """The paper's approach: recursive SubGraph + InvokeOps."""

    builder = "build_recursive"
    kind = "Recursive"


class BatchedRecursiveRunner(RecursiveRunner):
    """Recursive execution with cross-instance dynamic micro-batching.

    Same graph and values as :class:`RecursiveRunner` — the engines fuse
    same-signature ready ops from concurrent frames into vectorized kernel
    calls, closing the throughput gap to Fold-style dynamic batching while
    keeping the recursive programming model.  Training steps batch too
    (backward frame spawns, gradient kernels, bulk value-cache traffic);
    the adaptive per-signature flush policy is the default so bucket
    min-sizes and timeouts tune themselves to the workload.
    """

    kind = "BatchedRecursive"

    def __init__(self, model, batch_size: int,
                 config: Optional[RunnerConfig] = None, train: bool = True):
        config = replace(config) if config is not None else RunnerConfig()
        if not config.batching:
            config.batching = "adaptive"
        super().__init__(model, batch_size, config, train=train)


class IterativeRunner(_GraphRunner):
    """Embedded-control-flow baseline: batched topological while_loop."""

    builder = "build_iterative"
    kind = "Iterative"


class UnrolledRunner:
    """Static-unrolling baseline: a fresh graph per batch, eager profile."""

    kind = "Unrolling"

    def __init__(self, model, batch_size: int,
                 config: Optional[RunnerConfig] = None, train: bool = True):
        self.model = model
        self.batch_size = batch_size
        self.config = config or RunnerConfig()
        self.cost_model = client_eager()
        self.optimizer = Adagrad(self.config.learning_rate)

    def _session_kwargs(self) -> dict:
        # Eager execution: a single client-side stream of ops.
        return dict(num_workers=1, cost_model=self.cost_model)

    def train_step(self, batch: TreeBatch) -> tuple[float, float]:
        built = self.model.build_unrolled(batch)
        build_time = built.build_op_count * BUILD_COST_PER_OP
        trainer = Trainer(built.graph, built.loss, self.optimizer,
                          self.model.runtime,
                          session_kwargs=self._session_kwargs())
        loss = trainer.step({})
        return loss, build_time + trainer.last_step_stats.virtual_time

    def infer_step(self, batch: TreeBatch) -> tuple[np.ndarray, float]:
        built = self.model.build_unrolled(batch)
        build_time = built.build_op_count * BUILD_COST_PER_OP
        session = Session(built.graph, self.model.runtime, record=False,
                          **self._session_kwargs())
        logits = session.run(built.root_logits)
        return logits, build_time + session.last_stats.virtual_time


class FoldingRunner:
    """TensorFlow-Fold-style dynamic batching on the GPU profile."""

    kind = "Folding"

    def __init__(self, model, batch_size: int,
                 config: Optional[RunnerConfig] = None, train: bool = True):
        self.model = model
        self.batch_size = batch_size
        self.config = config or RunnerConfig()
        self.executor = FoldingExecutor(model)
        self.optimizer = Adagrad(self.config.learning_rate)

    def train_step(self, batch: TreeBatch) -> tuple[float, float]:
        loss, _, vtime = self.executor.train_step(batch, self.optimizer)
        return loss, vtime

    def infer_step(self, batch: TreeBatch) -> tuple[np.ndarray, float]:
        _, logits, vtime = self.executor.infer_step(batch)
        return logits, vtime


_RUNNERS = {"Recursive": RecursiveRunner,
            "BatchedRecursive": BatchedRecursiveRunner,
            "Iterative": IterativeRunner,
            "Unrolling": UnrolledRunner, "Folding": FoldingRunner}


def make_runner(kind: str, model, batch_size: int,
                config: Optional[RunnerConfig] = None, train: bool = True):
    try:
        cls = _RUNNERS[kind]
    except KeyError:
        raise ValueError(f"unknown runner kind {kind!r}; "
                         f"choose from {sorted(_RUNNERS)}") from None
    return cls(model, batch_size, config, train=train)
