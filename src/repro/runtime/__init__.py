"""Layered runtime: one scheduler core, one executor loop, two clocks.

The frame-lifecycle scheduler (:mod:`repro.runtime.scheduler`,
:class:`SchedulerCore`) owns the recursion-aware execution semantics —
frame spawn/seed/complete over compiled plans, serving admission,
selective caching, micro-batching decisions — under one executor loop,
:class:`EventEngine`, whose clock decides what differs between
simulated and real time: ``engine="event"`` runs it on the virtual
clock (the deterministic oracle), ``"workerpool"``
(:class:`~repro.runtime.workerpool.WorkerPoolEngine`) on the wall clock,
where one master executes every kernel itself.  See ARCHITECTURE.md for
the layer diagram.

Both clocks support cross-instance dynamic micro-batching: with
``batching=True`` (or ``"adaptive"``) on a :class:`Session`,
same-signature ready operations from concurrent frames fuse into single
vectorized kernel calls (see :mod:`repro.runtime.batching`), preserving
values bit-for-bit.  The training path batches end to end: backward frame
spawns, gradient kernels and the backprop value cache's bulk traffic.

Scheduling overhead is amortized through compiled frame plans
(:mod:`repro.runtime.plan`): every ``(graph, op-set)`` body is analyzed
once — dependency wiring, registry/kernel resolution, batch-signature
prefixes, store masks, cost entries — and millions of frame spawns reuse
the cached :class:`~repro.runtime.plan.FramePlan`.
"""

from .batching import (AdaptiveBatchPolicy, BatchPolicy, Coalescer,
                       QueueAwareBatchPolicy, batch_signature)
from .cost_model import (CostModel, calibrate_batch_member_cost, client_eager,
                         gpu_profile, testbed_cpu, unit_cost)
from .engine import EngineError, EventEngine
from .plan import FramePlan, plan_for, plan_for_fetches
from .scheduler import SchedulerCore, available_executors, resolve_executor
from .server import (DeadlineExceeded, RecursiveServer, RequestCancelled,
                     RequestTicket, ServerOverloaded)
from .session import Runtime, Session, default_runtime, reset_default_runtime
from .stats import RunStats, percentile
from .variables import GradientAccumulator, Variable, VariableStore
from .workerpool import WorkerPoolEngine

__all__ = ["AdaptiveBatchPolicy", "BatchPolicy", "Coalescer",
           "QueueAwareBatchPolicy", "batch_signature", "CostModel",
           "calibrate_batch_member_cost",
           "client_eager", "gpu_profile", "testbed_cpu",
           "unit_cost", "EngineError", "EventEngine",
           "WorkerPoolEngine", "SchedulerCore",
           "available_executors", "resolve_executor", "FramePlan",
           "plan_for", "plan_for_fetches", "RecursiveServer",
           "RequestTicket", "ServerOverloaded", "RequestCancelled",
           "DeadlineExceeded", "Runtime", "Session",
           "default_runtime", "reset_default_runtime", "RunStats",
           "percentile", "GradientAccumulator", "Variable", "VariableStore"]
