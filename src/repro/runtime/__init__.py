"""Layered runtime: one scheduler core, pluggable executor backends.

The frame-lifecycle scheduler (:mod:`repro.runtime.scheduler`,
:class:`SchedulerCore`) owns the recursion-aware execution semantics —
frame spawn/seed/complete over compiled plans, serving admission,
selective caching, micro-batching decisions — and executor backends
supply only the mechanics.  Two are built in: the virtual-time
:class:`EventEngine` (``engine="event"``, the deterministic oracle) and
the centralized-master :class:`~repro.runtime.workerpool
.WorkerPoolEngine` (``"workerpool"``), the wall-clock backend whose
master executes every kernel itself.  Backends register by name
(:func:`register_executor`) and :class:`Session` resolves ``engine=``
through the registry.  See ARCHITECTURE.md for the layer diagram.

Every backend supports cross-instance dynamic micro-batching: with
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
from .scheduler import (SchedulerCore, available_executors,
                        register_executor, resolve_executor)
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
           "available_executors",
           "register_executor", "resolve_executor", "FramePlan",
           "plan_for", "plan_for_fetches", "RecursiveServer",
           "RequestTicket", "ServerOverloaded", "RequestCancelled",
           "DeadlineExceeded", "Runtime", "Session",
           "default_runtime", "reset_default_runtime", "RunStats",
           "percentile", "GradientAccumulator", "Variable", "VariableStore"]
