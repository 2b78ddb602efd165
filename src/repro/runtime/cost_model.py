"""Virtual-time cost models.

The paper's evaluation ran on a 2×18-core Xeon testbed (36 worker threads)
with a Titan X GPU for the folding baseline.  We reproduce the *scheduling
dynamics* of that testbed with a deterministic discrete-event simulation:
every kernel is really executed (values are exact), but time is accounted
by this cost model rather than by the host clock.

The constants below are calibrated so that the reproduced tables/figures
match the paper's *shapes* (who wins, crossover points, scaling curves) —
see EXPERIMENTS.md.  The mechanisms that drive those shapes are explicit:

* ``op_overhead`` — fixed per-kernel framework overhead (dominates tiny
  tensor math on CPU);
* ``dispatch_cost`` — serialized master/scheduler time per op (the "not
  every scheduled node can run concurrently" saturation effect);
* ``invoke_overhead`` / ``return_overhead`` — the recursion costs the
  paper names: argument passing, caller/callee context setup;
* ``loop_var_overhead`` — per-iteration control machinery of while-loops
  (Switch/Merge/Enter/NextIteration in TensorFlow terms);
* ``cache_entry_cost`` + byte-proportional terms — the backpropagation
  value cache writes that make recursive *training* of large-state models
  (TreeLSTM) resource-hungry, producing the paper's batch-25 crossover;
* the GPU profile — high launch latency, very high throughput, used by the
  folding baseline's batched kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.registry import op_def

__all__ = ["CostModel", "testbed_cpu", "client_eager", "gpu_profile",
           "unit_cost", "GpuCostParams", "calibrate_batch_member_cost"]


def _value_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    return 64  # opaque values: a handle


def _flops(op, inputs, kind: Optional[str] = None) -> float:
    """Estimate kernel floating-point work from runtime input shapes.

    ``kind`` is the op's cost-model entry (the ``cost=`` registry meta);
    callers holding a compiled :class:`~repro.runtime.plan.FramePlan`
    pass the precomputed value so the hot path skips the registry lookup.
    """
    if kind is None:
        kind = op_def(op.op_type).meta.get("cost", "elementwise")
    if kind == "matmul":
        a, b = inputs[0], inputs[1]
        m = a.shape[0] if a.ndim == 2 else 1
        k = a.shape[-1]
        n = b.shape[-1] if b.ndim == 2 else 1
        return 2.0 * m * k * n
    if kind == "trivial":
        return 8.0
    # elementwise and friends: proportional to the largest operand
    size = 1
    for v in inputs:
        if isinstance(v, np.ndarray):
            size = max(size, v.size)
    return float(size)


@dataclass
class CostModel:
    """Per-op virtual cost accounting (all times in seconds)."""

    name: str = "testbed_cpu"
    #: effective flops/second of one worker core
    flops_rate: float = 2.0e9
    #: fixed per-kernel overhead (framework + kernel launch)
    op_overhead: float = 18e-6
    #: serialized master scheduling cost per dispatched op
    dispatch_cost: float = 1.2e-6
    #: extra overhead for starting an InvokeOp frame (caller context setup)
    invoke_overhead: float = 55e-6
    #: overhead charged when an InvokeOp's frame returns its outputs
    return_overhead: float = 12e-6
    #: overhead for a conditional branch frame
    cond_overhead: float = 22e-6
    #: per-iteration while-loop base overhead
    loop_iter_overhead: float = 55e-6
    #: additional per-loop-variable, per-iteration overhead
    loop_var_overhead: float = 14e-6
    #: per-entry backprop cache write overhead (training only)
    cache_entry_cost: float = 6.5e-6
    #: cache byte-throughput (writes)
    cache_bytes_rate: float = 1.5e9
    #: cache lookup overhead
    cache_lookup_cost: float = 3.0e-6
    #: intra-op parallelism: a single large kernel (a batched matmul) can
    #: spread across this many cores, like TF's intra_op thread pool
    intra_op_parallelism: float = 8.0
    #: minimum work (seconds) to recruit one extra intra-op worker
    intra_op_grain: float = 40e-6
    #: per-member gather/scatter bookkeeping of a fused micro-batch (the
    #: in-engine analogue of Fold's regrouping, but without host<->device
    #: copies — orders of magnitude below ``regroup_per_node``).  The
    #: default is validated against host measurements of the stacked-numpy
    #: fused kernels; see :func:`calibrate_batch_member_cost`.
    batch_member_cost: float = 0.6e-6
    #: per-entry cost inside one *bulk* cache transaction: with the shard
    #: lock held and the bucket's keys grouped, each additional entry is a
    #: hash+insert, an order of magnitude below the per-op
    #: ``cache_entry_cost``/``cache_lookup_cost`` round-trips it replaces
    cache_bulk_entry_cost: float = 0.7e-6
    #: per-member cost of a fused frame spawn (binding dict setup and
    #: frame bookkeeping that batching the caller-context setup of
    #: Invoke/InvokeGrad cannot eliminate)
    async_batch_member_cost: float = 8e-6

    def op_cost(self, op, inputs, kind: Optional[str] = None) -> float:
        # called once per scheduled instance: the flops estimate is
        # inlined (same arithmetic as _flops) to keep this one frame
        if kind is None:
            kind = op_def(op.op_type).meta.get("cost", "elementwise")
        if kind == "cache":
            size = sum(_value_bytes(v) for v in inputs) if inputs else 64
            return self.cache_lookup_cost + size / self.cache_bytes_rate
        if kind == "trivial":
            return 0.25 * self.op_overhead + 8.0 / self.flops_rate
        if kind == "matmul":
            a, b = inputs[0], inputs[1]
            m = a.shape[0] if a.ndim == 2 else 1
            k = a.shape[-1]
            n = b.shape[-1] if b.ndim == 2 else 1
            work = (2.0 * m * k * n) / self.flops_rate
            if work > self.intra_op_grain:
                parallel = min(self.intra_op_parallelism,
                               work / self.intra_op_grain)
                work = work / max(parallel, 1.0)
            return self.op_overhead + work
        size = 1
        for v in inputs:
            if isinstance(v, np.ndarray) and v.size > size:
                size = v.size
        return self.op_overhead + float(size) / self.flops_rate

    def batch_cost(self, ops, inputs_lists,
                   kind: Optional[str] = None) -> float:
        """Virtual cost of one fused micro-batch kernel call.

        One fixed kernel overhead covers the whole bucket (that is the
        point of dynamic batching); members add their floating-point work
        plus a small per-member gather/scatter term, and a large fused
        matmul recruits intra-op parallelism exactly like a single big
        kernel would.
        """
        if kind is None:
            kind = op_def(ops[0].op_type).meta.get("cost", "elementwise")
        work = sum(_flops(op, inputs, kind)
                   for op, inputs in zip(ops, inputs_lists)) / self.flops_rate
        if kind == "matmul" and work > self.intra_op_grain:
            parallel = min(self.intra_op_parallelism,
                           work / self.intra_op_grain)
            work = work / max(parallel, 1.0)
        overhead = (0.25 if kind == "trivial" else 1.0) * self.op_overhead
        return overhead + len(ops) * self.batch_member_cost + work

    def bulk_cache_lookup_cost(self, keys_and_inputs) -> float:
        """Virtual cost of one bulk value-cache read for a whole bucket.

        One lock/table round-trip (``cache_lookup_cost``) covers the
        bucket; members add the per-entry hash+read term.  Replaces N
        serialized ``cache_lookup_cost`` charges on the cache clock.
        """
        n = len(keys_and_inputs)
        size = sum((sum(_value_bytes(v) for v in inputs) if inputs else 64)
                   for inputs in keys_and_inputs)
        return (self.cache_lookup_cost + n * self.cache_bulk_entry_cost
                + size / self.cache_bytes_rate)

    def bulk_cache_write_cost(self, values) -> float:
        """Virtual cost of storing a fused batch's recorded outputs.

        One ``cache_entry_cost`` round-trip plus a per-entry bulk term and
        the byte traffic; the paid-per-value entry overhead of the scalar
        path is what made recursive training cache-bound (Section 5).
        """
        values = list(values)
        size = sum(_value_bytes(v) for v in values)
        return (self.cache_entry_cost
                + len(values) * self.cache_bulk_entry_cost
                + size / self.cache_bytes_rate)

    def async_batch_overhead(self, op, n: int) -> float:
        """Cost of one fused frame spawn for ``n`` same-signature async ops.

        The caller-context setup (``invoke_overhead`` etc.) is paid once;
        each member still pays its binding/bookkeeping share.
        """
        return self.async_overhead(op) + (n - 1) * self.async_batch_member_cost

    def async_overhead(self, op) -> float:
        kind = op.op_type
        if kind in ("Invoke", "InvokeGrad"):
            return self.invoke_overhead
        if kind in ("Cond", "CondGrad"):
            return self.cond_overhead
        if kind in ("Loop", "LoopGrad"):
            return self.loop_iter_overhead
        return self.op_overhead

    def loop_step_overhead(self, n_vars: int) -> float:
        return self.loop_iter_overhead + n_vars * self.loop_var_overhead

    def cache_write_cost(self, value) -> float:
        return self.cache_entry_cost + _value_bytes(value) / self.cache_bytes_rate

    def dispatch(self, op) -> float:
        return self.dispatch_cost

    def plan_cost(self, plan) -> float:
        """Static engine-cost estimate of one activation of ``plan``.

        Sums per-slot overheads from the plan's precomputed cost kinds —
        dispatch plus kernel overhead per sync op, caller-context setup
        plus return for async ops (frame spawns), the lookup round-trip
        for cache reads — with *no* floating-point work term: runtime
        input shapes do not exist before admission, and for the small
        per-node tensors of recursive models the fixed overheads
        dominate (the premise of the whole cost model).

        This is the admission-time half of the server's cost-predicted
        load shedding: ``plan_cost(root_plan) × size_hint`` estimates a
        request's engine seconds before any of it has run, and an EWMA
        of observed (actual / predicted) ratios calibrates away the
        constant factors this estimate ignores (recursion multiplier,
        flops, batching discounts).
        """
        total = 0.0
        for op, definition, kind in zip(plan.ops, plan.defs,
                                        plan.cost_kinds):
            total += self.dispatch_cost
            if definition.is_async:
                total += self.async_overhead(op) + self.return_overhead
            elif kind == "cache":
                total += self.cache_lookup_cost
            elif kind == "trivial":
                total += 0.25 * self.op_overhead
            else:
                total += self.op_overhead
        return total

    def level_plan_cost(self, lp) -> float:
        """Static virtual cost of one compiled level-plan sweep.

        What a compiled sweep (:mod:`repro.runtime.level_plan`) pays:
        each scalar member is one kernel dispatch, each pre-fused bucket
        step is *one* kernel call whose members (over every run of the
        forest) add only the gather/scatter term.  The frame-spawn
        machinery the plan eliminated (``invoke_overhead``, coalescer
        bookkeeping, per-op cache round-trips) is deliberately absent —
        that omission *is* the modelled speedup.

        Sums the dataclass constants directly (never the overridable
        cost methods): :func:`unit_cost` replaces those methods by
        attribute assignment, and the compiled path must stay cheap and
        deterministic under every profile.
        """
        scalars, calls, members = lp.cost_terms
        return ((scalars + calls) * (self.dispatch_cost + self.op_overhead)
                + members * self.batch_member_cost)


def calibrate_batch_member_cost(widths=(4, 8, 16, 32, 64),
                                shape=(64, 64), repeats=30,
                                model: Optional["CostModel"] = None) -> float:
    """Measure the per-member bookkeeping cost of the fused kernels.

    The fused micro-batch kernels pay real per-member work the scalar path
    does not: gathering member operands into one stacked array and
    scattering result slices back out.  This measures exactly that
    bookkeeping on the host — ``np.stack`` over ``w`` members plus result
    slicing, across several widths — and fits ``t(w) = a + b*w`` by least
    squares; the slope ``b`` is the host seconds/member.  The value is
    rescaled into *virtual testbed seconds* by the ratio of the measured
    host arithmetic rate to the model's ``flops_rate`` (the same currency
    every other constant is expressed in) and clamped to a sane band.

    The default ``CostModel.batch_member_cost`` constant was validated
    against this measurement; pass ``calibrate=True`` to
    :func:`testbed_cpu` to use a live-measured value instead (host-
    dependent, so benchmarks that must be reproducible across machines
    keep the constant).
    """
    import time

    model = model or CostModel()
    widths = sorted(widths)
    rng = np.random.default_rng(0)
    members = [rng.standard_normal(shape).astype(np.float32)
               for _ in range(max(widths))]

    # Host arithmetic rate reference (the exchange rate into testbed time).
    a = rng.standard_normal((256, 256)).astype(np.float32)
    a @ a  # warm up BLAS
    t0 = time.perf_counter()
    for _ in range(repeats):
        a @ a
    host_flops_rate = repeats * 2.0 * 256 ** 3 / max(
        time.perf_counter() - t0, 1e-9)

    xs, ys = [], []
    for width in widths:
        t0 = time.perf_counter()
        for _ in range(repeats):
            stacked = np.stack(members[:width])
            for i in range(width):
                stacked[i]
        ys.append((time.perf_counter() - t0) / repeats)
        xs.append(float(width))
    slope = float(np.polyfit(xs, ys, 1)[0])  # host seconds per member
    virtual = slope * host_flops_rate / model.flops_rate
    return float(min(5e-6, max(0.05e-6, virtual)))


def testbed_cpu(calibrate: bool = False) -> CostModel:
    """The default profile modelling the paper's 36-core CPU testbed.

    ``calibrate=True`` replaces the modelled ``batch_member_cost`` constant
    with a value measured on this host via
    :func:`calibrate_batch_member_cost` (memoized per process).  The
    default stays constant so virtual-time results are host-independent.
    """
    model = CostModel()
    if calibrate:
        global _CALIBRATED_MEMBER_COST
        if _CALIBRATED_MEMBER_COST is None:
            _CALIBRATED_MEMBER_COST = calibrate_batch_member_cost(model=model)
        model.batch_member_cost = _CALIBRATED_MEMBER_COST
    return model


_CALIBRATED_MEMBER_COST: Optional[float] = None


def client_eager() -> CostModel:
    """Profile for the static-unrolling (PyTorch-style) baseline.

    Eager frameworks skip graph scheduling but pay per-op Python dispatch;
    the unrolled runner additionally charges graph (autograd tape)
    construction per instance.  Executed on a single client thread.
    """
    return CostModel(
        name="client_eager",
        flops_rate=2.0e9,
        op_overhead=28e-6,
        dispatch_cost=0.0,
        invoke_overhead=0.0,
        return_overhead=0.0,
        cache_entry_cost=1.0e-6,
        cache_lookup_cost=0.5e-6,
    )


@dataclass
class GpuCostParams:
    """Cost parameters for the folding baseline's batched GPU kernels.

    ``kernel_launch`` bundles the CUDA launch with Fold's host-side
    dynamic-batching bookkeeping per kernel; ``regroup_per_node`` is the
    per-node ungrouping/regrouping cost (the "numerous memory reallocations
    and copies" of paper Section 6.4) — it is what caps folding's
    inference throughput below the recursive implementation's.
    """

    kernel_launch: float = 12e-6
    flops_rate: float = 4.0e11
    #: per-node gather/regroup cost for depth-wise dynamic batching
    regroup_per_node: float = 40e-6
    #: per-byte host<->device and reshuffle cost
    bytes_rate: float = 8.0e9

    def kernel_cost(self, flops: float, data_bytes: float = 0.0) -> float:
        return (self.kernel_launch + flops / self.flops_rate
                + data_bytes / self.bytes_rate)


def gpu_profile() -> GpuCostParams:
    return GpuCostParams()


def unit_cost() -> CostModel:
    """Every op costs exactly 1 virtual second; zero overheads.

    Used by scheduler unit tests to make makespans exactly predictable.
    """
    model = CostModel(name="unit", flops_rate=float("inf"), op_overhead=1.0,
                      dispatch_cost=0.0, invoke_overhead=0.0,
                      return_overhead=0.0, cond_overhead=0.0,
                      loop_iter_overhead=0.0, loop_var_overhead=0.0,
                      cache_entry_cost=0.0, cache_lookup_cost=1.0,
                      cache_bulk_entry_cost=0.0,
                      async_batch_member_cost=0.0)

    def flat_cost(op, inputs, kind=None, _m=model):
        return 1.0

    model.op_cost = flat_cost  # type: ignore[method-assign]
    model.cache_write_cost = lambda value: 0.0  # type: ignore[method-assign]
    # a fused micro-batch costs one virtual second regardless of size, so
    # scheduler tests can predict batched makespans exactly
    model.batch_cost = lambda ops, inputs, kind=None: 1.0  # type: ignore[method-assign]
    model.bulk_cache_lookup_cost = lambda kis: 1.0  # type: ignore[method-assign]
    model.bulk_cache_write_cost = lambda values: 0.0  # type: ignore[method-assign]
    return model
