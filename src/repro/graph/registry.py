"""Operation registry: kernels, gradients and output inference.

Every operation type used in a graph must be registered here.  An
:class:`OpDef` bundles:

* ``infer(op)``  -> list of (dtype, shape) output specs, run at graph
  construction time;
* ``kernel(op, inputs, ctx)`` -> list of output values, run by the engine
  (``ctx`` is an :class:`ExecContext` giving access to the runtime);
* ``grad(gb, op, out_grads)`` -> list of per-input gradient tensors (or
  None), used by :mod:`repro.core.autodiff`;
* ``is_async``: the kernel does not return values directly but installs
  child frames (InvokeOp / CondOp / LoopOp);
* ``stateful``: the kernel has side effects (variable writes, gradient
  accumulation) and must never be deduplicated or pruned once fetched;
* ``batched_kernel``: optional vectorized kernel executing *many*
  same-signature instances of the op in one call (cross-instance dynamic
  micro-batching, see :mod:`repro.runtime.batching`).  The contract is
  ``batched_kernel(ops, inputs_list, ctxs) -> list of per-instance output
  lists`` where the three arguments are parallel per-instance sequences.
  Batched kernels must be *value-preserving*: each instance's outputs must
  be bit-identical to what the scalar ``kernel`` would have produced.
* ``stacked_kernel``: the columnar entry into the same numerics, used by
  compiled level sweeps (:mod:`repro.runtime.level_plan`).  The contract is
  ``stacked_kernel(op, cols, inv, ctx) -> list of output columns | None``:
  ``cols[j]`` is input ``j`` for every member at once — an ndarray with
  members on axis 0, or, where ``inv[j]`` is true, one value every member
  shares (never copied per member).  It returns one array per output with
  members on axis 0, or ``None`` to decline (the caller then loops the
  scalar kernel over rows).  Rows must be independent along axis 0, inputs
  must not be mutated, and every row must be bit-identical to the scalar
  kernel's result — which forbids collapsing members into one GEMM.
* ``keyed_kernel``: the columnar entry of a *stateful* op whose side
  effect is addressed by its frame (gradient accumulation).  The contract
  is ``keyed_kernel(op, cols, keys, ctx) -> list of output columns``:
  ``cols[j]`` is input ``j`` for every member — an array with members on
  axis 0 or a list of row values (``IndexedSlices``, ragged rows), never
  a shared value — and ``keys[i]`` is what the scalar kernel derives from
  member ``i``'s context, ``order_key((ctx.frame.key, op.id))``.  The
  effect must equal running the scalar kernel once per member, in any
  order; output columns may alias input columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["OpDef", "register_op", "register_grad", "register_batched_kernel",
           "register_stacked_kernel", "register_keyed_kernel",
           "register_batched_async", "op_def",
           "ExecContext", "all_op_types", "registry_version"]


@dataclass
class ExecContext:
    """Runtime services available to kernels."""

    runtime: Any          # repro.runtime.session.Runtime
    frame: Any            # repro.runtime.scheduler Frame executing this op
    record: bool          # True when forward values must be cached

    @property
    def variables(self):
        return self.runtime.variables

    @property
    def cache(self):
        return self.runtime.cache

    @property
    def accumulators(self):
        return self.runtime.accumulators


@dataclass
class OpDef:
    name: str
    infer: Callable[[Any], list]
    kernel: Optional[Callable[[Any, list, ExecContext], list]] = None
    grad: Optional[Callable[[Any, Any, list], list]] = None
    is_async: bool = False
    stateful: bool = False
    #: Optional vectorized kernel over many same-signature instances:
    #: ``batched_kernel(ops, inputs_list, ctxs) -> list[list[value]]``.
    batched_kernel: Optional[Callable[[list, list, list], list]] = None
    #: Optional columnar kernel over one bucket's stacked inputs:
    #: ``stacked_kernel(op, cols, inv, ctx) -> list[column] | None``.
    stacked_kernel: Optional[Callable[[Any, list, tuple, Any], Any]] = None
    #: Optional columnar kernel of a frame-addressed stateful op:
    #: ``keyed_kernel(op, cols, keys, ctx) -> list[column]``.
    keyed_kernel: Optional[Callable[[Any, list, list, Any], list]] = None
    #: Extra metadata, e.g. cost-model hints.
    meta: dict = field(default_factory=dict)


_REGISTRY: dict[str, OpDef] = {}

#: Monotonic counter bumped on every registry mutation (op registration,
#: gradient attachment, batched-kernel/batched-async installation).
#: Compiled frame plans bake registry state in — resolved OpDefs, batch
#: signature prefixes (None while no ``batched_kernel`` exists) — so the
#: plan caches (:mod:`repro.runtime.plan`) stamp the version they were
#: compiled at and drop themselves when it moves.
_REGISTRY_VERSION = [0]


def registry_version() -> int:
    """The current registry mutation counter (see ``_REGISTRY_VERSION``)."""
    return _REGISTRY_VERSION[0]


def _bump_version() -> None:
    _REGISTRY_VERSION[0] += 1


def register_op(name: str, *, infer, kernel=None, grad=None,
                is_async: bool = False, stateful: bool = False,
                **meta) -> OpDef:
    """Register an operation type.  Raises if ``name`` is already taken."""
    if name in _REGISTRY:
        raise ValueError(f"op type {name!r} already registered")
    op = OpDef(name=name, infer=infer, kernel=kernel, grad=grad,
               is_async=is_async, stateful=stateful, meta=dict(meta))
    _REGISTRY[name] = op
    _bump_version()
    return op


def register_grad(name: str, grad_fn) -> None:
    """Attach (or replace) the gradient function of an existing op type."""
    _REGISTRY[name].grad = grad_fn
    _bump_version()


def _member_loop(definition: OpDef):
    """The always-correct batched kernel: run each member's scalar kernel.

    Still profitable — the engines charge one fused dispatch/overhead for
    the whole bucket — and trivially value-preserving.
    """
    def batched(ops, inputs_list, ctxs):
        return [definition.kernel(op, inputs, ctx)
                for op, inputs, ctx in zip(ops, inputs_list, ctxs)]
    return batched


def register_batched_kernel(name: str, fn=None, *, stacked=None,
                            batch_attrs: tuple = (),
                            allow_stateful: bool = False) -> None:
    """Mark op type ``name`` as micro-batchable.

    ``fn(ops, inputs_list, ctxs)`` executes a whole bucket at once; pass
    ``None`` to install the member-loop fallback (amortizes per-op engine
    overhead without vectorizing the math).  ``stacked`` installs the
    columnar entry (see ``stacked_kernel`` above); builders in
    :mod:`repro.ops.common` derive ``fn`` from it so both conventions
    share one implementation.  ``batch_attrs`` names the op
    attrs that must match for two instances to share a bucket (e.g. a
    Concat axis) — they become part of the batch signature.

    Stateful ops are rejected unless ``allow_stateful=True``: the opt-in is
    for ops whose statefulness is *read-only* (``CacheLookup`` reads the
    backprop value cache but mutates nothing), where executing N instances
    in one fused call is order-independent and value-preserving.  Ops with
    write side effects (``Assign``, ``AccumGrad``) must never take it.
    """
    definition = _REGISTRY[name]
    if definition.is_async:
        raise ValueError(f"op type {name!r} is async; register a batched "
                         "starter via register_batched_async instead")
    if definition.stateful and not allow_stateful:
        raise ValueError(f"op type {name!r} is stateful and cannot be "
                         "micro-batched (pass allow_stateful=True only for "
                         "read-only state access)")
    definition.batched_kernel = fn if fn is not None \
        else _member_loop(definition)
    definition.stacked_kernel = stacked
    definition.meta["batch_attrs"] = tuple(batch_attrs)
    _bump_version()


def register_stacked_kernel(name: str, fn) -> None:
    """Install only the columnar entry of op type ``name``.

    For ops that are deliberately *not* micro-batchable (no
    ``batched_kernel``, so the dynamic coalescer never buckets them) but
    whose compiled-sweep instances can still run as one columnar call —
    ``Slice`` is a view of its input column.
    """
    _REGISTRY[name].stacked_kernel = fn
    _bump_version()


def register_keyed_kernel(name: str, fn) -> None:
    """Install the keyed columnar entry of stateful op type ``name``
    (see ``keyed_kernel`` above): compiled sweeps then hand it a step's
    whole columns instead of looping the scalar kernel over rows."""
    _REGISTRY[name].keyed_kernel = fn
    _bump_version()


def register_batched_async(name: str, *, identity_attrs: tuple = ()) -> None:
    """Mark async op type ``name`` as frame-spawn batchable.

    Async ops have no kernel — their *starter* installs child frames.  A
    bucket of same-signature async instances is executed by charging one
    fused frame-spawn overhead and then running every member's starter, so
    N concurrent recursive calls (forward ``Invoke`` or backward
    ``InvokeGrad``) pay the caller/callee context-setup cost once plus a
    small per-member term instead of N times.

    ``identity_attrs`` names attrs whose *object identity* must match for
    two instances to fuse (e.g. the target SubGraph) — value equality is
    meaningless for graph-bearing attrs.
    """
    definition = _REGISTRY[name]
    if not definition.is_async:
        raise ValueError(f"op type {name!r} is not async")
    definition.meta["batch_async"] = True
    definition.meta["batch_identity_attrs"] = tuple(identity_attrs)
    _bump_version()


def op_def(name: str) -> OpDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown op type {name!r}; is its module imported?") from None


def all_op_types() -> list[str]:
    return sorted(_REGISTRY)
