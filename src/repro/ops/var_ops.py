"""Variable access operations and gradient accumulation.

Variables live in the runtime's :class:`~repro.runtime.variables.VariableStore`
(not in any graph), so the *same* variable can be read from the main graph
and from any SubGraph body without capture plumbing — matching how
parameters behave in embedded-control-flow frameworks.

Gradients of ``ReadVariable`` are *side effects*: an ``AccumGrad`` op adds
the incoming gradient into the runtime's gradient accumulator.  Because a
recursive SubGraph body executes many times per step, per-variable gradients
must be summed across an unbounded number of frames; a thread-safe
accumulator is the natural dataflow-friendly mechanism (it plays the role
the concurrent hash table plays for activations in the paper's Section 5).
"""

from __future__ import annotations

import numpy as np

from repro.graph import dtypes
from repro.graph.registry import register_keyed_kernel, register_op
from repro.graph.sparse import IndexedSlices
from repro.graph.tensor import Tensor

from .common import out1

__all__ = ["read_variable", "assign", "assign_add", "assign_sub",
           "accum_grad", "read_accum", "apply_sgd", "apply_adagrad"]


def _read_infer(op):
    return [(op.attrs["dtype"], op.attrs.get("shape"))]


def _read_kernel(op, inputs, ctx):
    return [ctx.variables.read(op.attrs["var_name"])]


def _read_grad(gb, op, grads):
    if grads[0] is not None:
        update = accum_grad(op.attrs["var_name"], grads[0])
        gb.add_update(update.op)
    return []


register_op("ReadVariable", infer=_read_infer, kernel=_read_kernel,
            grad=_read_grad, stateful=True, cost="trivial")


def read_variable(var_name: str, dtype, shape=None,
                  name=None) -> Tensor:
    """Read the current value of a runtime variable."""
    return out1("ReadVariable", [],
                {"var_name": var_name, "dtype": dtypes.as_dtype(dtype),
                 "shape": shape},
                name=name or f"read_{var_name}")


def _assign_kernel(op, inputs, ctx):
    ctx.variables.write(op.attrs["var_name"], np.asarray(inputs[0]))
    return [inputs[0]]


register_op("Assign",
            infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
            kernel=_assign_kernel, grad=None, stateful=True, cost="trivial")


def assign(var_name: str, value, name=None) -> Tensor:
    """Overwrite a variable; returns the stored value."""
    return out1("Assign", [value], {"var_name": var_name},
                name=name or f"assign_{var_name}")


def _assign_add_kernel(op, inputs, ctx):
    new = ctx.variables.add(op.attrs["var_name"], np.asarray(inputs[0]))
    return [new]


register_op("AssignAdd",
            infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
            kernel=_assign_add_kernel, grad=None, stateful=True,
            cost="trivial")


def assign_add(var_name: str, delta, name=None) -> Tensor:
    """``var += delta``; returns the updated value."""
    return out1("AssignAdd", [delta], {"var_name": var_name},
                name=name or f"assign_add_{var_name}")


def _assign_sub_kernel(op, inputs, ctx):
    new = ctx.variables.add(op.attrs["var_name"], -np.asarray(inputs[0]))
    return [new]


register_op("AssignSub",
            infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
            kernel=_assign_sub_kernel, grad=None, stateful=True,
            cost="trivial")


def assign_sub(var_name: str, delta, name=None) -> Tensor:
    """``var -= delta``; returns the updated value."""
    return out1("AssignSub", [delta], {"var_name": var_name},
                name=name or f"assign_sub_{var_name}")


def _accum_kernel(op, inputs, ctx):
    # The (frame key, op id) order key makes the per-variable sum canonical
    # across engines and scheduling modes (see GradientAccumulator).
    # Sparse embedding gradients are retained as-is — O(touched rows),
    # never densified here.
    ctx.accumulators.add(op.attrs["var_name"], *inputs,
                         order=(ctx.frame.key, op.id))
    return [inputs[-1]]


def _accum_keyed(op, cols, keys, ctx):
    """Every member of a compiled step at once: the accumulator keeps
    the columns as handed over, and the output *is* the input column."""
    ctx.accumulators.add_block(op.attrs["var_name"], keys, *cols)
    return [cols[-1]]


# ``AccumGrad(grad)`` retains a gradient; ``AccumGrad(a, grad)`` — what
# MatMul's gradient emits for a weight operand — retains the factor rows
# of ``aᵀ @ grad`` and leaves the contraction to the accumulator's read.
register_op("AccumGrad",
            infer=lambda op: [(op.inputs[-1].dtype, op.inputs[-1].shape)],
            kernel=_accum_kernel, grad=None, stateful=True, cost="trivial")
register_keyed_kernel("AccumGrad", _accum_keyed)


def accum_grad(var_name: str, grad, a=None, name=None) -> Tensor:
    """Add ``grad`` — or, given ``a``, the deferred product ``aᵀ @ grad``
    — into the runtime gradient accumulator for ``var_name``."""
    return out1("AccumGrad", [grad] if a is None else [a, grad],
                {"var_name": var_name}, name=name or f"accum_{var_name}")


def _read_accum_kernel(op, inputs, ctx):
    return [ctx.accumulators.read(op.attrs["var_name"],
                                  op.attrs.get("shape"),
                                  op.attrs["dtype"].np_dtype,
                                  dense=op.attrs.get("dense", True))]


register_op("ReadAccum", infer=_read_infer, kernel=_read_accum_kernel,
            grad=None, stateful=True, cost="trivial")


def _apply_sgd_kernel(op, inputs, ctx):
    """Fused SGD update, sparse-capable.

    Dense input replays exactly the graph-built ``assign_sub(var,
    multiply(grad, lr))`` float operations.  An ``IndexedSlices`` input
    touches only its rows: untouched rows of the dense path change by
    ``-(0.0 * lr)`` — an exact no-op — so the sparse update stays
    bit-identical while doing O(touched rows) work.
    """
    grad = inputs[0]
    name = op.attrs["var_name"]
    lr = np.float32(op.attrs["lr"])
    if isinstance(grad, IndexedSlices):
        var = ctx.variables.read(name)
        new = var.copy()
        rows = grad.indices
        new[rows] = var[rows] + (-(grad.values * lr))
        ctx.variables.write(name, new)
        return [new]
    return [ctx.variables.add(name, -(np.asarray(grad) * lr))]


register_op("ApplySGD",
            infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
            kernel=_apply_sgd_kernel, grad=None, stateful=True,
            cost="elementwise")


def apply_sgd(var_name: str, grad, lr: float, name=None) -> Tensor:
    """Fused ``var -= lr * grad`` (sparse-capable); returns the new value."""
    return out1("ApplySGD", [grad], {"var_name": var_name, "lr": float(lr)},
                name=name or f"apply_sgd_{var_name}")


def _apply_adagrad_kernel(op, inputs, ctx):
    """Fused Adagrad update, sparse-capable (slot += g²; var -= lr·g/√slot+ε).

    Replays the exact float operations of the graph-built chain
    ``assign_add(slot, square(g)); assign_sub(var, g*lr / (sqrt(slot)+eps))``
    — on touched rows only when the gradient is an ``IndexedSlices``
    (untouched rows: slot += 0², var -= ±0/denom — exact no-ops).
    """
    grad = inputs[0]
    vname = op.attrs["var_name"]
    sname = op.attrs["slot_name"]
    lr = np.float32(op.attrs["lr"])
    eps = np.float32(op.attrs["eps"])
    if isinstance(grad, IndexedSlices):
        var = ctx.variables.read(vname)
        slot = ctx.variables.read(sname)
        rows, vals = grad.indices, grad.values
        new_slot = slot.copy()
        new_slot[rows] = slot[rows] + np.square(vals)
        denom = np.sqrt(new_slot[rows]) + eps
        step = (vals * lr) / denom
        new_var = var.copy()
        new_var[rows] = var[rows] + (-step)
        ctx.variables.write(sname, new_slot)
        ctx.variables.write(vname, new_var)
        return [new_var]
    grad = np.asarray(grad)
    new_slot = ctx.variables.add(sname, np.square(grad))
    denom = np.sqrt(new_slot) + eps
    step = (grad * lr) / denom
    return [ctx.variables.add(vname, -step)]


register_op("ApplyAdagrad",
            infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
            kernel=_apply_adagrad_kernel, grad=None, stateful=True,
            cost="elementwise")


def apply_adagrad(var_name: str, slot_name: str, grad, lr: float,
                  eps: float, name=None) -> Tensor:
    """Fused Adagrad step (sparse-capable); returns the new variable."""
    return out1("ApplyAdagrad", [grad],
                {"var_name": var_name, "slot_name": slot_name,
                 "lr": float(lr), "eps": float(eps)},
                name=name or f"apply_adagrad_{var_name}")


def read_accum(var_name: str, dtype, shape=None, name=None, *,
               dense: bool = True) -> Tensor:
    """Read the accumulated gradient for ``var_name`` (zeros if none).

    ``dense=True`` is the pipeline's explicit densification boundary;
    ``dense=False`` yields an ``IndexedSlices`` when every accumulated
    contribution was sparse (the sparse-optimizer fast path).
    """
    return out1("ReadAccum", [],
                {"var_name": var_name, "dtype": dtypes.as_dtype(dtype),
                 "shape": shape, "dense": dense},
                name=name or f"read_accum_{var_name}")
