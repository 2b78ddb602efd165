"""Reduction operations (sum / mean / max) with axis support."""

from __future__ import annotations

import numpy as np

from repro.graph import dtypes
from repro.graph.registry import register_op
from repro.graph.tensor import Tensor

from .common import out1

__all__ = ["reduce_sum", "reduce_mean", "reduce_max"]


def _axes(op):
    axis = op.attrs["axis"]
    if axis is None:
        return None
    if isinstance(axis, int):
        return (axis,)
    return tuple(axis)


def _reduce_infer(op):
    x = op.inputs[0]
    axis = _axes(op)
    keepdims = op.attrs["keepdims"]
    if x.shape is None:
        return [(x.dtype, None)]
    rank = len(x.shape)
    if axis is None:
        axis = tuple(range(rank))
    axis = tuple(a if a >= 0 else rank + a for a in axis)
    shape = []
    for i, dim in enumerate(x.shape):
        if i in axis:
            if keepdims:
                shape.append(1)
        else:
            shape.append(dim)
    return [(x.dtype, tuple(shape))]


def _expand_grad_to(g: np.ndarray, shape: tuple, axis, keepdims):
    """Broadcast a reduced gradient back to the reference ``shape``."""
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = tuple(a if a >= 0 else len(shape) + a for a in axis)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def _sum_kernel(op, inputs, ctx):
    return [np.sum(inputs[0], axis=_axes(op), keepdims=op.attrs["keepdims"])]


def _sum_grad(gb, op, g):
    return [out1("ReduceSumGrad", [g[0], gb.val(op.inputs[0])],
                 {"axis": op.attrs["axis"], "keepdims": op.attrs["keepdims"]})]


def _sum_grad_kernel(op, inputs, ctx):
    g, ref = inputs
    expanded = _expand_grad_to(np.asarray(g), np.shape(ref), _axes(op),
                               op.attrs["keepdims"])
    # copy: broadcast_to returns a read-only view (and note that
    # ascontiguousarray would promote 0-d arrays to 1-d)
    return [np.array(expanded)]


register_op("ReduceSum", infer=_reduce_infer, kernel=_sum_kernel,
            grad=_sum_grad, cost="elementwise")
register_op("ReduceSumGrad",
            infer=lambda op: [(op.inputs[1].dtype, op.inputs[1].shape)],
            kernel=_sum_grad_kernel, grad=None, cost="elementwise")


def reduce_sum(x, axis=None, keepdims=False, name="reduce_sum") -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    return out1("ReduceSum", [x], {"axis": axis, "keepdims": keepdims},
                name=name)


def _mean_kernel(op, inputs, ctx):
    return [np.mean(inputs[0], axis=_axes(op), keepdims=op.attrs["keepdims"])]


def _mean_grad(gb, op, g):
    return [out1("ReduceMeanGrad", [g[0], gb.val(op.inputs[0])],
                 {"axis": op.attrs["axis"], "keepdims": op.attrs["keepdims"]})]


def _mean_grad_kernel(op, inputs, ctx):
    g, ref = inputs
    ref = np.asarray(ref)
    axis = _axes(op)
    count = (ref.size if axis is None else
             int(np.prod([ref.shape[a] for a in axis])))
    expanded = _expand_grad_to(np.asarray(g), ref.shape, axis,
                               op.attrs["keepdims"])
    return [np.array(expanded) / count]


register_op("ReduceMean", infer=_reduce_infer, kernel=_mean_kernel,
            grad=_mean_grad, cost="elementwise")
register_op("ReduceMeanGrad",
            infer=lambda op: [(op.inputs[1].dtype, op.inputs[1].shape)],
            kernel=_mean_grad_kernel, grad=None, cost="elementwise")


def reduce_mean(x, axis=None, keepdims=False, name="reduce_mean") -> Tensor:
    """Mean over ``axis`` (all axes when None)."""
    return out1("ReduceMean", [x], {"axis": axis, "keepdims": keepdims},
                name=name)


def _max_kernel(op, inputs, ctx):
    return [np.max(inputs[0], axis=_axes(op), keepdims=op.attrs["keepdims"])]


def _max_grad(gb, op, g):
    return [out1("ReduceMaxGrad",
                 [g[0], gb.val(op.inputs[0]), gb.val(op.outputs[0])],
                 {"axis": op.attrs["axis"], "keepdims": op.attrs["keepdims"]})]


def _max_grad_kernel(op, inputs, ctx):
    g, ref, result = inputs
    axis = _axes(op)
    keepdims = op.attrs["keepdims"]
    expanded_res = _expand_grad_to(np.asarray(result), ref.shape, axis,
                                   keepdims)
    expanded_g = _expand_grad_to(np.asarray(g), ref.shape, axis, keepdims)
    mask = (ref == expanded_res)
    # Split ties evenly, matching the subgradient convention.
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
    counts = np.broadcast_to(counts, ref.shape)
    return [np.where(mask, expanded_g / counts, 0.0).astype(ref.dtype)]


register_op("ReduceMax", infer=_reduce_infer, kernel=_max_kernel,
            grad=_max_grad, cost="elementwise")
register_op("ReduceMaxGrad",
            infer=lambda op: [(op.inputs[1].dtype, op.inputs[1].shape)],
            kernel=_max_grad_kernel, grad=None, cost="elementwise")


def reduce_max(x, axis=None, keepdims=False, name="reduce_max") -> Tensor:
    """Max over ``axis`` (all axes when None)."""
    return out1("ReduceMax", [x], {"axis": axis, "keepdims": keepdims},
                name=name)


# -- stacked / batched kernels -------------------------------------------------
#
# Reductions mix axes with the stacked batch axis, and numpy does not
# promise the same summation order over a stacked array as over each
# member, so the batched form is the member loop: one fused dispatch,
# scalar math per member.  Two cases run columnar: every reduced axis
# has extent 1 (the per-node scalar loss ``reduce_sum(loss[1])`` of the
# tree models), exact by construction; and a float ``ReduceSum`` of a
# C-contiguous column that keeps the members' innermost axis (RNTN's
# ``reduce_sum(c3 * tmp3, axis=1)``).  There numpy's inner loop runs
# along the kept axis and adds the reduced elements one after another in
# index order, in a member and in the stack alike — no pairwise blocks;
# ``tests/test_level_columnar.py`` sweeps that domain bit for bit.

def _stacked_unit_reduce(op, cols, inv, ctx):
    """Reducing float axes of extent 1 moves no data and rounds
    nothing: the result is a reshape of the column (integer sums would
    widen, so they decline)."""
    x = cols[0]
    rank = x.ndim - 1
    axes = _axes(op)
    if axes is None:
        axes = set(range(rank))
    elif all(-rank <= a < rank for a in axes):
        axes = {a % rank for a in axes}
    else:
        return None  # let the scalar kernel raise its own axis error
    if x.dtype.kind != "f" or any(x.shape[a + 1] != 1 for a in axes):
        return None
    keepdims = op.attrs["keepdims"]
    return [x.reshape(x.shape[:1] + tuple(
        d for i, d in enumerate(x.shape[1:]) if keepdims or i not in axes))]


def _stacked_sum(op, cols, inv, ctx):
    """``ReduceSum``: the extent-1 reshape, else the sum over the
    members' axes shifted past the batch axis — only while the members'
    innermost axis (the last one of extent other than 1) is kept, the
    column is C-contiguous float32 / float64 and the axes are explicit;
    every other shape declines to the member loop."""
    out = _stacked_unit_reduce(op, cols, inv, ctx)
    x, axes = cols[0], _axes(op)
    if out is not None or axes is None or not x.flags.c_contiguous \
            or x.dtype not in (np.float32, np.float64):
        return out
    rank = x.ndim - 1
    if not all(-rank <= a < rank for a in axes):
        return None
    axes = {a % rank for a in axes}
    inner = [a for a in range(rank) if x.shape[a + 1] != 1]
    if not inner or inner[-1] in axes:
        return None
    return [np.sum(x, axis=tuple(a + 1 for a in sorted(axes)),
                   keepdims=op.attrs["keepdims"])]


def _stacked_reduce_grad(op, cols, inv, ctx):
    """``ReduceSumGrad`` / ``ReduceMeanGrad`` broadcast ``g`` back to the
    reference shape — and divide elementwise — so the columnar form
    rounds nothing: the members' reduced axes, shifted past the batch
    axis."""
    if inv[0]:
        return None
    g, ref = cols
    shape = np.shape(ref) if inv[1] else ref.shape[1:]
    rank = len(shape)
    axes = _axes(op)
    if axes is None:
        axes = range(rank)
    elif not all(-rank <= a < rank for a in axes):
        return None  # let the scalar kernel raise its own axis error
    out = np.array(_expand_grad_to(
        g, g.shape[:1] + shape, tuple(a % rank + 1 for a in axes),
        op.attrs["keepdims"]))
    if op.op_type == "ReduceMeanGrad":
        out = out / int(np.prod([shape[a] for a in axes]))
    return [out]


def _register_batched_reductions():
    from repro.graph.registry import register_batched_kernel

    register_batched_kernel("ReduceSum", stacked=_stacked_sum,
                            batch_attrs=("axis", "keepdims"))
    for name in ("ReduceMean", "ReduceMax"):
        register_batched_kernel(name, stacked=_stacked_unit_reduce,
                                batch_attrs=("axis", "keepdims"))
    for name in ("ReduceSumGrad", "ReduceMeanGrad"):
        register_batched_kernel(name, stacked=_stacked_reduce_grad,
                                batch_attrs=("axis", "keepdims"))
    register_batched_kernel("ReduceMaxGrad", batch_attrs=("axis", "keepdims"))


_register_batched_reductions()
