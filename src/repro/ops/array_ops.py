"""Array manipulation operations: reshape, concat, gather, stacking, etc."""

from __future__ import annotations

import numpy as np

from repro.graph import dtypes
from repro.graph.registry import register_op
from repro.graph.sparse import IndexedSlices, sparse_gather_grads_enabled
from repro.graph.tensor import Tensor

from .common import build, num_rows, out1

__all__ = [
    "reshape", "transpose", "concat", "gather", "stack", "unstack",
    "expand_dims", "squeeze", "zeros_like", "ones_like", "fill", "one_hot",
    "argmax", "slice_", "python_index", "shape_of", "size_of",
]


# -- reshape / transpose -----------------------------------------------------

def _reshape_infer(op):
    target = tuple(op.attrs["shape"])
    x = op.inputs[0]
    if x.shape is not None and all(d is not None and d >= 0 for d in target):
        return [(x.dtype, target)]
    if -1 in target or any(d is None for d in target):
        return [(x.dtype, tuple(None if d in (-1, None) else d
                                for d in target))]
    return [(x.dtype, target)]


register_op(
    "Reshape",
    infer=_reshape_infer,
    kernel=lambda op, inputs, ctx: [np.reshape(inputs[0],
                                               op.attrs["shape"])],
    grad=lambda gb, op, g: [out1("ReshapeLike", [g[0],
                                                 gb.val(op.inputs[0])])],
    cost="trivial",
)

register_op(
    "ReshapeLike",
    infer=lambda op: [(op.inputs[0].dtype, op.inputs[1].shape)],
    kernel=lambda op, inputs, ctx: [np.reshape(inputs[0],
                                               np.shape(inputs[1]))],
    grad=lambda gb, op, g: [out1("ReshapeLike", [g[0],
                                                 gb.val(op.inputs[0])]),
                            None],
    cost="trivial",
)


def reshape(x, shape, name="reshape") -> Tensor:
    """Reshape to a static target ``shape`` (one entry may be -1)."""
    return out1("Reshape", [x], {"shape": tuple(shape)}, name=name)


def _transpose_infer(op):
    x = op.inputs[0]
    perm = op.attrs.get("perm")
    if x.shape is None:
        return [(x.dtype, None)]
    if perm is None:
        return [(x.dtype, tuple(reversed(x.shape)))]
    return [(x.dtype, tuple(x.shape[p] for p in perm))]


def _transpose_grad(gb, op, g):
    perm = op.attrs.get("perm")
    inv = None if perm is None else tuple(np.argsort(perm))
    return [transpose(g[0], perm=inv)]


register_op(
    "Transpose",
    infer=_transpose_infer,
    kernel=lambda op, inputs, ctx: [np.transpose(inputs[0],
                                                 op.attrs.get("perm"))],
    grad=_transpose_grad,
    cost="elementwise",
)


def transpose(x, perm=None, name="transpose") -> Tensor:
    return out1("Transpose", [x], {"perm": perm}, name=name)


# -- concat ------------------------------------------------------------------

def _concat_infer(op):
    axis = op.attrs["axis"]
    first = op.inputs[0]
    if any(t.shape is None for t in op.inputs):
        return [(first.dtype, None)]
    shape = list(first.shape)
    total = 0
    for t in op.inputs:
        dim = t.shape[axis]
        if dim is None or total is None:
            total = None
        else:
            total += dim
    shape[axis] = total
    for i in range(len(shape)):
        if i == axis:
            continue
        dims = {t.shape[i] for t in op.inputs if t.shape[i] is not None}
        if len(dims) > 1:
            raise ValueError(f"Concat inputs disagree on dim {i}: {dims}")
        shape[i] = dims.pop() if dims else None
    return [(first.dtype, tuple(shape))]


def _concat_grad(gb, op, g):
    refs = [gb.val(t) for t in op.inputs]
    grads = build("ConcatGrad", [g[0]] + refs,
                  {"axis": op.attrs["axis"], "n": len(op.inputs)})
    return list(grads)


register_op(
    "Concat",
    infer=_concat_infer,
    kernel=lambda op, inputs, ctx: [np.concatenate(inputs,
                                                   axis=op.attrs["axis"])],
    grad=_concat_grad,
    cost="elementwise",
)


def _concat_grad_infer(op):
    n = op.attrs["n"]
    return [(ref.dtype, ref.shape) for ref in op.inputs[1:1 + n]]


def _concat_grad_kernel(op, inputs, ctx):
    g, refs = inputs[0], inputs[1:]
    axis = op.attrs["axis"]
    sizes = [r.shape[axis] for r in refs]
    offsets = np.cumsum([0] + sizes)
    return [np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(refs))]


register_op("ConcatGrad", infer=_concat_grad_infer,
            kernel=_concat_grad_kernel, grad=None, cost="elementwise")


def concat(values, axis, name="concat") -> Tensor:
    """Concatenate tensors along ``axis``."""
    values = list(values)
    if len(values) == 1:
        from .math_ops import identity
        return identity(values[0])
    return out1("Concat", values, {"axis": axis}, name=name)


# -- gather / scatter --------------------------------------------------------

def _gather_infer(op):
    params, indices = op.inputs
    if params.shape is None:
        return [(params.dtype, None)]
    idx_shape = indices.shape if indices.shape is not None else None
    if idx_shape is None:
        return [(params.dtype, None)]
    return [(params.dtype, tuple(idx_shape) + tuple(params.shape[1:]))]


def _gather_grad(gb, op, g):
    params, indices = op.inputs
    grad = out1("GatherGrad", [g[0], gb.val(indices), gb.val(params)])
    return [grad, None]


register_op(
    "Gather",
    infer=_gather_infer,
    kernel=lambda op, inputs, ctx: [np.take(inputs[0], inputs[1], axis=0)],
    grad=_gather_grad,
    cost="elementwise",
)


def _gather_grad_kernel(op, inputs, ctx):
    g, indices, params = inputs
    if sparse_gather_grads_enabled() and isinstance(params, np.ndarray):
        return [IndexedSlices.from_scatter(indices, g, params.shape,
                                           dtype=params.dtype)]
    out = np.zeros_like(params)
    np.add.at(out, np.asarray(indices), g)
    return [out]


register_op(
    "GatherGrad",
    infer=lambda op: [(op.inputs[2].dtype, op.inputs[2].shape)],
    kernel=_gather_grad_kernel,
    grad=None,
    cost="elementwise",
)


def gather(params, indices, name="gather") -> Tensor:
    """``params[indices]`` along axis 0 (indices may be any rank)."""
    return out1("Gather", [params, indices], name=name)


# -- stack / unstack ---------------------------------------------------------

def _stack_infer(op):
    first = op.inputs[0]
    if first.shape is None:
        return [(first.dtype, None)]
    return [(first.dtype, (len(op.inputs),) + tuple(first.shape))]


def _stack_grad(gb, op, g):
    grads = build("UnstackGrad", [g[0]], {"n": len(op.inputs)})
    return list(grads)


register_op(
    "Stack",
    infer=_stack_infer,
    kernel=lambda op, inputs, ctx: [np.stack(inputs, axis=0)],
    grad=_stack_grad,
    cost="elementwise",
)


def _unstack_grad_infer(op):
    x = op.inputs[0]
    n = op.attrs["n"]
    inner = None if x.shape is None else tuple(x.shape[1:])
    return [(x.dtype, inner)] * n


def _unstack_grad_grad(gb, op, grads):
    parts = []
    for i, g in enumerate(grads):
        if g is None:
            g = out1("ZerosLike", [gb.val(op.outputs[i])])
        parts.append(g)
    return [out1("Stack", parts)]


register_op(
    "UnstackGrad",
    infer=_unstack_grad_infer,
    kernel=lambda op, inputs, ctx: [np.asarray(inputs[0][i])
                                    for i in range(op.attrs["n"])],
    grad=_unstack_grad_grad,
    cost="elementwise",
)


def stack(values, name="stack") -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    return out1("Stack", list(values), name=name)


def unstack(value, num, name="unstack") -> list[Tensor]:
    """Split a tensor into ``num`` slices along axis 0."""
    return build("UnstackGrad", [value], {"n": num}, name=name)


# -- expand/squeeze ----------------------------------------------------------

def _expand_infer(op):
    x = op.inputs[0]
    axis = op.attrs["axis"]
    if x.shape is None:
        return [(x.dtype, None)]
    shape = list(x.shape)
    shape.insert(axis if axis >= 0 else len(shape) + axis + 1, 1)
    return [(x.dtype, tuple(shape))]


register_op(
    "ExpandDims",
    infer=_expand_infer,
    kernel=lambda op, inputs, ctx: [np.expand_dims(inputs[0],
                                                   op.attrs["axis"])],
    grad=lambda gb, op, g: [out1("ReshapeLike", [g[0],
                                                 gb.val(op.inputs[0])])],
    cost="trivial",
)


def expand_dims(x, axis, name="expand_dims") -> Tensor:
    return out1("ExpandDims", [x], {"axis": axis}, name=name)


def _squeeze_infer(op):
    x = op.inputs[0]
    axis = op.attrs["axis"]
    if x.shape is None:
        return [(x.dtype, None)]
    shape = list(x.shape)
    real_axis = axis if axis >= 0 else len(shape) + axis
    if shape[real_axis] not in (1, None):
        raise ValueError(f"cannot squeeze axis {axis} of shape {x.shape}")
    del shape[real_axis]
    return [(x.dtype, tuple(shape))]


register_op(
    "Squeeze",
    infer=_squeeze_infer,
    kernel=lambda op, inputs, ctx: [np.squeeze(inputs[0],
                                               axis=op.attrs["axis"])],
    grad=lambda gb, op, g: [out1("ReshapeLike", [g[0],
                                                 gb.val(op.inputs[0])])],
    cost="trivial",
)


def squeeze(x, axis, name="squeeze") -> Tensor:
    return out1("Squeeze", [x], {"axis": axis}, name=name)


# -- fills -------------------------------------------------------------------

register_op(
    "ZerosLike",
    infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
    kernel=lambda op, inputs, ctx: [np.zeros_like(inputs[0])],
    grad=lambda gb, op, g: [None],
    cost="trivial",
)

register_op(
    "OnesLike",
    infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
    kernel=lambda op, inputs, ctx: [np.ones_like(inputs[0])],
    grad=lambda gb, op, g: [None],
    cost="trivial",
)


def zeros_like(x, name="zeros_like") -> Tensor:
    return out1("ZerosLike", [x], name=name)


def ones_like(x, name="ones_like") -> Tensor:
    return out1("OnesLike", [x], name=name)


def _fill_infer(op):
    return [(op.attrs["dtype"], tuple(op.attrs["shape"]))]


register_op(
    "Fill",
    infer=_fill_infer,
    kernel=lambda op, inputs, ctx: [np.full(op.attrs["shape"],
                                            op.attrs["value"],
                                            op.attrs["dtype"].np_dtype)],
    grad=lambda gb, op, g: [],
    cost="trivial",
)


def fill(shape, value, dtype=dtypes.float32, name="fill") -> Tensor:
    return out1("Fill", [], {"shape": tuple(shape), "value": value,
                             "dtype": dtypes.as_dtype(dtype)}, name=name)


# -- one-hot / argmax ---------------------------------------------------------

def _one_hot_infer(op):
    idx = op.inputs[0]
    depth = op.attrs["depth"]
    if idx.shape is None:
        return [(dtypes.float32, None)]
    return [(dtypes.float32, tuple(idx.shape) + (depth,))]


def _one_hot_kernel(op, inputs, ctx):
    idx = np.asarray(inputs[0])
    depth = op.attrs["depth"]
    out = np.zeros(idx.shape + (depth,), dtype=np.float32)
    np.put_along_axis(out, idx[..., None].astype(np.int64), 1.0, axis=-1)
    return [out]


register_op("OneHot", infer=_one_hot_infer, kernel=_one_hot_kernel,
            grad=lambda gb, op, g: [None], cost="elementwise")


def one_hot(indices, depth, name="one_hot") -> Tensor:
    return out1("OneHot", [indices], {"depth": depth}, name=name)


def _argmax_infer(op):
    x = op.inputs[0]
    axis = op.attrs["axis"]
    if x.shape is None:
        return [(dtypes.int64, None)]
    shape = list(x.shape)
    del shape[axis if axis >= 0 else len(shape) + axis]
    return [(dtypes.int64, tuple(shape))]


register_op(
    "ArgMax",
    infer=_argmax_infer,
    kernel=lambda op, inputs, ctx: [np.argmax(inputs[0],
                                              axis=op.attrs["axis"])],
    grad=lambda gb, op, g: [None],
    cost="elementwise",
)


def argmax(x, axis=-1, name="argmax") -> Tensor:
    return out1("ArgMax", [x], {"axis": axis}, name=name)


# -- static slicing ------------------------------------------------------------

def _slice_infer(op):
    x = op.inputs[0]
    begin, size = op.attrs["begin"], op.attrs["size"]
    if x.shape is None:
        return [(x.dtype, None)]
    shape = []
    for b, s, dim in zip(begin, size, x.shape):
        shape.append(s if s != -1 else (None if dim is None else dim - b))
    return [(x.dtype, tuple(shape))]


def _slice_kernel(op, inputs, ctx):
    x = inputs[0]
    begin, size = op.attrs["begin"], op.attrs["size"]
    idx = tuple(slice(b, None if s == -1 else b + s)
                for b, s in zip(begin, size))
    return [x[idx]]


def _slice_grad(gb, op, g):
    return [out1("SliceGrad", [g[0], gb.val(op.inputs[0])],
                 {"begin": op.attrs["begin"], "size": op.attrs["size"]})]


def _slice_grad_kernel(op, inputs, ctx):
    g, ref = inputs
    out = np.zeros_like(ref)
    begin, size = op.attrs["begin"], op.attrs["size"]
    idx = tuple(slice(b, None if s == -1 else b + s)
                for b, s in zip(begin, size))
    out[idx] = g
    return [out]


register_op("Slice", infer=_slice_infer, kernel=_slice_kernel,
            grad=_slice_grad, cost="elementwise")
register_op("SliceGrad",
            infer=lambda op: [(op.inputs[1].dtype, op.inputs[1].shape)],
            kernel=_slice_grad_kernel, grad=None, cost="elementwise")


def slice_(x, begin, size, name="slice") -> Tensor:
    """Static slice: ``x[begin[0]:begin[0]+size[0], ...]`` (-1 = to end)."""
    return out1("Slice", [x], {"begin": tuple(begin), "size": tuple(size)},
                name=name)


def python_index(x: Tensor, key):
    """Support ``t[i]`` / ``t[a:b]`` style indexing on symbolic tensors."""
    if isinstance(key, Tensor) or isinstance(key, (int, np.integer)):
        return gather(x, key)
    if isinstance(key, slice):
        if key.step not in (None, 1):
            raise NotImplementedError("strided slicing is not supported")
        begin = key.start or 0
        size = -1 if key.stop is None else key.stop - begin
        rank = len(x.shape) if x.shape is not None else 1
        begins = (begin,) + (0,) * (rank - 1)
        sizes = (size,) + (-1,) * (rank - 1)
        return slice_(x, begins, sizes)
    raise TypeError(f"unsupported index {key!r}")


# -- shape introspection -------------------------------------------------------

register_op(
    "Shape",
    infer=lambda op: [(dtypes.int64,
                       (len(op.inputs[0].shape),)
                       if op.inputs[0].shape is not None else None)],
    kernel=lambda op, inputs, ctx: [np.asarray(np.shape(inputs[0]),
                                               dtype=np.int64)],
    grad=lambda gb, op, g: [None],
    cost="trivial",
)


def shape_of(x, name="shape") -> Tensor:
    return out1("Shape", [x], name=name)


register_op(
    "Size",
    infer=lambda op: [(dtypes.int64, ())],
    kernel=lambda op, inputs, ctx: [np.asarray(np.size(inputs[0]),
                                               dtype=np.int64)],
    grad=lambda gb, op, g: [None],
    cost="trivial",
)


def size_of(x, name="size") -> Tensor:
    return out1("Size", [x], name=name)


# -- stacked / batched kernels -------------------------------------------------
#
# Columnar kernels (see repro.ops.common): pure data movement over the
# batch axis, so every row equals the scalar kernel's result exactly.

def _member_index(rows: int, idx: np.ndarray) -> np.ndarray:
    """``arange(rows)`` shaped to broadcast against the index column."""
    return np.arange(rows).reshape((rows,) + (1,) * (idx.ndim - 1))


def _stacked_gather(op, cols, inv, ctx):
    """Row gathers of a whole bucket as one indexing call.

    The common case is the embedding lookup of many concurrent tree
    leaves — one shared table, a column of indices, one ``np.take``;
    per-member tables pair row ``i`` with index ``i``, and a shared
    index selects along the member axis.
    """
    params, idx = cols
    if inv[0]:
        return [np.take(params, idx, axis=0)]
    if inv[1]:
        return [np.take(params, idx, axis=1)]
    if params.ndim < 2:
        return None
    return [params[_member_index(len(idx), idx), idx]]


def _stacked_gather_grad(op, cols, inv, ctx):
    """Fused embedding-scatter: N dense table gradients in one scatter-add.

    The backward-pass hot path of every leaf frame is ``GatherGrad`` — a
    dense ``zeros_like(table)`` with ``np.add.at`` scatter per member.
    Prefixing the index operand with the member index turns the bucket
    into *one* ``np.add.at`` call.  Iteration order of the combined call
    is member-major and preserves each member's own index order, so
    every member's slice accumulates in exactly the order its scalar
    kernel would — bit-identical.  Sparse gradients stay per member
    (O(touched rows) each, no ``[n, vocab, embed]`` scratch at all): with
    one scalar index per member — the embedding lookup of a tree leaf —
    each touches one row, trivially unique, so the column is one cast of
    ``g`` viewed a row per member (what ``from_scatter`` returns, without
    its ``unique``); any other index rank, and buckets mixing tables,
    decline to the row loop.
    """
    g, idx, params = cols
    if inv[0] or inv[1] or not inv[2]:
        return None
    rows = len(idx)
    if sparse_gather_grads_enabled():
        if idx.ndim != 1 or not isinstance(params, np.ndarray):
            return None
        vals = np.ascontiguousarray(g, dtype=params.dtype).reshape(
            (rows,) + params.shape[1:])
        return [[IndexedSlices(idx[i:i + 1], vals[i:i + 1], params.shape)
                 for i in range(rows)]]
    out = np.zeros((rows,) + params.shape, dtype=params.dtype)
    member = _member_index(rows, idx)
    np.add.at(out, (np.broadcast_to(member, idx.shape), idx), g)
    return [out]


def _stacked_transpose(op, cols, inv, ctx):
    """Stacked transpose (the matmul-grad companion): member permutations
    shift by one past the leading batch axis."""
    x = cols[0]
    perm = op.attrs.get("perm")
    if perm is None:
        perm = tuple(reversed(range(x.ndim - 1)))
    return [np.transpose(x, (0,) + tuple(p + 1 for p in perm))]


def _stacked_reshape(op, cols, inv, ctx):
    x = cols[0]
    return [np.reshape(x, x.shape[:1] + tuple(op.attrs["shape"]))]


def _stacked_reshape_like(op, cols, inv, ctx):
    if inv[0]:
        return None
    x = cols[0]
    like = np.shape(cols[1]) if inv[1] else cols[1].shape[1:]
    return [np.reshape(x, x.shape[:1] + like)]


def _stacked_concat(op, cols, inv, ctx):
    axis = op.attrs["axis"]
    rows = num_rows(cols, inv)
    parts = [np.broadcast_to(c, (rows,) + np.shape(c)) if shared else c
             for c, shared in zip(cols, inv)]
    return [np.concatenate(parts, axis=axis + 1 if axis >= 0 else axis)]


def _stacked_axis_op(np_fn):
    """ExpandDims/Squeeze over a column: non-negative member axes shift
    by one past the batch axis; negative axes are unchanged."""
    def stacked(op, cols, inv, ctx):
        axis = op.attrs["axis"]
        return [np_fn(cols[0], axis + 1 if axis >= 0 else axis)]
    return stacked


def _column_slice(op) -> tuple:
    """The op's static slice, shifted past the batch axis."""
    return (slice(None),) + tuple(
        slice(b, None if s == -1 else b + s)
        for b, s in zip(op.attrs["begin"], op.attrs["size"]))


def _stacked_slice(op, cols, inv, ctx):
    """A static slice of every member is one view of the column."""
    return [cols[0][_column_slice(op)]]


def _stacked_slice_grad(op, cols, inv, ctx):
    g, ref = cols
    shape = np.shape(ref) if inv[1] else ref.shape[1:]
    out = np.zeros((num_rows(cols, inv),) + shape, dtype=ref.dtype)
    out[_column_slice(op)] = g
    return [out]


def _register_batched_array():
    from repro.graph.registry import (register_batched_kernel,
                                      register_stacked_kernel)

    from .common import register_stacked

    register_stacked("Gather", _stacked_gather)
    register_stacked("Reshape", _stacked_reshape, batch_attrs=("shape",))
    register_stacked("Concat", _stacked_concat, batch_attrs=("axis",))
    register_stacked("ExpandDims", _stacked_axis_op(np.expand_dims),
                     batch_attrs=("axis",))
    register_stacked("Squeeze", _stacked_axis_op(np.squeeze),
                     batch_attrs=("axis",))
    # Backward-pass hot kernels: fused scatter-add for embedding gradients
    # and stacked permutation for the matmul-grad transposes.
    register_stacked("GatherGrad", _stacked_gather_grad)
    register_stacked("Transpose", _stacked_transpose, batch_attrs=("perm",))
    # Member loop when coalesced (their entire cost is the per-op engine
    # overhead); a compiled sweep fills one column.
    register_batched_kernel(
        "ZerosLike",
        stacked=lambda op, cols, inv, ctx: [np.zeros_like(cols[0])])
    register_batched_kernel("OnesLike")
    # Columnar only: never coalesced dynamically, but a compiled sweep's
    # instances of one op run as a single view / reshape of the column.
    register_stacked_kernel("Slice", _stacked_slice)
    register_stacked_kernel("SliceGrad", _stacked_slice_grad)
    register_stacked_kernel("ReshapeLike", _stacked_reshape_like)


_register_batched_array()
