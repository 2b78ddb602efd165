"""Shared helpers for building graph operations.

All functional op constructors (``ops.add``, ``ops.matmul``, ...) go through
:func:`build`, which

* wraps raw Python/numpy values as ``Const`` operations,
* reroutes tensors from *enclosing* graphs through SubGraph captures (the
  paper's "outer reference" mechanism, Section 5), and
* adds the operation to the current default graph.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.graph import dtypes
from repro.graph.graph import Graph, get_default_graph
from repro.graph.tensor import Tensor

__all__ = ["build", "out1", "convert", "constant", "to_graph",
           "role_captures", "static_broadcast_shape", "elementwise_infer",
           "like_infer", "scalar_infer", "stack_members",
           "batched_from_stacked", "register_stacked", "num_rows",
           "stacked_elementwise", "stacked_rowwise"]


def role_captures(op, role: str) -> tuple:
    """``(placeholder_op_id, input_position)`` pairs of ``op``'s captures
    for one role, grouped once and memoized on the op.

    Call sites are patched with captures only until their target
    SubGraphs finalize (episode close), which necessarily precedes any
    execution — so grouping at first execution sees the final
    ``capture_map`` and every later frame spawn skips the per-spawn scan.
    """
    memo = op.attrs.get("_role_captures")
    if memo is None:
        grouped: dict = {}
        for r, placeholder_id, position in op.attrs.get("capture_map", ()):
            grouped.setdefault(r, []).append((placeholder_id, position))
        memo = {r: tuple(pairs) for r, pairs in grouped.items()}
        op.attrs["_role_captures"] = memo
    return memo.get(role, ())


def constant(value, dtype: Optional[dtypes.DType] = None,
             name: str = "const") -> Tensor:
    """Create a constant tensor in the default graph."""
    arr = dtypes.as_value(value, dtype)
    graph = get_default_graph()
    op = graph.add_op("Const", [], {"value": arr}, name=name)
    return op.outputs[0]


def convert(value, dtype: Optional[dtypes.DType] = None) -> Tensor:
    """Coerce ``value`` to a Tensor (wrapping constants as needed)."""
    if isinstance(value, Tensor):
        return value
    return constant(value, dtype)


def to_graph(tensor: Tensor, graph: Graph) -> Tensor:
    """Make ``tensor`` usable inside ``graph``.

    If the tensor already lives in ``graph`` it is returned unchanged.
    Otherwise ``graph`` must be a SubGraph body whose lexical parent chain
    reaches the tensor's graph; the tensor is then routed through capture
    placeholders level by level (innermost last).
    """
    if tensor.graph is graph:
        return tensor
    if not graph.is_subgraph_body or graph.owning_subgraph is None:
        raise ValueError(
            f"tensor {tensor.name} from graph {tensor.graph.name} cannot be "
            f"used in unrelated graph {graph.name}")
    subgraph = graph.owning_subgraph
    outer = to_graph(tensor, subgraph.parent_graph)
    return subgraph.capture(outer)


def build(op_type: str, inputs: Sequence[Any] = (),
          attrs: Optional[dict] = None, name: Optional[str] = None,
          graph: Optional[Graph] = None) -> list[Tensor]:
    """Add an operation to the default (or given) graph, returning outputs."""
    graph = graph or get_default_graph()
    converted = []
    for value in inputs:
        if not isinstance(value, Tensor):
            with graph.as_default():
                value = convert(value)
        converted.append(to_graph(value, graph))
    op = graph.add_op(op_type, converted, attrs or {}, name=name)
    return list(op.outputs)


def out1(op_type: str, inputs: Sequence[Any] = (),
         attrs: Optional[dict] = None, name: Optional[str] = None,
         graph: Optional[Graph] = None) -> Tensor:
    """Like :func:`build` but for single-output ops."""
    outputs = build(op_type, inputs, attrs, name, graph)
    assert len(outputs) == 1, f"{op_type} produced {len(outputs)} outputs"
    return outputs[0]


# -- static shape helpers --------------------------------------------------

def static_broadcast_shape(a, b):
    """Best-effort numpy broadcast of two static shapes (None = unknown)."""
    if a is None or b is None:
        return None
    out = []
    la, lb = len(a), len(b)
    for i in range(max(la, lb)):
        da = a[la - 1 - i] if i < la else 1
        db = b[lb - 1 - i] if i < lb else 1
        if da is None or db is None:
            out.append(None)
        elif da == 1:
            out.append(db)
        elif db == 1 or da == db:
            out.append(da)
        else:
            raise ValueError(f"incompatible static shapes {a} and {b}")
    return tuple(reversed(out))


def elementwise_infer(op):
    """Output spec for a broadcasting binary elementwise op."""
    a, b = op.inputs[0], op.inputs[1]
    return [(a.dtype, static_broadcast_shape(a.shape, b.shape))]


def like_infer(op):
    """Output spec equal to the first input's spec."""
    t = op.inputs[0]
    return [(t.dtype, t.shape)]


def scalar_infer(dtype):
    def infer(op):
        return [(dtype, ())]
    return infer


# -- stacked / batched kernel builders -----------------------------------------
#
# One implementation, two calling conventions.  A *stacked* kernel
# ``stacked(op, cols, inv, ctx)`` (the registry's ``stacked_kernel`` slot,
# driven by compiled level sweeps) sees each input once for the whole
# bucket: an ndarray with members on axis 0, or — where ``inv[j]`` — one
# value every member shares, handed to numpy to broadcast instead of being
# copied per member.  It returns one column per output, or ``None`` to
# decline.  :func:`batched_from_stacked` wraps it into the registry's
# ``batched_kernel`` convention ``(ops, inputs_list, ctxs)`` used by the
# dynamic coalescer, whose buckets share a batch signature (same kinds,
# dtypes and shapes per input): members are stacked once, the stacked
# kernel runs, rows are handed back.  Whenever that cannot be bit-identical
# to the scalar kernel (non-array inputs, every operand shared so no batch
# axis appears, the stacked kernel declining) the scalar kernel is looped.

def _loop_members(kernel, ops, inputs_list, ctxs):
    return [kernel(op, inputs, ctx)
            for op, inputs, ctx in zip(ops, inputs_list, ctxs)]


def stack_members(inputs_list):
    """``(cols, inv)`` for one bucket's parallel input lists, else None.

    An input that is the *same object* for every member (a weight, a
    bias, a feed) is passed through as a shared operand; anything else
    must be numpy values (same dtype and shape by the batch signature)
    and is stacked.
    """
    cols, inv = [], []
    for j, v in enumerate(inputs_list[0]):
        if not isinstance(v, (np.ndarray, np.generic)):
            return None
        shared = all(member[j] is v for member in inputs_list)
        cols.append(v if shared
                    else np.stack([member[j] for member in inputs_list]))
        inv.append(shared)
    if all(inv):
        return None  # no batch axis would appear
    return cols, tuple(inv)


def batched_from_stacked(stacked, kernel):
    """The ``batched_kernel`` entry into a stacked kernel's numerics."""
    def batched(ops, inputs_list, ctxs):
        stacked_in = stack_members(inputs_list)
        if stacked_in is not None:
            outs = stacked(ops[0], stacked_in[0], stacked_in[1], ctxs[0])
            if outs is not None:
                return [[out[i] for out in outs]
                        for i in range(len(inputs_list))]
        return _loop_members(kernel, ops, inputs_list, ctxs)
    return batched


def register_stacked(name: str, stacked, **kwargs) -> None:
    """Register ``stacked`` and the batched kernel derived from it."""
    from repro.graph.registry import op_def, register_batched_kernel
    register_batched_kernel(
        name, batched_from_stacked(stacked, op_def(name).kernel),
        stacked=stacked, **kwargs)


def num_rows(cols, inv) -> int:
    """Member count of a stacked call (axis 0 of any non-shared input)."""
    return next(c.shape[0] for c, shared in zip(cols, inv) if not shared)


def stacked_elementwise(fn):
    """An n-ary elementwise op over stacked operands.

    Members may broadcast internally (``[1,H] + [H]``): stacked operands
    of lower member rank get unit axes after the batch axis, shared ones
    broadcast as they are, so the stacked application is exactly the
    per-member one.
    """
    def stacked(op, cols, inv, ctx):
        rank = max(c.ndim - (not shared) for c, shared in zip(cols, inv))
        args = []
        for c, shared in zip(cols, inv):
            if not shared and c.ndim - 1 < rank:
                c = c.reshape(c.shape[:1] + (1,) * (rank - c.ndim + 1)
                              + c.shape[1:])
            args.append(c)
        return [fn(*args)]
    return stacked


def stacked_rowwise(kernel):
    """A kernel whose math is independent along leading axes.

    Valid for kernels built purely from elementwise ufuncs and reductions
    over ``axis=-1`` (softmax, cross-entropy, ...): a new leading batch
    axis leaves every per-member row computation untouched, so one
    kernel call over the columns is bit-identical to member calls.
    """
    def stacked(op, cols, inv, ctx):
        rows = num_rows(cols, inv)
        return kernel(op, [np.broadcast_to(c, (rows,) + np.shape(c))
                           if shared else c
                           for c, shared in zip(cols, inv)], ctx)
    return stacked
