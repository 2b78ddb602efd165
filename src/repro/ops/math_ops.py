"""Arithmetic, transcendental, comparison and selection operations.

Each operation registers a numpy kernel, static output inference and a
gradient function.  Binary elementwise ops broadcast per numpy rules; their
gradients are wrapped in ``ReduceToLike`` so that broadcast dimensions are
summed back out at run time.
"""

from __future__ import annotations

import numpy as np

from repro.graph import dtypes
from repro.graph.registry import register_op
from repro.graph.tensor import Tensor

from .common import (build, constant, convert, elementwise_infer,
                     like_infer, out1, stacked_elementwise)

__all__ = [
    "constant", "placeholder", "identity", "add", "subtract", "multiply",
    "divide", "negative", "matmul", "tanh", "sigmoid", "relu", "exp", "log",
    "square", "sqrt", "maximum", "minimum", "abs_", "sign",
    "equal", "not_equal", "less", "less_equal", "greater", "greater_equal",
    "logical_and", "logical_or", "logical_not", "select", "cast",
    "reduce_to_like",
]


# -- sources ---------------------------------------------------------------

def _const_infer(op):
    value = op.attrs["value"]
    if isinstance(value, np.ndarray):
        return [(dtypes.from_numpy(value), value.shape)]
    return [(dtypes.variant, None)]


register_op(
    "Const",
    infer=_const_infer,
    kernel=lambda op, inputs, ctx: [op.attrs["value"]],
    grad=lambda gb, op, grads: [],
    cost="trivial",
)


def _placeholder_infer(op):
    return [(op.attrs["dtype"], op.attrs.get("shape"))]


def _placeholder_kernel(op, inputs, ctx):
    raise RuntimeError(
        f"placeholder {op.name} was not fed; pass it in feed_dict or bind it "
        "as a SubGraph input")


register_op(
    "Placeholder",
    infer=_placeholder_infer,
    kernel=_placeholder_kernel,
    grad=lambda gb, op, grads: [],
    cost="trivial",
)


def placeholder(dtype, shape=None, name="placeholder") -> Tensor:
    """A value supplied at run time via ``feed_dict`` (or SubGraph binding)."""
    return out1("Placeholder", [],
                {"dtype": dtypes.as_dtype(dtype), "shape": shape}, name=name)


register_op(
    "Identity",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [inputs[0]],
    grad=lambda gb, op, grads: [grads[0]],
    cost="trivial",
)


def identity(x, name="identity") -> Tensor:
    return out1("Identity", [x], name=name)


# -- broadcast gradient helper ---------------------------------------------

def _reduce_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (gdim, sdim) in enumerate(zip(grad.shape, shape)):
        if sdim == 1 and gdim != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


register_op(
    "ReduceToLike",
    infer=lambda op: [(op.inputs[0].dtype, op.inputs[1].shape)],
    kernel=lambda op, inputs, ctx: [_reduce_to_shape(inputs[0],
                                                     inputs[1].shape)],
    grad=None,  # only appears in backward graphs
    cost="elementwise",
)


def reduce_to_like(grad, ref) -> Tensor:
    """Sum ``grad`` over broadcast dimensions so it matches ``ref``'s shape."""
    return out1("ReduceToLike", [grad, ref])


def _bcast_grads(gb, op, pairs):
    """Wrap raw per-input gradients with ReduceToLike against each input."""
    out = []
    for raw, inp in zip(pairs, op.inputs):
        if raw is None or not inp.dtype.is_floating:
            out.append(None)
        else:
            out.append(reduce_to_like(raw, gb.val(inp)))
    return out


# -- binary arithmetic -------------------------------------------------------

register_op(
    "Add",
    infer=elementwise_infer,
    kernel=lambda op, inputs, ctx: [inputs[0] + inputs[1]],
    grad=lambda gb, op, g: _bcast_grads(gb, op, [g[0], g[0]]),
    cost="elementwise",
)

register_op(
    "Sub",
    infer=elementwise_infer,
    kernel=lambda op, inputs, ctx: [inputs[0] - inputs[1]],
    grad=lambda gb, op, g: _bcast_grads(gb, op, [g[0], negative(g[0])]),
    cost="elementwise",
)

register_op(
    "Mul",
    infer=elementwise_infer,
    kernel=lambda op, inputs, ctx: [inputs[0] * inputs[1]],
    grad=lambda gb, op, g: _bcast_grads(
        gb, op,
        [multiply(g[0], gb.val(op.inputs[1])),
         multiply(g[0], gb.val(op.inputs[0]))]),
    cost="elementwise",
)


def _div_kernel(op, inputs, ctx):
    return [inputs[0] / inputs[1]]


def _div_grad(gb, op, g):
    x, y = gb.val(op.inputs[0]), gb.val(op.inputs[1])
    gx = divide(g[0], y)
    gy = negative(divide(multiply(g[0], x), multiply(y, y)))
    return _bcast_grads(gb, op, [gx, gy])


register_op("Div", infer=elementwise_infer, kernel=_div_kernel,
            grad=_div_grad, cost="elementwise")


def add(x, y, name="add") -> Tensor:
    return out1("Add", [x, y], name=name)


def subtract(x, y, name="sub") -> Tensor:
    return out1("Sub", [x, y], name=name)


def multiply(x, y, name="mul") -> Tensor:
    return out1("Mul", [x, y], name=name)


def divide(x, y, name="div") -> Tensor:
    return out1("Div", [x, y], name=name)


# -- unary math --------------------------------------------------------------

register_op(
    "Neg",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [-inputs[0]],
    grad=lambda gb, op, g: [negative(g[0])],
    cost="elementwise",
)


def negative(x, name="neg") -> Tensor:
    return out1("Neg", [x], name=name)


register_op(
    "Tanh",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.tanh(inputs[0])],
    grad=lambda gb, op, g: [multiply(
        g[0], subtract(1.0, square(gb.val(op.outputs[0]))))],
    cost="elementwise",
)


def tanh(x, name="tanh") -> Tensor:
    return out1("Tanh", [x], name=name)


def _sigmoid(x):
    # e = exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere: both
    # branches of the stable form, evaluated without a mask gather.  The
    # numerator is 1 where x >= 0, else e: as e lies in [0, 1] (or is
    # NaN, which maximum propagates), max(e, x >= 0) picks it exactly and
    # without a branching select
    e = np.exp(-np.abs(x))
    return np.asarray(np.maximum(e, x >= 0, dtype=e.dtype) / (1.0 + e))


register_op(
    "Sigmoid",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [_sigmoid(np.asarray(inputs[0]))],
    grad=lambda gb, op, g: [multiply(g[0], multiply(
        gb.val(op.outputs[0]),
        subtract(1.0, gb.val(op.outputs[0]))))],
    cost="elementwise",
)


def sigmoid(x, name="sigmoid") -> Tensor:
    return out1("Sigmoid", [x], name=name)


register_op(
    "Relu",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.maximum(inputs[0], 0)],
    grad=lambda gb, op, g: [multiply(
        g[0], cast(greater(gb.val(op.inputs[0]), 0.0),
                   op.inputs[0].dtype))],
    cost="elementwise",
)


def relu(x, name="relu") -> Tensor:
    return out1("Relu", [x], name=name)


register_op(
    "Exp",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.exp(inputs[0])],
    grad=lambda gb, op, g: [multiply(g[0], gb.val(op.outputs[0]))],
    cost="elementwise",
)


def exp(x, name="exp") -> Tensor:
    return out1("Exp", [x], name=name)


register_op(
    "Log",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.log(inputs[0])],
    grad=lambda gb, op, g: [divide(g[0], gb.val(op.inputs[0]))],
    cost="elementwise",
)


def log(x, name="log") -> Tensor:
    return out1("Log", [x], name=name)


register_op(
    "Square",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.square(inputs[0])],
    grad=lambda gb, op, g: [multiply(g[0],
                                     multiply(2.0, gb.val(op.inputs[0])))],
    cost="elementwise",
)


def square(x, name="square") -> Tensor:
    return out1("Square", [x], name=name)


register_op(
    "Sqrt",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.sqrt(inputs[0])],
    grad=lambda gb, op, g: [divide(g[0],
                                   multiply(2.0, gb.val(op.outputs[0])))],
    cost="elementwise",
)


def sqrt(x, name="sqrt") -> Tensor:
    return out1("Sqrt", [x], name=name)


register_op(
    "Abs",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.abs(inputs[0])],
    grad=lambda gb, op, g: [multiply(g[0], sign(gb.val(op.inputs[0])))],
    cost="elementwise",
)


def abs_(x, name="abs") -> Tensor:
    return out1("Abs", [x], name=name)


register_op(
    "Sign",
    infer=like_infer,
    kernel=lambda op, inputs, ctx: [np.sign(inputs[0])],
    grad=lambda gb, op, g: [None],
    cost="elementwise",
)


def sign(x, name="sign") -> Tensor:
    return out1("Sign", [x], name=name)


def _maximum_grad(gb, op, g):
    x, y = gb.val(op.inputs[0]), gb.val(op.inputs[1])
    mask = cast(greater_equal(x, y), op.inputs[0].dtype)
    return _bcast_grads(gb, op, [multiply(g[0], mask),
                                 multiply(g[0], subtract(1.0, mask))])


register_op(
    "Maximum",
    infer=elementwise_infer,
    kernel=lambda op, inputs, ctx: [np.maximum(inputs[0], inputs[1])],
    grad=_maximum_grad,
    cost="elementwise",
)


def maximum(x, y, name="maximum") -> Tensor:
    return out1("Maximum", [x, y], name=name)


def _minimum_grad(gb, op, g):
    x, y = gb.val(op.inputs[0]), gb.val(op.inputs[1])
    mask = cast(less_equal(x, y), op.inputs[0].dtype)
    return _bcast_grads(gb, op, [multiply(g[0], mask),
                                 multiply(g[0], subtract(1.0, mask))])


register_op(
    "Minimum",
    infer=elementwise_infer,
    kernel=lambda op, inputs, ctx: [np.minimum(inputs[0], inputs[1])],
    grad=_minimum_grad,
    cost="elementwise",
)


def minimum(x, y, name="minimum") -> Tensor:
    return out1("Minimum", [x, y], name=name)


# -- matmul ------------------------------------------------------------------

def _matmul_infer(op):
    a, b = op.inputs
    if not (a.dtype.is_floating and b.dtype.is_floating):
        raise TypeError("MatMul requires floating inputs")
    shape = None
    if a.shape is not None and b.shape is not None:
        if len(a.shape) != 2 or len(b.shape) != 2:
            raise ValueError(f"MatMul expects rank-2 inputs, got "
                             f"{a.shape} @ {b.shape}")
        if (a.shape[1] is not None and b.shape[0] is not None
                and a.shape[1] != b.shape[0]):
            raise ValueError(f"MatMul inner dims differ: {a.shape} @ {b.shape}")
        shape = (a.shape[0], b.shape[1])
    return [(a.dtype, shape)]


def _matmul_grad(gb, op, g):
    a, b = gb.val(op.inputs[0]), gb.val(op.inputs[1])
    from .array_ops import transpose
    grad_a = matmul(g[0], transpose(b))
    weight = op.inputs[1]
    if weight.op.op_type != "ReadVariable" or weight.ref in gb.wanted:
        return [grad_a, matmul(transpose(a), g[0])]
    # A weight: no per-frame [K, H] outer product.  The frame hands its
    # factor rows to the accumulator, whose read contracts every frame's
    # rows in one ``A.T @ G`` (see GradientAccumulator).
    from .var_ops import accum_grad
    gb.add_update(accum_grad(weight.op.attrs["var_name"], g[0], a).op)
    return [grad_a, None]


register_op(
    "MatMul",
    infer=_matmul_infer,
    kernel=lambda op, inputs, ctx: [inputs[0] @ inputs[1]],
    grad=_matmul_grad,
    cost="matmul",
)


def matmul(a, b, name="matmul") -> Tensor:
    """Rank-2 matrix product."""
    return out1("MatMul", [a, b], name=name)


# -- comparisons and logic ---------------------------------------------------

def _cmp_infer(op):
    from .common import static_broadcast_shape
    return [(dtypes.bool_,
             static_broadcast_shape(op.inputs[0].shape, op.inputs[1].shape))]


def _register_cmp(name, fn):
    register_op(name, infer=_cmp_infer,
                kernel=lambda op, inputs, ctx, _fn=fn: [_fn(inputs[0],
                                                            inputs[1])],
                grad=lambda gb, op, g: [None, None],
                cost="elementwise")


_register_cmp("Equal", lambda a, b: np.equal(a, b))
_register_cmp("NotEqual", lambda a, b: np.not_equal(a, b))
_register_cmp("Less", lambda a, b: np.less(a, b))
_register_cmp("LessEqual", lambda a, b: np.less_equal(a, b))
_register_cmp("Greater", lambda a, b: np.greater(a, b))
_register_cmp("GreaterEqual", lambda a, b: np.greater_equal(a, b))
_register_cmp("LogicalAnd", lambda a, b: np.logical_and(a, b))
_register_cmp("LogicalOr", lambda a, b: np.logical_or(a, b))


def equal(x, y, name="equal") -> Tensor:
    return out1("Equal", [x, y], name=name)


def not_equal(x, y, name="not_equal") -> Tensor:
    return out1("NotEqual", [x, y], name=name)


def less(x, y, name="less") -> Tensor:
    return out1("Less", [x, y], name=name)


def less_equal(x, y, name="less_equal") -> Tensor:
    return out1("LessEqual", [x, y], name=name)


def greater(x, y, name="greater") -> Tensor:
    return out1("Greater", [x, y], name=name)


def greater_equal(x, y, name="greater_equal") -> Tensor:
    return out1("GreaterEqual", [x, y], name=name)


def logical_and(x, y, name="logical_and") -> Tensor:
    return out1("LogicalAnd", [x, y], name=name)


def logical_or(x, y, name="logical_or") -> Tensor:
    return out1("LogicalOr", [x, y], name=name)


register_op(
    "LogicalNot",
    infer=lambda op: [(dtypes.bool_, op.inputs[0].shape)],
    kernel=lambda op, inputs, ctx: [np.logical_not(inputs[0])],
    grad=lambda gb, op, g: [None],
    cost="elementwise",
)


def logical_not(x, name="logical_not") -> Tensor:
    return out1("LogicalNot", [x], name=name)


def _select_infer(op):
    t = op.inputs[1]
    return [(t.dtype, t.shape)]


def _select_grad(gb, op, g):
    cond = gb.val(op.inputs[0])
    zeros = multiply(g[0], 0.0)
    return [None, select(cond, g[0], zeros), select(cond, zeros, g[0])]


register_op(
    "Select",
    infer=_select_infer,
    kernel=lambda op, inputs, ctx: [np.where(inputs[0], inputs[1],
                                             inputs[2])],
    grad=_select_grad,
    cost="elementwise",
)


def select(condition, x, y, name="select") -> Tensor:
    """Elementwise ``condition ? x : y`` (both branches are computed —
    use :func:`repro.cond` to *avoid* computing one side)."""
    return out1("Select", [condition, x, y], name=name)


# -- cast --------------------------------------------------------------------

def _cast_infer(op):
    return [(op.attrs["dtype"], op.inputs[0].shape)]


def _cast_grad(gb, op, g):
    src = op.inputs[0].dtype
    if src.is_floating and op.attrs["dtype"].is_floating:
        return [cast(g[0], src)]
    return [None]


register_op(
    "Cast",
    infer=_cast_infer,
    kernel=lambda op, inputs, ctx: [
        np.asarray(inputs[0]).astype(op.attrs["dtype"].np_dtype)],
    grad=_cast_grad,
    cost="elementwise",
)


def cast(x, dtype, name="cast") -> Tensor:
    return out1("Cast", [x], {"dtype": dtypes.as_dtype(dtype)}, name=name)


# -- stacked / batched kernels -------------------------------------------------
#
# Columnar kernels for the hot math ops (see repro.ops.common): compiled
# level sweeps call them directly, the dynamic coalescer (``batching=True``)
# through the derived batched entry.  All of them are value-preserving:
# elementwise ufuncs over stacked operands and per-slice gufunc matmuls
# produce bit-identical results to the scalar kernels, which the
# equivalence tests assert.

def _stacked_matmul(op, cols, inv, ctx):
    a, b = cols
    if a.ndim - (not inv[0]) != 2 or b.ndim - (not inv[1]) != 2:
        return None
    # gufunc: one BLAS call per member slice, a shared operand broadcast.
    # Never reshape members into one [B*n, K] GEMM: BLAS blocks a tall
    # product differently and the result is not bit-identical.
    return [np.matmul(a, b)]


def _stacked_reduce_to_like(op, cols, inv, ctx):
    """Broadcast-gradient reduction (elementwise-grad hot path).

    ``ReduceToLike`` sums a gradient down to a reference shape; members
    share both shapes, so the per-member axis-wise ``sum`` calls become
    axis-shifted sums over the gradient column.  ``np.sum`` over one axis
    of a stacked array performs the same reduction per member slice as
    the per-member call — bit-identical.
    """
    if inv[0]:
        return None
    grad = cols[0]
    shape = cols[1].shape if inv[1] else cols[1].shape[1:]
    while grad.ndim - 1 > len(shape):
        grad = grad.sum(axis=1)
    for axis, (gdim, sdim) in enumerate(zip(grad.shape[1:], shape)):
        if sdim == 1 and gdim != 1:
            grad = grad.sum(axis=axis + 1, keepdims=True)
    return [grad]


def _stacked_cast(op, cols, inv, ctx):
    return [cols[0].astype(op.attrs["dtype"].np_dtype)]


def _register_batched_math():
    from repro.graph.registry import register_batched_kernel

    from .common import register_stacked

    register_stacked("MatMul", _stacked_matmul)
    register_stacked("Cast", _stacked_cast, batch_attrs=("dtype",))

    binary = {"Add": np.add, "Sub": np.subtract, "Mul": np.multiply,
              "Div": np.divide, "Maximum": np.maximum,
              "Minimum": np.minimum, "Equal": np.equal,
              "NotEqual": np.not_equal, "Less": np.less,
              "LessEqual": np.less_equal, "Greater": np.greater,
              "GreaterEqual": np.greater_equal,
              "LogicalAnd": np.logical_and, "LogicalOr": np.logical_or}
    unary = {"Neg": np.negative, "Tanh": np.tanh, "Sigmoid": _sigmoid,
             "Relu": lambda x: np.maximum(x, 0), "Exp": np.exp,
             "Log": np.log, "Square": np.square, "Sqrt": np.sqrt,
             "Abs": np.abs, "Sign": np.sign, "LogicalNot": np.logical_not}
    ternary = {"Select": np.where}
    for name, fn in {**binary, **unary, **ternary}.items():
        register_stacked(name, stacked_elementwise(fn))
    # Pure pass-through: the member loop already removes the per-op
    # engine overhead, which is its entire cost; a column passes whole.
    register_batched_kernel("Identity",
                            stacked=lambda op, cols, inv, ctx: [cols[0]])
    # Broadcast-gradient reduction is on every binary elementwise op's
    # backward path; it vectorizes because bucket members share shapes.
    register_stacked("ReduceToLike", _stacked_reduce_to_like)


_register_batched_math()
