"""Neural-network specific operations: softmax and fused cross-entropy."""

from __future__ import annotations

import numpy as np

from repro.graph import dtypes
from repro.graph.registry import register_op
from repro.graph.tensor import Tensor

from .common import out1
from .math_ops import multiply, subtract
from .reduction_ops import reduce_sum

__all__ = ["softmax", "log_softmax", "softmax_cross_entropy_with_logits"]


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(gb, op, g):
    y = gb.val(op.outputs[0])
    inner = reduce_sum(multiply(g[0], y), axis=-1, keepdims=True)
    return [multiply(y, subtract(g[0], inner))]


register_op(
    "Softmax",
    infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
    kernel=lambda op, inputs, ctx: [_softmax(np.asarray(inputs[0]))],
    grad=_softmax_grad,
    cost="elementwise",
)


def softmax(logits, name="softmax") -> Tensor:
    """Numerically stable softmax along the last axis."""
    return out1("Softmax", [logits], name=name)


def _log_softmax_kernel(op, inputs, ctx):
    x = np.asarray(inputs[0])
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return [shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))]


def _log_softmax_grad(gb, op, g):
    y = gb.val(op.outputs[0])
    from .math_ops import exp
    total = reduce_sum(g[0], axis=-1, keepdims=True)
    return [subtract(g[0], multiply(exp(y), total))]


register_op(
    "LogSoftmax",
    infer=lambda op: [(op.inputs[0].dtype, op.inputs[0].shape)],
    kernel=_log_softmax_kernel,
    grad=_log_softmax_grad,
    cost="elementwise",
)


def log_softmax(logits, name="log_softmax") -> Tensor:
    return out1("LogSoftmax", [logits], name=name)


# -- fused cross entropy -----------------------------------------------------

def _ce_infer(op):
    logits = op.inputs[0]
    if logits.shape is None:
        return [(logits.dtype, None)]
    return [(logits.dtype, tuple(logits.shape[:-1]))]


def _ce_kernel(op, inputs, ctx):
    logits = np.asarray(inputs[0])
    labels = np.asarray(inputs[1])
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(log_probs, labels[..., None].astype(np.int64),
                                axis=-1)[..., 0]
    return [(-picked).astype(logits.dtype)]


def _ce_grad(gb, op, g):
    dlogits = out1("SoftmaxCEGrad",
                   [g[0], gb.val(op.inputs[0]), gb.val(op.inputs[1])])
    return [dlogits, None]


def _ce_grad_kernel(op, inputs, ctx):
    g, logits, labels = (np.asarray(v) for v in inputs)
    probs = _softmax(logits)
    onehot = np.zeros_like(probs)
    np.put_along_axis(onehot, labels[..., None].astype(np.int64), 1.0,
                      axis=-1)
    return [((probs - onehot) * g[..., None]).astype(logits.dtype)]


register_op("SoftmaxCrossEntropy", infer=_ce_infer, kernel=_ce_kernel,
            grad=_ce_grad, cost="elementwise")
register_op("SoftmaxCEGrad",
            infer=lambda op: [(op.inputs[1].dtype, op.inputs[1].shape)],
            kernel=_ce_grad_kernel, grad=None, cost="elementwise")


def softmax_cross_entropy_with_logits(logits, labels,
                                      name="softmax_ce") -> Tensor:
    """Per-example cross entropy between ``logits`` and int ``labels``.

    ``logits``: float ``[..., num_classes]``; ``labels``: int ``[...]``.
    Returns the elementwise loss with shape ``[...]``.
    """
    return out1("SoftmaxCrossEntropy", [logits, labels], name=name)


# -- stacked / batched kernels -------------------------------------------------
#
# Softmax-family kernels compute independently along the last axis, so the
# stacked-members application is bit-identical to per-member calls.

def _register_batched_nn():
    from repro.graph.registry import op_def

    from .common import register_stacked, stacked_rowwise

    for name in ("Softmax", "LogSoftmax", "SoftmaxCrossEntropy",
                 "SoftmaxCEGrad"):
        register_stacked(name, stacked_rowwise(op_def(name).kernel))


_register_batched_nn()
