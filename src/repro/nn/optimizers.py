"""Optimizers: SGD, Adagrad, Adam.

Each optimizer has two faces sharing the same update math:

* :meth:`build_apply` — build the *apply* graph that reads the runtime's
  gradient accumulators (filled during the backward phase) and updates the
  variables; the returned tensors are the fetches of the training step's
  second phase.  SGD and Adagrad apply one fused op per variable
  (``ApplySGD`` / ``ApplyAdagrad``, as TensorFlow's optimizers do), so
  their apply graph is two ops per variable: ``ReadAccum`` and the
  update.  Adam has no fused op and builds its update from graph ops.
* :meth:`apply_numpy` — the same update applied host-side from a grads
  dict; used by the folding baseline, which computes gradients in numpy.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import ops
from repro.graph.graph import Graph
from repro.graph.sparse import IndexedSlices
from repro.graph.tensor import Tensor
from repro.runtime.variables import Variable

__all__ = ["SGD", "Adagrad", "Adam"]


class _OptimizerBase:
    #: subclasses whose fused update touches only the gradient's rows
    #: can apply an IndexedSlices directly; Adam cannot — its momentum
    #: decay touches every row, so it reads densified.
    _sparse_capable = False

    def __init__(self, learning_rate: float, sparse: bool = False):
        self.learning_rate = float(learning_rate)
        #: when on (and the subclass supports it) the apply graph reads
        #: the accumulator with ``dense=False``, so the fused update gets
        #: IndexedSlices gradients and touches their rows only —
        #: bit-identical to the dense update, O(touched rows) instead of
        #: O(vocab)
        self.sparse = bool(sparse) and self._sparse_capable

    def build_apply(self, graph: Graph, variables: Sequence[Variable],
                    runtime) -> list[Tensor]:
        """Build update ops for ``variables`` in ``graph``; returns fetches."""
        fetches = []
        with graph.as_default():
            for var in variables:
                grad = ops.read_accum(var.name, var.dtype, var.shape,
                                      dense=not self.sparse)
                fetches.append(self._build_update(var, grad, runtime))
        return fetches

    def apply_numpy(self, runtime, grads: dict[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            if isinstance(grad, IndexedSlices):
                grad = grad.to_dense()
            value = runtime.variables.read(name)
            runtime.variables.write(name,
                                    self._numpy_update(name, value, grad))

    # subclass hooks ---------------------------------------------------------

    def _build_update(self, var: Variable, grad: Tensor, runtime) -> Tensor:
        raise NotImplementedError

    def _numpy_update(self, name: str, value: np.ndarray,
                      grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SGD(_OptimizerBase):
    """Plain stochastic gradient descent: ``var -= lr * grad``."""

    _sparse_capable = True

    def _build_update(self, var, grad, runtime):
        return ops.apply_sgd(var.name, grad, self.learning_rate)

    def _numpy_update(self, name, value, grad):
        return value - self.learning_rate * grad


class Adagrad(_OptimizerBase):
    """Adagrad [Duchi et al.]: per-parameter adaptive learning rates.

    The original TreeRNN/RNTN/TreeLSTM papers train with Adagrad, which is
    why it is the default in the model configs.
    """

    _sparse_capable = True

    def __init__(self, learning_rate: float = 0.05, epsilon: float = 1e-8,
                 sparse: bool = False):
        super().__init__(learning_rate, sparse=sparse)
        self.epsilon = epsilon
        self._slots: dict[str, Variable] = {}
        self._np_slots: dict[str, np.ndarray] = {}

    def _slot(self, var: Variable, runtime) -> Variable:
        if var.name not in self._slots:
            self._slots[var.name] = Variable(
                f"{var.name}/adagrad", np.zeros(var.shape, dtype=np.float32),
                runtime=runtime, trainable=False)
        return self._slots[var.name]

    def _build_update(self, var, grad, runtime):
        slot = self._slot(var, runtime)
        return ops.apply_adagrad(var.name, slot.name, grad,
                                 self.learning_rate, self.epsilon)

    def _numpy_update(self, name, value, grad):
        accum = self._np_slots.get(name)
        accum = grad * grad if accum is None else accum + grad * grad
        self._np_slots[name] = accum
        return value - self.learning_rate * grad / (np.sqrt(accum)
                                                    + self.epsilon)


class Adam(_OptimizerBase):
    """Adam [Kingma & Ba] with bias correction."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8):
        super().__init__(learning_rate)
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m: dict[str, Variable] = {}
        self._v: dict[str, Variable] = {}
        self._t: Optional[Variable] = None
        self._np_state: dict[str, tuple] = {}
        self._np_t = 0
        self._t_tensor_memo: dict[int, Tensor] = {}

    def _step_counter(self, runtime) -> Tensor:
        """One shared ``t += 1`` per apply graph (not per variable)."""
        from repro.graph.graph import get_default_graph
        graph = get_default_graph()
        if graph.graph_id not in self._t_tensor_memo:
            if self._t is None:
                self._t = Variable("adam/t", np.float32(0.0),
                                   runtime=runtime, trainable=False)
            self._t_tensor_memo[graph.graph_id] = ops.assign_add(
                self._t.name, ops.constant(np.float32(1.0)))
        return self._t_tensor_memo[graph.graph_id]

    def _build_update(self, var, grad, runtime):
        if var.name not in self._m:
            zeros = np.zeros(var.shape, dtype=np.float32)
            self._m[var.name] = Variable(f"{var.name}/adam_m", zeros,
                                         runtime=runtime, trainable=False)
            self._v[var.name] = Variable(f"{var.name}/adam_v", zeros,
                                         runtime=runtime, trainable=False)
        t = self._step_counter(runtime)
        m = ops.assign(self._m[var.name].name,
                       ops.add(ops.multiply(self._m[var.name].read(),
                                            self.beta1),
                               ops.multiply(grad, 1.0 - self.beta1)))
        v = ops.assign(self._v[var.name].name,
                       ops.add(ops.multiply(self._v[var.name].read(),
                                            self.beta2),
                               ops.multiply(ops.square(grad),
                                            1.0 - self.beta2)))
        # bias correction: m / (1 - beta1^t), v / (1 - beta2^t)
        b1t = ops.exp(ops.multiply(t, np.log(self.beta1)))
        b2t = ops.exp(ops.multiply(t, np.log(self.beta2)))
        m_hat = ops.divide(m, ops.subtract(1.0, b1t))
        v_hat = ops.divide(v, ops.subtract(1.0, b2t))
        step = ops.divide(ops.multiply(m_hat, self.learning_rate),
                          ops.add(ops.sqrt(v_hat), self.epsilon))
        return ops.assign_sub(var.name, step)

    def _numpy_update(self, name, value, grad):
        m, v = self._np_state.get(name, (np.zeros_like(grad),
                                         np.zeros_like(grad)))
        self._np_t += 1
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        self._np_state[name] = (m, v)
        m_hat = m / (1 - self.beta1 ** self._np_t)
        v_hat = v / (1 - self.beta2 ** self._np_t)
        return value - self.learning_rate * m_hat / (np.sqrt(v_hat)
                                                     + self.epsilon)
