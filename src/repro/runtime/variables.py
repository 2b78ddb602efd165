"""Runtime state: variables and gradient accumulators.

Variables live outside any graph so that the same parameter can be read
from the main graph and from every (recursive) SubGraph body.  Gradient
accumulators collect per-variable gradient contributions across the
unbounded number of backward frames a recursive model produces.
"""

from __future__ import annotations

import threading
from itertools import repeat

import numpy as np

from repro.graph import dtypes
from repro.graph.graph import get_default_graph
from repro.graph.sparse import IndexedSlices
from repro.graph.tensor import Tensor

__all__ = ["VariableStore", "GradientAccumulator", "Variable", "order_key"]

#: the classes a gradient row is kept as (anything else: ``np.asarray``)
_ROW_CLASSES = (np.ndarray, IndexedSlices)


def order_key(order) -> str:
    """The sortable form of a structural order key — ``(frame key, op
    id)`` for the engines' side effects."""
    return repr(order)


class VariableStore:
    """A thread-safe name -> ndarray mapping."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def create(self, name: str, value: np.ndarray, *,
               allow_overwrite: bool = False) -> None:
        with self._lock:
            if name in self._values and not allow_overwrite:
                raise ValueError(f"variable {name!r} already exists")
            self._values[name] = np.array(value)

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._values

    def read(self, name: str) -> np.ndarray:
        with self._lock:
            try:
                return self._values[name]
            except KeyError:
                raise KeyError(f"variable {name!r} was never created") from None

    def write(self, name: str, value: np.ndarray) -> None:
        with self._lock:
            self._values[name] = value

    def add(self, name: str, delta: np.ndarray) -> np.ndarray:
        """Atomically ``var += delta``; returns the new value."""
        with self._lock:
            new = self._values[name] + delta
            self._values[name] = new
            return new

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._values)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of all variables (used by the distributed simulator)."""
        with self._lock:
            return {k: v.copy() for k, v in self._values.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        with self._lock:
            for k, v in snapshot.items():
                self._values[k] = v.copy()

    def total_parameters(self) -> int:
        with self._lock:
            return int(sum(v.size for v in self._values.values()))

    def total_bytes(self) -> int:
        with self._lock:
            return int(sum(v.nbytes for v in self._values.values()))


class GradientAccumulator:
    """Thread-safe per-variable gradient sums (zeroed before each step).

    Contributions arrive from an unbounded number of concurrent backward
    frames in nondeterministic order (workerpool) or in an order that
    depends on the scheduling mode (micro-batching reorders completions).
    Floating-point addition is not associative, so summing eagerly in
    arrival order would make gradients differ in their last bits between
    batched and unbatched execution and between engines.  Instead each
    contribution is retained with an optional *order key* — the engines
    pass ``(frame key, op id)``, which is structural (the paper's frame-key
    uniqueness argument) and thus identical across schedules — and
    :meth:`read` reduces contributions in canonical order-key order.  The
    result: **bit-identical** gradients for any execution mode of the same
    step.  Contributions without an order key (host-side callers) are
    summed last, in arrival order.

    A contribution is a gradient — a dense ndarray or an
    :class:`~repro.graph.sparse.IndexedSlices` (the sparse embedding
    gradients ``GatherGrad`` emits) — or the *factor rows* ``(a, g)`` of
    one frame's weight gradient ``aᵀ @ g``, which ``MatMul``'s gradient
    defers to here.  :meth:`read` sorts a variable's factor rows by order
    key, contracts them in **one** GEMM ``A.T @ G`` and adds the gradient
    rows to it in canonical order — one stable permutation over their
    keys, then one numpy call that performs exactly that left fold
    (:meth:`_fold_rows`).  Every executor, tier and batching mode
    reaches the same ``read`` with the same keyed rows, so their bits
    agree by construction — and differ in the last place from the
    per-frame fold of dense outer products computed up to PR 18, which
    remains the fallback for factor rows that disagree on shape or dtype.
    Everything is retained by reference until :meth:`zero`.

    Sparse entries stay O(touched rows) and are reduced in canonical order
    at the :meth:`read` boundary: scattered into the dense output buffer
    by one ``np.add.at`` (``dense=True``, the default) or combined into
    one canonical ``IndexedSlices`` (``dense=False``, what a
    ``sparse=True`` optimizer reads).  Each slice carries unique row
    indices, so this performs the same per-row additions in the same
    order as adding the slices one by one.
    """

    def __init__(self):
        #: name -> blocks ``(keys, columns)``; flattened by read()
        self._entries: dict[str, list] = {}
        self._sums: dict[str, np.ndarray] = {}
        self._sparse_sums: dict[str, IndexedSlices] = {}
        self._retained = 0
        self._lock = threading.Lock()

    def add(self, name: str, *values, order=None) -> None:
        """Retain one contribution: a gradient, or factor rows ``a, g``."""
        self.add_block(name, None if order is None else [order_key(order)],
                       *[[v] for v in values])

    def add_block(self, name: str, keys, *cols) -> None:
        """Retain one contribution per member: ``cols[j][i]`` belongs to
        the member whose order key is ``keys[i]`` (``keys=None``: none has
        one).  One column holds gradients, two hold factor rows; a column
        is an array with members on axis 0 or a list, kept as handed over
        and split into rows only by :meth:`read`."""
        nbytes = sum(col.nbytes if isinstance(col, np.ndarray) else
                     sum(getattr(v, "nbytes", 0) for v in col)
                     for col in cols)
        with self._lock:
            self._entries.setdefault(name, []).append((keys, cols))
            self._sums.pop(name, None)
            self._sparse_sums.pop(name, None)
            self._retained += int(nbytes)

    @property
    def retained_bytes(self) -> int:
        """Bytes currently held by unreduced contributions, factor rows
        included (the dominant live-memory term of a backward pass; feeds
        the live-bytes estimate in :class:`~repro.runtime.stats.RunStats`)."""
        return self._retained

    @staticmethod
    def _permutation(keys) -> list:
        """The canonical order of rows with order keys ``keys``: keyed
        rows by key (stable: rows sharing a key keep their order), then
        the un-keyed (``None``) in arrival order."""
        order = sorted([i for i, key in enumerate(keys) if key is not None],
                       key=keys.__getitem__)
        order += [i for i, key in enumerate(keys) if key is None]
        return order

    @classmethod
    def _ordered(cls, blocks) -> list:
        """Entries ``(key, gradient)`` / ``(key, a, g)`` in canonical
        order, one Python entry per row."""
        flat = [entry for keys, cols in blocks
                for entry in zip(repeat(None) if keys is None else keys,
                                 *cols)]
        return [flat[i] for i in cls._permutation([e[0] for e in flat])]

    @staticmethod
    def _rows(blocks):
        """The gradient rows of one-column ``blocks`` in arrival order:
        ``(segments, keys, kinds)`` — array columns (rows on axis 0) and
        lists of rows (ndarrays and ``IndexedSlices``; all list columns
        in one when no column is an array), the per-row keys, and the set
        of ``(class, dtype, shape)`` the rows come in."""
        cols = [col for _, (col,) in blocks]
        keys = [key for block_keys, (col,) in blocks
                for key in block_keys or repeat(None, len(col))]
        arrays = [col.__class__ is np.ndarray for col in cols]
        if False not in arrays:
            segments = cols
        elif True not in arrays:
            segments = [[v for col in cols for v in col]]
        else:
            segments = [col if array else list(col)
                        for col, array in zip(cols, arrays)]
        kinds = set()
        for seg in segments:
            if seg.__class__ is np.ndarray:
                kinds.add((np.ndarray, seg.dtype, seg.shape[1:]))
                continue
            seg[:] = [v if v.__class__ in _ROW_CLASSES
                      or isinstance(v, IndexedSlices) else np.asarray(v)
                      for v in seg]
            kinds.update([(np.ndarray, v.dtype, v.shape)
                          if v.__class__ is np.ndarray else
                          (IndexedSlices, v.values.dtype, v.dense_shape)
                          for v in seg])
        return segments, keys, kinds

    def read(self, name: str, shape=None, np_dtype=np.float32, *,
             dense: bool = True):
        """The canonical per-variable gradient sum.

        ``dense=True`` (the default — and the explicit densification
        boundary of the sparse pipeline) always returns an ndarray.
        ``dense=False`` returns an :class:`IndexedSlices` when every
        contribution is sparse (rows deduplicated in canonical entry
        order), else the dense sum.
        """
        with self._lock:
            blocks = self._entries.get(name)
            if blocks:
                cached = (self._sums if dense else self._sparse_sums).get(name)
                if cached is not None:
                    return cached
                if not dense and all(len(cols) == 1 for _, cols in blocks):
                    segments, keys, kinds = self._rows(blocks)
                    if all(kind[0] is IndexedSlices for kind in kinds):
                        rows = [v for seg in segments for v in seg]
                        combined = self._combine_sparse(
                            [rows[i] for i in self._permutation(keys)])
                        self._sparse_sums[name] = combined
                        return combined
                total = self._sums.get(name)
                if total is None:
                    total = self._sums[name] = self._reduce_dense(blocks)
                return total
        if shape is None:
            raise KeyError(
                f"no gradient accumulated for {name!r} and no static shape "
                "to synthesize zeros from")
        return np.zeros(shape, dtype=np_dtype)

    @classmethod
    def _contract(cls, blocks):
        """``A.T @ G`` over every factor row in canonical order: each
        block's columns flattened to rows once, one stable permutation
        over the per-row keys — the matrices a per-row sort would build.
        None when rows disagree on rank, dtype or inner shape."""
        kinds, sides, keys = set(), ([], []), []
        for block_keys, (a, g) in blocks:
            if a.__class__ is g.__class__ is np.ndarray and a.ndim > 1:
                kinds.add((a.ndim - 1, a.dtype, a.shape[2:], g.dtype,
                           g.shape[2:]))
                counts = repeat(a.shape[1], len(a))
            else:
                kinds.update([(x.ndim, x.dtype, x.shape[1:], y.dtype,
                               y.shape[1:]) for x, y in zip(a, g)])
                counts = [len(x) for x in a]
            if len(kinds) != 1 or next(iter(kinds))[0] != 2:
                return None
            for side, col in zip(sides, (a, g)):
                side.append(col.reshape((-1,) + col.shape[2:])
                            if col.__class__ is np.ndarray
                            else np.concatenate(col))
            keys.extend([key for key, n in zip(block_keys or repeat(None),
                                               counts) for _ in range(n)])
        order = cls._permutation(keys)
        return (np.concatenate(sides[0]).take(order, 0).T
                @ np.concatenate(sides[1]).take(order, 0))

    @classmethod
    def _reduce_dense(cls, blocks) -> np.ndarray:
        """The one combination rule: the contraction of all factor rows,
        then every gradient row added in canonical order — a left fold:
        a pairwise reduction would change the bits.

        The rows are folded in one numpy call (:meth:`_fold_rows`) unless
        they need the per-row loop, which is reached only by
        - factor rows that disagree on rank, dtype or inner shape (the
          exact per-frame fold, each ``aᵀ g`` in its key's place);
        - gradient rows that disagree on dtype or shape with each other
          or with the contraction (each add promotes as it goes);
        - dense and sparse gradient rows on one variable.
        """
        factors = [b for b in blocks if len(b[1]) == 2]
        grads = [b for b in blocks if len(b[1]) == 1]
        total = cls._contract(factors) if factors else None
        if factors and total is None:
            # the exact per-frame fold, each ``aᵀ g`` in its key's place
            chain = [e[1] if len(e) == 2 else e[1].T @ e[2]
                     for e in cls._ordered(blocks)]
        elif not grads:
            return total
        else:
            segments, keys, kinds = cls._rows(grads)
            if len(kinds) == 1:
                kind = next(iter(kinds))
                if total is None or (total.dtype, total.shape) == kind[1:]:
                    return cls._fold_rows(segments, cls._permutation(keys),
                                          total, *kind)
            chain = [e[1] for e in cls._ordered(grads)]
        if total is None:
            first = chain.pop(0)
            total = (first.to_dense() if isinstance(first, IndexedSlices)
                     else np.array(first))
        for grad in chain:
            if isinstance(grad, IndexedSlices):
                # unique rows: exactly one add per touched row, in the
                # same order the dense chain would apply them
                grad.add_to(total)
                continue
            grad = np.asarray(grad)
            if grad.dtype == total.dtype and grad.shape == total.shape:
                total += grad  # same ufunc loop as ``total = total + grad``
            else:
                total = total + grad  # dtype/shape promotion: keep exact
        return total

    @staticmethod
    def _fold_rows(segments, order, total, kind, dtype, shape) -> np.ndarray:
        """``total`` (or the first row) plus every row of ``segments``
        (:meth:`_rows`) in ``order``, all of one ``kind``, ``dtype`` and
        ``shape``, in one call that adds exactly as the left fold
        ``total += row`` does.

        Sparse rows (unique indices each) are one ``np.add.at`` over
        their concatenated indices and values: ``ufunc.at`` adds
        sequentially, so each table row sees its contributions in
        canonical order.  Dense rows are stacked C-contiguous, the
        contraction on top, and reduced over axis 0: with an innermost
        extent above 1 numpy's reduction runs the outer axis as a loop
        of elementwise adds, from ``initial=-0.0`` — IEEE's additive
        identity, where numpy's own starts from ``+0.0`` and would lose
        a ``-0.0`` row; otherwise (scalar or width-1 rows, which numpy
        would sum pairwise) the last row of ``np.add.accumulate``.
        """
        if kind is IndexedSlices:
            flat = [v for seg in segments for v in seg]
            rows = [flat[i] for i in order]
            if total is None:
                total = np.zeros(shape, dtype=dtype)
            np.add.at(total, np.concatenate([r.indices for r in rows]),
                      np.concatenate([r.values for r in rows]))
            return total
        cols = [seg if seg.__class__ is np.ndarray else np.array(seg)
                for seg in segments]
        flat = cols[0] if len(cols) == 1 else np.concatenate(cols)
        lead = total is not None
        stack = np.empty((lead + len(order),) + shape, dtype=dtype)
        if lead:
            stack[0] = total
        np.take(flat, order, axis=0, out=stack[lead:])
        if shape and shape[-1] > 1:
            return np.add.reduce(stack, axis=0, dtype=dtype, initial=-0.0)
        return np.add.accumulate(stack, axis=0, dtype=dtype)[-1, ...].copy()

    @staticmethod
    def _combine_sparse(slices) -> IndexedSlices:
        """Concatenate canonical-order slices, then deduplicate rows.

        The concatenation preserves entry order and every segment has
        unique rows, so the left-fold ``np.add.at`` performs for each row
        adds that row's contributions in canonical entry order — the
        exact additions the dense reduction performs for that row.
        """
        combined = IndexedSlices(
            np.concatenate([s.indices for s in slices]),
            np.concatenate([s.values for s in slices]),
            slices[0].dense_shape)
        return combined.unique()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def zero(self) -> None:
        with self._lock:
            self._entries.clear()
            self._sums.clear()
            self._sparse_sums.clear()
            self._retained = 0


class Variable:
    """A trainable parameter registered in a runtime's variable store.

    ``Variable.read()`` builds (and memoizes per graph) a ``ReadVariable``
    op in the current default graph, so the variable is usable from main
    graphs and SubGraph bodies alike.
    """

    def __init__(self, name: str, initial_value, *, runtime=None,
                 trainable: bool = True):
        from repro.runtime.session import default_runtime
        self.runtime = runtime or default_runtime()
        value = np.asarray(initial_value)
        if value.dtype == np.float64:
            value = value.astype(np.float32)
        self.name = name
        self.dtype = dtypes.from_numpy(value)
        self.shape = value.shape
        self.trainable = trainable
        self.runtime.variables.create(name, value)
        if trainable:
            self.runtime.register_trainable(self)

    def read(self) -> Tensor:
        """Symbolic read of the current value, memoized per graph."""
        from repro.ops import var_ops
        graph = get_default_graph()
        memo = graph.variable_read_memo
        if self.name not in memo:
            memo[self.name] = var_ops.read_variable(
                self.name, self.dtype, self.shape)
        return memo[self.name]

    def value(self) -> np.ndarray:
        """Current concrete value (host-side read)."""
        return self.runtime.variables.read(self.name)

    def assign_value(self, value: np.ndarray) -> None:
        """Host-side overwrite (used by tests and the distributed sim)."""
        self.runtime.variables.write(self.name,
                                     np.asarray(value, dtype=self.dtype.np_dtype))

    def __repr__(self) -> str:
        return f"<Variable {self.name!r} shape={self.shape}>"
