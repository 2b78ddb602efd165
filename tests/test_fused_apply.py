"""Fused optimizer updates and the one-call gradient fold.

SGD and Adagrad apply one fused op per variable (``ApplySGD`` /
``ApplyAdagrad``).  The graph-built chains those ops replaced on the
dense path are kept here as the reference: over consecutive training
steps the fused update moves variables and Adagrad slots bit-identically
to them, on both models, both engines, both tiers and with sparse
gathers on and off.  ``GradientAccumulator.read`` folds a variable's
rows in one numpy call; the row-by-row reduction it replaced is kept
here verbatim as the reference of a property sweep.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

import numpy as np
import pytest

import repro
from repro import ops
from repro.data import batch_trees, make_treebank
from repro.graph.sparse import (IndexedSlices, set_sparse_gather_grads,
                                sparse_gather_grads_enabled)
from repro.models import (ModelConfig, TreeLSTMSentiment, TreeRNNSentiment,
                          tree_lstm_config)
from repro.nn import SGD, Adagrad
from repro.runtime.scheduler import available_executors
from repro.runtime.variables import GradientAccumulator, order_key


# -- the deleted graph-built updates, as the reference ------------------------


class _ChainSGD(SGD):
    """SGD's dense update as a graph chain: ``assign_sub(var, grad * lr)``."""

    def _build_update(self, var, grad, runtime):
        step = ops.multiply(grad, self.learning_rate)
        return ops.assign_sub(var.name, step)


class _ChainAdagrad(Adagrad):
    """Adagrad's dense update as a graph chain: nine ops (two of them
    constants) after the ``ReadAccum``."""

    def _build_update(self, var, grad, runtime):
        slot = self._slot(var, runtime)
        new_accum = ops.assign_add(slot.name, ops.square(grad))
        denom = ops.add(ops.sqrt(new_accum), self.epsilon)
        step = ops.divide(ops.multiply(grad, self.learning_rate), denom)
        return ops.assign_sub(var.name, step)


OPTIMIZERS = {"sgd": (_ChainSGD, SGD), "adagrad": (_ChainAdagrad, Adagrad)}

MODELS = {
    "TreeLSTM": lambda runtime: TreeLSTMSentiment(
        tree_lstm_config(vocab_size=40, hidden=6, embed_dim=5), runtime),
    "TreeRNN": lambda runtime: TreeRNNSentiment(
        ModelConfig(vocab_size=40, hidden=6, embed_dim=6), runtime),
}


@pytest.fixture(scope="module")
def trees():
    return make_treebank(num_train=3, num_val=0, vocab_size=40,
                         max_words=10, mean_log_words=2.0, seed=43).train


@pytest.fixture(autouse=True)
def _restore_sparse_mode():
    previous = sparse_gather_grads_enabled()
    yield
    set_sparse_gather_grads(previous)


def _train(model_name, optimizer, engine, compiled, trees, steps=3):
    """``steps`` consecutive training steps (gradient run, then the
    apply run); returns every variable and slot, and the apply run's
    ops per trainable variable."""
    runtime = repro.Runtime()
    built = MODELS[model_name](runtime).build_recursive(len(trees))
    batch = batch_trees(trees)
    with built.graph.as_default():
        _, updates = repro.gradients(built.loss, [])
    fetches = [built.loss] + [op.outputs[-1] for op in updates]
    apply = optimizer.build_apply(built.graph,
                                  runtime.trainable_variables(), runtime)
    session = repro.Session(built.graph, runtime, num_workers=4,
                            engine=engine, record=True)
    for _ in range(steps):
        runtime.accumulators.zero()
        kwargs = ({"shape_profile": built.shape_profiles(batch)}
                  if compiled else {})
        session.run(fetches, built.feed_dict(batch), record=True, **kwargs)
        assert session.last_stats.level_plan_hits == int(compiled)
        session.run(apply, record=False)
    return (runtime.variables.snapshot(), session.last_stats.ops_executed
            / len(runtime.trainable_variables()))


class TestFusedEqualsChain:
    """The fused dense update moves variables and slots exactly as the
    graph-built chain it replaced, over consecutive steps."""

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    @pytest.mark.parametrize("engine", available_executors())
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_bit_identical_over_steps(self, trees, model_name, engine,
                                      optimizer):
        chain_cls, fused_cls = OPTIMIZERS[optimizer]
        for compiled in (False, True):
            for sparse_gathers in (True, False):
                set_sparse_gather_grads(sparse_gathers)
                ref, _ = _train(model_name, chain_cls(0.05), engine,
                                compiled, trees)
                got, ops_run = _train(model_name, fused_cls(0.05), engine,
                                      compiled, trees)
                assert sorted(ref) == sorted(got)
                for name in ref:
                    assert ref[name].dtype == got[name].dtype
                    assert ref[name].tobytes() == got[name].tobytes(), (
                        name, compiled, sparse_gathers)
                # one ReadAccum and one fused update per variable
                assert ops_run == 2

    def test_treelstm_apply_graph_is_two_ops_per_variable(self, trees):
        """Two apply ops a variable where the chain ran ten: 16 and 80
        on TreeLSTM's eight variables."""
        _, fused = _train("TreeLSTM", Adagrad(0.05), "event", True, trees,
                          steps=1)
        _, chain = _train("TreeLSTM", _ChainAdagrad(0.05), "event", True,
                          trees, steps=1)
        assert (fused, chain) == (2, 10)


# -- the replaced per-row reduction, verbatim, as the reference ---------------


class _RowByRow:
    """``GradientAccumulator``'s reduction before the one-call fold."""

    @staticmethod
    def _ordered(blocks) -> list:
        """Entries ``(key, gradient)`` / ``(key, a, g)`` in canonical
        order: keyed ones by key (stable: rows sharing a key keep their
        order), then the un-keyed in arrival order."""
        flat = [entry for keys, cols in blocks
                for entry in zip(repeat(None) if keys is None else keys,
                                 *cols)]
        ordered = sorted((e for e in flat if e[0] is not None),
                         key=itemgetter(0))
        ordered += [e for e in flat if e[0] is None]
        return ordered


    @staticmethod
    def _contract(blocks):
        """``A.T @ G`` over every factor row in canonical order: each
        block's columns flattened to rows once, one stable permutation
        over the per-row keys (rows sharing a key keep their order,
        un-keyed rows come last as they arrived) — the matrices a
        per-row sort would build.  None when rows disagree on rank,
        dtype or inner shape."""
        kinds, sides, keys = set(), ([], []), []
        for block_keys, (a, g) in blocks:
            if a.__class__ is g.__class__ is np.ndarray and a.ndim > 1:
                kinds.add((a.ndim - 1, a.dtype, a.shape[2:], g.dtype,
                           g.shape[2:]))
                counts = repeat(a.shape[1], len(a))
            else:
                kinds.update((x.ndim, x.dtype, x.shape[1:], y.dtype,
                              y.shape[1:]) for x, y in zip(a, g))
                counts = [len(x) for x in a]
            if len(kinds) != 1 or next(iter(kinds))[0] != 2:
                return None
            for side, col in zip(sides, (a, g)):
                side.append(col.reshape((-1,) + col.shape[2:])
                            if col.__class__ is np.ndarray
                            else np.concatenate(col))
            keys.extend(key for key, n in zip(block_keys or repeat(None),
                                              counts) for _ in range(n))
        keyed = [i for i, key in enumerate(keys) if key is not None]
        order = sorted(keyed, key=keys.__getitem__) + [
            i for i, key in enumerate(keys) if key is None]
        return (np.concatenate(sides[0]).take(order, 0).T
                @ np.concatenate(sides[1]).take(order, 0))

    @classmethod
    def _reduce_dense(cls, blocks) -> np.ndarray:
        """The one combination rule: the contraction of all factor rows,
        then every gradient entry added in canonical order — one by one:
        a pairwise reduction would change the bits."""
        factors = [b for b in blocks if len(b[1]) == 2]
        total = cls._contract(factors) if factors else None
        if factors and total is None:
            # the exact per-frame fold, each ``aᵀ g`` in its key's place
            chain = [e[1] if len(e) == 2 else e[1].T @ e[2]
                     for e in cls._ordered(blocks)]
        else:
            chain = [e[1] for e in cls._ordered(
                [b for b in blocks if len(b[1]) == 1])]
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
    def _combine_sparse(ordered) -> IndexedSlices:
        """Concatenate canonical-order slices, then deduplicate rows.

        The concatenation preserves entry order and every segment has
        unique rows, so the left-fold ``np.add.at`` performs for each row
        adds that row's contributions in canonical entry order — the
        exact additions the dense reduction performs for that row.
        """
        slices = [e[1] for e in ordered]
        combined = IndexedSlices(
            np.concatenate([s.indices for s in slices]),
            np.concatenate([s.values for s in slices]),
            slices[0].dense_shape)
        return combined.unique()


SHAPES = [(), (1,), (2,), (64,), (64, 320), (200, 32)]
#: how a trial's rows are made: one dtype and shape (the one-call fold),
#: sparse rows (one ``np.add.at``), or one of the cases the per-row loop
#: keeps — dense with sparse rows, mixed dtypes, mixed shapes, factor
#: rows of two dtypes
MIXES = ("uniform", "sparse", "dense+sparse", "dtype", "shape",
         "factor-dtype")
FOLDED = ("uniform", "sparse")


def _cases():
    for shape in SHAPES:
        for mix in MIXES:
            if shape == () and "sparse" in mix:
                continue        # a sparse row needs a leading axis
            if mix == "factor-dtype" and len(shape) != 2:
                continue        # factor rows contract to a matrix
            for dtype in (np.float32, np.float64):
                yield pytest.param(shape, mix, dtype,
                                   id=f"{shape}-{mix}-{dtype.__name__}")


def _values(rng, shape, dtype, special):
    """Rows of ``shape`` over decades of magnitude; ``special`` mixes in
    ``-0.0``, ``±inf``, ``nan`` and subnormals (a whole row of ``-0.0``
    sometimes)."""
    x = (rng.standard_normal(shape)
         * 10.0 ** rng.integers(-3, 4, shape)).astype(dtype)
    if special:
        tiny = np.finfo(dtype).smallest_subnormal
        pool = np.array([-0.0, np.inf, -np.inf, np.nan, tiny, -3 * tiny,
                         -0.0, -0.0], dtype)
        flat = x.reshape(-1)
        hits = rng.random(flat.size) < (0.3 if flat.size < 4 else 0.005)
        flat[hits] = rng.choice(pool, int(hits.sum()))
        if rng.random() < 0.2:
            x[...] = -0.0
    return x


def _fill(acc, rng, shape, dtype, mix, special, factors, count):
    """Add a random mix of blocks to ``acc["v"]``: array columns, row
    lists and single ``add`` calls, keyed (with repeats) and un-keyed.
    ``count`` picks the number of gradient rows — ``"min"`` (1, or 2
    for a mix), ``"max"`` (1000, fewer for big rows) or at random."""
    size = int(np.prod(shape))
    odd = mix in ("dense+sparse", "dtype", "shape")
    lo, hi = 1 + odd, max(2 + odd, min(1000, 2**21 // max(size, 1)))
    total = {"min": lo, "max": hi}.get(count) or int(rng.integers(lo, hi))
    keys = [((f"f{int(k)}",), 7) for k in rng.integers(0, total, total)]
    other = np.float64 if dtype == np.float32 else np.float32
    done = 0
    while done < total:
        m = int(rng.integers(1, total - done + 1))
        kind = "sparse" if mix == "sparse" else "dense"
        if done == 0 and odd:
            kind, m = "odd", 1  # one row that forces the mix; its key
            #                     puts it anywhere in canonical order
        form = rng.choice(["array", "list", "single"])
        if kind == "sparse" or (kind == "odd" and mix == "dense+sparse"):
            form = form if form != "array" else "list"
            rows = []
            for _ in range(m):
                k = int(rng.integers(1, shape[0] + 1))
                rows.append(IndexedSlices(
                    rng.choice(shape[0], k, replace=False),
                    _values(rng, (k,) + shape[1:], dtype, special), shape))
        else:
            rdtype = other if kind == "odd" and mix == "dtype" else dtype
            rshape = shape[1:] if shape else (1,)
            rshape = rshape if kind == "odd" and mix == "shape" else shape
            rows = _values(rng, (m,) + rshape, rdtype, special)
        _add(acc, rng, keys[done:done + m], form, rows)
        done += m
    if factors:
        for j in range(int(rng.integers(1 + (mix == "factor-dtype"), 6))):
            m, r = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            adtype = other if mix == "factor-dtype" and j == 0 else dtype
            a = _values(rng, (m, r, shape[0]), adtype, special)
            g = _values(rng, (m, r, shape[1]), dtype, special)
            _add(acc, rng, [((f"g{int(rng.integers(9))}",), 3)
                            for _ in range(m)], rng.choice(["array", "list",
                                                            "single"]), a, g)


def _add(acc, rng, orders, form, *cols):
    keyed = rng.random() < 0.7
    if form == "single":
        for i, order in enumerate(orders):
            acc.add("v", *(col[i] for col in cols),
                    order=order if keyed else None)
        return
    keys = [order_key(order) for order in orders] if keyed else None
    acc.add_block("v", keys, *(col if form == "array" else list(col)
                               for col in cols))


def _assert_same_bits(got, ref):
    """Same type, dtype and shape; every non-nan element bit-equal (a
    ``-0.0`` included) and nan where the reference has nan."""
    assert type(got) is type(ref)
    if isinstance(ref, IndexedSlices):
        assert got.dense_shape == ref.dense_shape
        assert got.indices.tobytes() == ref.indices.tobytes()
        got, ref = got.values, ref.values
    assert got.dtype == ref.dtype and np.shape(got) == np.shape(ref)
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert (np.asarray(got)[~nan].tobytes()
            == np.asarray(ref)[~nan].tobytes())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestReadEqualsRowByRow:
    """``GradientAccumulator.read`` gives the bits the row-by-row
    reduction gave, over row shapes, row counts, keyed and un-keyed
    blocks in every form, factor rows beside gradient rows and special
    values — and reaches the per-row loop only for the cases it names."""

    @pytest.mark.parametrize("shape, mix, dtype", _cases())
    def test_sweep(self, shape, mix, dtype, monkeypatch):
        folds = []
        fold_rows = GradientAccumulator._fold_rows

        def counted(*args):
            folds.append(args[3])
            return fold_rows(*args)
        monkeypatch.setattr(GradientAccumulator, "_fold_rows",
                            staticmethod(counted))
        rng = np.random.default_rng(
            [SHAPES.index(shape), MIXES.index(mix), dtype == np.float64])
        for trial in range(6):
            acc = GradientAccumulator()
            factors = len(shape) == 2 and (trial % 2 == 1
                                           or mix == "factor-dtype")
            _fill(acc, rng, shape, dtype, mix, trial >= 3, factors,
                  ("min", "max", "random")[trial % 3])
            blocks = acc._entries["v"]
            ref = _RowByRow._reduce_dense(blocks)
            folds.clear()
            _assert_same_bits(acc.read("v"), ref)
            assert len(folds) == (mix in FOLDED), (mix, folds)
            if all(len(cols) == 1 for _, cols in blocks):
                ordered = _RowByRow._ordered(blocks)
                if all(isinstance(e[1], IndexedSlices) for e in ordered):
                    ref = _RowByRow._combine_sparse(ordered)
            _assert_same_bits(acc.read("v", dense=False), ref)
