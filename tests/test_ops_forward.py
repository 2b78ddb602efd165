"""Forward-kernel correctness for every op, checked against numpy."""

import numpy as np
import pytest

import repro
from repro import ops
from tests.conftest import run


def const(x):
    return ops.constant(np.asarray(x, dtype=np.float32))


class TestElementwise:
    CASES = [
        ("add", ops.add, lambda a, b: a + b),
        ("sub", ops.subtract, lambda a, b: a - b),
        ("mul", ops.multiply, lambda a, b: a * b),
        ("div", ops.divide, lambda a, b: a / b),
        ("maximum", ops.maximum, np.maximum),
        ("minimum", ops.minimum, np.minimum),
    ]

    @pytest.mark.parametrize("name,op_fn,np_fn",
                             CASES, ids=[c[0] for c in CASES])
    def test_binary(self, graph, name, op_fn, np_fn):
        a = np.array([[1.0, -2.0], [3.5, 4.0]], dtype=np.float32)
        b = np.array([[2.0, 0.5], [-1.0, 2.0]], dtype=np.float32)
        out = run(op_fn(const(a), const(b)))
        np.testing.assert_allclose(out, np_fn(a, b), rtol=1e-6)

    def test_broadcasting(self, graph):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        out = run(ops.add(const(a), const(b)))
        np.testing.assert_allclose(out, a + b)

    UNARY = [
        ("neg", ops.negative, lambda x: -x),
        ("tanh", ops.tanh, np.tanh),
        ("sigmoid", ops.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        ("relu", ops.relu, lambda x: np.maximum(x, 0)),
        ("exp", ops.exp, np.exp),
        ("square", ops.square, np.square),
        ("abs", ops.abs_, np.abs),
        ("sign", ops.sign, np.sign),
    ]

    @pytest.mark.parametrize("name,op_fn,np_fn",
                             UNARY, ids=[c[0] for c in UNARY])
    def test_unary(self, graph, name, op_fn, np_fn):
        x = np.array([-2.0, -0.5, 0.0, 1.5], dtype=np.float32)
        out = run(op_fn(const(x)))
        np.testing.assert_allclose(out, np_fn(x), rtol=1e-6, atol=1e-7)

    @staticmethod
    def _masked_sigmoid(x):
        """The boolean-mask form the kernel used to be: the reference."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sigmoid_is_the_masked_form_bit_for_bit(self):
        """The mask-free kernel evaluates the same two formulas on the
        same operands: equal bits over a strided sweep of every float32
        pattern (+-0, +-inf, denormals, NaNs), random float64, 0-d and
        non-contiguous inputs; a row of the stacked entry is the scalar
        kernel's result."""
        from repro.graph.registry import op_def
        from repro.ops.math_ops import _sigmoid
        x = np.arange(0, 2 ** 32, 4099, dtype=np.uint64).astype(
            np.uint32).view(np.float32)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45,
                             -1e-45, 88.8, -88.8, 104.0, -104.0], np.float32)
        for case in (x, specials):
            assert np.array_equal(_sigmoid(case).view(np.uint32),
                                  self._masked_sigmoid(case).view(np.uint32))
        wide = np.random.default_rng(0).standard_normal(4096) * 40
        assert np.array_equal(_sigmoid(wide), self._masked_sigmoid(wide))
        assert _sigmoid(wide).dtype == np.float64
        scalar = _sigmoid(np.asarray(np.float32(-0.3)))
        assert scalar.shape == () and scalar.dtype == np.float32
        assert scalar == self._masked_sigmoid(np.asarray(np.float32(-0.3)))
        strided = x[:4000].reshape(40, 100)[::3, ::7]
        assert not strided.flags.c_contiguous
        assert np.array_equal(_sigmoid(strided).view(np.uint32),
                              self._masked_sigmoid(strided).view(np.uint32))
        defn = op_def("Sigmoid")
        col = x[:640].reshape(10, 64)
        stacked, = defn.stacked_kernel(None, [col], (False,), None)
        for i in range(len(col)):
            row, = defn.kernel(None, [col[i]], None)
            assert np.array_equal(stacked[i].view(np.uint32),
                                  row.view(np.uint32))

    def test_log_sqrt(self, graph):
        x = np.array([0.5, 1.0, 4.0], dtype=np.float32)
        np.testing.assert_allclose(run(ops.log(const(x))), np.log(x),
                                   rtol=1e-6)
        np.testing.assert_allclose(run(ops.sqrt(const(x))), np.sqrt(x),
                                   rtol=1e-6)


class TestComparisons:
    def test_all_comparisons(self, graph):
        a = const([1.0, 2.0, 3.0])
        b = const([2.0, 2.0, 2.0])
        sess = repro.Session(a.graph, repro.Runtime())
        np.testing.assert_array_equal(sess.run(ops.less(a, b)),
                                      [True, False, False])
        np.testing.assert_array_equal(sess.run(ops.less_equal(a, b)),
                                      [True, True, False])
        np.testing.assert_array_equal(sess.run(ops.greater(a, b)),
                                      [False, False, True])
        np.testing.assert_array_equal(sess.run(ops.greater_equal(a, b)),
                                      [False, True, True])
        np.testing.assert_array_equal(sess.run(ops.equal(a, b)),
                                      [False, True, False])
        np.testing.assert_array_equal(sess.run(ops.not_equal(a, b)),
                                      [True, False, True])

    def test_logical(self, graph):
        t = ops.constant(np.array([True, True, False]))
        f = ops.constant(np.array([True, False, False]))
        sess = repro.Session(t.graph, repro.Runtime())
        np.testing.assert_array_equal(sess.run(ops.logical_and(t, f)),
                                      [True, False, False])
        np.testing.assert_array_equal(sess.run(ops.logical_or(t, f)),
                                      [True, True, False])
        np.testing.assert_array_equal(sess.run(ops.logical_not(t)),
                                      [False, False, True])

    def test_select(self, graph):
        cond = ops.constant(np.array([True, False]))
        out = run(ops.select(cond, const([1.0, 1.0]), const([2.0, 2.0])))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_cast(self, graph):
        x = ops.constant(np.array([1.7, -2.2], dtype=np.float32))
        out = run(ops.cast(x, repro.int32))
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [1, -2])


class TestMatMul:
    def test_matmul(self, graph):
        a = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        b = np.random.default_rng(1).standard_normal((4, 2)).astype(np.float32)
        out = run(ops.matmul(const(a), const(b)))
        np.testing.assert_allclose(out, a @ b, rtol=1e-5)

    def test_shape_mismatch_raises_at_build(self, graph):
        a = const(np.zeros((2, 3)))
        b = const(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="inner dims"):
            ops.matmul(a, b)

    def test_int_inputs_rejected(self, graph):
        a = ops.constant(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(TypeError):
            ops.matmul(a, a)


class TestArrayOps:
    def test_reshape(self, graph):
        x = const(np.arange(6, dtype=np.float32))
        out = run(ops.reshape(x, (2, 3)))
        assert out.shape == (2, 3)

    def test_reshape_minus_one(self, graph):
        x = const(np.arange(8, dtype=np.float32))
        out = run(ops.reshape(x, (-1, 4)))
        assert out.shape == (2, 4)

    def test_transpose_default(self, graph):
        x = const(np.arange(6, dtype=np.float32).reshape(2, 3))
        out = run(ops.transpose(x))
        assert out.shape == (3, 2)

    def test_transpose_perm(self, graph):
        x = const(np.zeros((2, 3, 4), dtype=np.float32))
        out = run(ops.transpose(x, perm=(1, 0, 2)))
        assert out.shape == (3, 2, 4)

    def test_concat(self, graph):
        a = const(np.ones((2, 2)))
        b = const(np.zeros((2, 3)))
        out = run(ops.concat([a, b], axis=1))
        assert out.shape == (2, 5)

    def test_concat_single_is_identity(self, graph):
        a = const(np.ones((2, 2)))
        out = run(ops.concat([a], axis=0))
        np.testing.assert_allclose(out, np.ones((2, 2)))

    def test_concat_incompatible_raises(self, graph):
        a = const(np.ones((2, 2)))
        b = const(np.ones((3, 3)))
        with pytest.raises(ValueError):
            ops.concat([a, b], axis=1)

    def test_gather_vector_indices(self, graph):
        params = const(np.arange(12, dtype=np.float32).reshape(4, 3))
        idx = ops.constant(np.array([2, 0], dtype=np.int32))
        out = run(ops.gather(params, idx))
        np.testing.assert_allclose(out, [[6, 7, 8], [0, 1, 2]])

    def test_gather_scalar_index(self, graph):
        params = const(np.arange(4, dtype=np.float32))
        out = run(ops.gather(params, ops.constant(3)))
        assert out == pytest.approx(3.0)

    def test_stack_unstack(self, graph):
        a, b = const([1.0, 2.0]), const([3.0, 4.0])
        stacked = ops.stack([a, b])
        parts = ops.unstack(stacked, 2)
        sess = repro.Session(a.graph, repro.Runtime())
        np.testing.assert_allclose(sess.run(stacked), [[1, 2], [3, 4]])
        np.testing.assert_allclose(sess.run(parts[1]), [3, 4])

    def test_expand_squeeze(self, graph):
        x = const(np.ones((2, 3)))
        expanded = ops.expand_dims(x, 1)
        assert run(expanded).shape == (2, 1, 3)
        squeezed = ops.squeeze(expanded, 1)
        assert run(squeezed).shape == (2, 3)

    def test_squeeze_non_unit_raises(self, graph):
        x = const(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ops.squeeze(x, 0)

    def test_zeros_ones_like(self, graph):
        x = const(np.full((2, 2), 7.0))
        np.testing.assert_allclose(run(ops.zeros_like(x)), np.zeros((2, 2)))
        np.testing.assert_allclose(run(ops.ones_like(x)), np.ones((2, 2)))

    def test_fill(self, graph):
        out = run(ops.fill((2, 3), 5.0))
        np.testing.assert_allclose(out, np.full((2, 3), 5.0))

    def test_one_hot(self, graph):
        idx = ops.constant(np.array([0, 2], dtype=np.int32))
        out = run(ops.one_hot(idx, 3))
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_argmax(self, graph):
        x = const([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]])
        np.testing.assert_array_equal(run(ops.argmax(x, axis=-1)), [1, 0])

    def test_slice(self, graph):
        x = const(np.arange(12, dtype=np.float32).reshape(3, 4))
        out = run(ops.slice_(x, (1, 1), (2, -1)))
        np.testing.assert_allclose(out, [[5, 6, 7], [9, 10, 11]])

    def test_shape_and_size(self, graph):
        x = const(np.zeros((2, 5)))
        sess = repro.Session(x.graph, repro.Runtime())
        np.testing.assert_array_equal(sess.run(ops.shape_of(x)), [2, 5])
        assert sess.run(ops.size_of(x)) == 10


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, False), (-1, True), ((0, 1), False),
    ])
    def test_reduce_sum(self, graph, axis, keepdims):
        x = np.random.default_rng(2).standard_normal((3, 4)).astype(np.float32)
        out = run(ops.reduce_sum(const(x), axis=axis, keepdims=keepdims))
        np.testing.assert_allclose(out, np.sum(x, axis=axis,
                                               keepdims=keepdims), rtol=1e-5)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_reduce_mean(self, graph, axis):
        x = np.random.default_rng(3).standard_normal((2, 5)).astype(np.float32)
        out = run(ops.reduce_mean(const(x), axis=axis))
        np.testing.assert_allclose(out, np.mean(x, axis=axis), rtol=1e-5)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_reduce_max(self, graph, axis):
        x = np.random.default_rng(4).standard_normal((4, 3)).astype(np.float32)
        out = run(ops.reduce_max(const(x), axis=axis))
        np.testing.assert_allclose(out, np.max(x, axis=axis))


class TestNNOps:
    def test_softmax_rows_sum_to_one(self, graph):
        x = const(np.random.default_rng(5).standard_normal((4, 6)) * 10)
        out = run(ops.softmax(x))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_softmax_stability_with_large_logits(self, graph):
        x = const(np.array([[1000.0, 1001.0]]))
        out = run(ops.softmax(x))
        assert np.all(np.isfinite(out))

    def test_log_softmax(self, graph):
        x = np.random.default_rng(6).standard_normal((3, 4)).astype(np.float32)
        out = run(ops.log_softmax(const(x)))
        expected = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_cross_entropy_matches_manual(self, graph):
        logits = np.array([[2.0, 1.0, 0.1], [0.0, 0.0, 0.0]],
                          dtype=np.float32)
        labels = np.array([0, 2], dtype=np.int32)
        out = run(ops.softmax_cross_entropy_with_logits(
            const(logits), ops.constant(labels)))
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        expected = -np.log(probs[np.arange(2), labels])
        np.testing.assert_allclose(out, expected, rtol=1e-5)


class TestPlaceholdersAndFeeds:
    def test_feed_roundtrip(self, graph, runtime):
        x = ops.placeholder(repro.float32, (2,))
        y = ops.multiply(x, 2.0)
        sess = repro.Session(graph, runtime)
        np.testing.assert_allclose(sess.run(y, {x: [1.0, 2.0]}), [2.0, 4.0])

    def test_unfed_placeholder_raises(self, graph, runtime):
        x = ops.placeholder(repro.float32, ())
        sess = repro.Session(graph, runtime)
        with pytest.raises(repro.EngineError, match="not fed"):
            sess.run(ops.negative(x))

    def test_feeding_non_placeholder_raises(self, graph, runtime):
        c = ops.constant(1.0)
        sess = repro.Session(graph, runtime)
        with pytest.raises(ValueError, match="placeholders"):
            sess.run(c, {c: 2.0})

    def test_feed_casts_dtype(self, graph, runtime):
        x = ops.placeholder(repro.float32, ())
        sess = repro.Session(graph, runtime)
        out = sess.run(ops.identity(x), {x: 3})
        assert out.dtype == np.float32
