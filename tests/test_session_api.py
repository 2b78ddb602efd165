"""Session / public API surface tests."""

import numpy as np
import pytest

import repro
from repro import ops
from repro.nn import SGD


class TestSessionConstruction:
    def test_default_graph_and_runtime(self):
        graph = repro.reset_default_graph()
        repro.reset_default_runtime()
        with graph.as_default():
            out = ops.constant(5.0)
        session = repro.Session()
        assert session.graph is graph
        assert session.run(out) == pytest.approx(5.0)

    def test_default_runtime_is_shared(self):
        runtime = repro.reset_default_runtime()
        assert repro.default_runtime() is runtime
        v = repro.Variable("shared_v", np.float32(2.0))
        assert runtime.variables.read("shared_v") == pytest.approx(2.0)

    def test_record_override_per_run(self, graph, runtime):
        with repro.SubGraph("dbl") as dbl:
            x = dbl.input(repro.float32, ())
            dbl.output(ops.multiply(x, 2.0))
        out = dbl(ops.constant(3.0))
        session = repro.Session(graph, runtime, record=False)
        session.run(out, record=True)
        assert runtime.cache.stores > 0

    def test_overrides_apply_to_one_call(self, graph, runtime):
        """``record=`` / ``batching=`` hold for their own call only: a
        training loop on a ``record=True`` session whose apply run passes
        ``record=False`` still records its next gradient run."""
        w = repro.Variable("loop_w", np.float32(0.5), runtime=runtime)
        with repro.SubGraph("scale") as scale:
            x = scale.input(repro.float32, ())
            scale.output(ops.multiply(x, w.read()))
        loss = ops.multiply(scale(ops.constant(2.0)), 3.0)
        _, updates = repro.gradients(loss, [])
        grad_fetches = [loss] + [op.outputs[-1] for op in updates]
        apply = SGD(0.1).build_apply(graph, [w], runtime)
        session = repro.Session(graph, runtime, record=True)
        for step in range(3):
            runtime.accumulators.zero()
            assert session.run(grad_fetches)[0] == pytest.approx(
                6.0 * (0.5 - 0.6 * step), rel=1e-6)
            session.run(apply, record=False, batching=True)
            assert session.last_stats.cache_stores == 0
        assert (session._engine.record, session._engine.batching) == (True,
                                                                      False)

    def test_non_tensor_fetch_rejected(self, graph, runtime):
        session = repro.Session(graph, runtime)
        with pytest.raises(TypeError, match="not a Tensor"):
            session.run("loss")

    def test_non_tensor_feed_key_rejected(self, graph, runtime):
        out = ops.constant(1.0)
        session = repro.Session(graph, runtime)
        with pytest.raises(TypeError, match="not a Tensor"):
            session.run(out, {"x": 1.0})

    def test_feed_from_other_graph_rejected(self, graph, runtime):
        out = ops.constant(1.0)
        other = repro.Graph("other")
        with other.as_default():
            ph = ops.placeholder(repro.float32, ())
        session = repro.Session(graph, runtime)
        with pytest.raises(ValueError, match="different graph"):
            session.run(out, {ph: 1.0})

    def test_stats_available_after_run(self, graph, runtime):
        out = ops.add(ops.constant(1.0), ops.constant(2.0))
        session = repro.Session(graph, runtime)
        session.run(out)
        assert session.last_stats is not None
        assert session.last_stats.ops_executed == 3
        assert session.last_stats.virtual_time > 0


class TestPublicApiSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_ops_exports_resolve(self):
        for name in ops.__all__:
            assert hasattr(ops, name), name

    def test_dtype_reexports(self):
        assert repro.float32.name == "float32"
        assert repro.as_dtype("int32") is repro.int32

    def test_registry_has_all_core_ops(self):
        from repro.graph.registry import all_op_types
        registered = set(all_op_types())
        for required in ("Add", "MatMul", "Invoke", "InvokeGrad", "Cond",
                         "CondGrad", "Loop", "LoopGrad", "CacheLookup",
                         "TAWrite", "TARead", "ReadVariable", "AccumGrad"):
            assert required in registered, required

    def test_duplicate_op_registration_rejected(self):
        from repro.graph.registry import register_op
        with pytest.raises(ValueError, match="already registered"):
            register_op("Add", infer=lambda op: [])


class TestMixedWorkloads:
    def test_recursion_inside_loop(self, graph, runtime):
        """A while_loop whose body makes a recursive call."""
        with repro.SubGraph("tri") as tri:
            n = tri.input(repro.int32, ())
            tri.declare_outputs([(repro.int32, ())])
            tri.output(repro.cond(ops.less_equal(n, 0),
                                  lambda: ops.constant(0),
                                  lambda: ops.add(n, tri(n - 1))))

        def body(i, total):
            return ops.add(i, 1), ops.add(total, tri(i))

        _, total = repro.while_loop(lambda i, t: ops.less(i, 5), body,
                                    [ops.constant(0), ops.constant(0)])
        # sum of triangular numbers T(0..4) = 0+1+3+6+10 = 20
        assert repro.Session(graph, runtime).run(total) == 20

    def test_loop_inside_recursion(self, graph, runtime):
        """A recursive SubGraph whose body runs a while_loop."""
        with repro.SubGraph("fact_sum") as fs:
            n = fs.input(repro.int32, ())
            fs.declare_outputs([(repro.int32, ())])

            def recurse():
                # sum 1..n via a loop, plus recursion on n-1
                _, s = repro.while_loop(
                    lambda i, s: ops.less_equal(i, n),
                    lambda i, s: (ops.add(i, 1), ops.add(s, i)),
                    [ops.constant(1), ops.constant(0)])
                return ops.add(s, fs(n - 1))

            fs.output(repro.cond(ops.less_equal(n, 0),
                                 lambda: ops.constant(0), recurse))
        out = fs(ops.constant(3))
        # T(3)+T(2)+T(1) = 6+3+1 = 10
        assert repro.Session(graph, runtime).run(out) == 10

    def test_gradient_through_recursion_inside_loop(self, graph, runtime):
        with repro.SubGraph("pow2") as p:
            x = p.input(repro.float32, ())
            d = p.input(repro.int32, ())
            p.declare_outputs([(repro.float32, ())])
            p.output(repro.cond(ops.less_equal(d, 0),
                                lambda: ops.identity(x),
                                lambda: ops.multiply(x, p(x, d - 1))))
        xin = ops.placeholder(repro.float32, ())

        def body(i, acc):
            return ops.add(i, 1), ops.add(acc, p(xin, ops.constant(1)))

        _, total = repro.while_loop(lambda i, a: ops.less(i, 3), body,
                                    [ops.constant(0), ops.constant(0.0)])
        grads, _ = repro.gradients(total, [xin])
        session = repro.Session(graph, runtime, record=True)
        # total = 3 * x^2, d/dx = 6x
        assert session.run(grads[0], {xin: 2.0}) == pytest.approx(12.0,
                                                                  rel=1e-4)

    def test_two_subgraphs_sharing_variables(self, graph, runtime):
        w = repro.Variable("shared_w", np.float32(3.0), runtime=runtime)
        with repro.SubGraph("a") as a:
            x = a.input(repro.float32, ())
            a.output(ops.multiply(x, w.read()))
        with repro.SubGraph("b") as b:
            x = b.input(repro.float32, ())
            b.output(ops.add(x, w.read()))
        out = b(a(ops.constant(2.0)))
        # (2*3) + 3 = 9
        assert repro.Session(graph, runtime).run(out) == pytest.approx(9.0)
