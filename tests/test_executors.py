"""Cross-executor equivalence: the executor loop computes the same
numbers on both clocks.

The layering contract (see ARCHITECTURE.md): the
:class:`~repro.runtime.scheduler.SchedulerCore` owns all scheduling
semantics and the clock may only change *when and where* kernels run,
never what they compute.  These tests iterate the executor names and
assert bit-identical fetches and gradients against the virtual-time
reference on a randomized tree workload, batched and unbatched.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import ops
from repro.core.subgraph import SubGraph
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.graph.registry import all_op_types, register_op
from repro.models import ModelConfig, TreeRNNSentiment
from repro.runtime import (EventEngine, SchedulerCore, available_executors,
                           resolve_executor)
from repro.runtime.server import DeadlineExceeded

ENGINES = available_executors()
#: (batching, scheduler) cases; the FIFO cases keep the bare batching id
BATCHING_SCHEDULERS = [
    pytest.param(batching, scheduler,
                 id=str(batching) + ("" if scheduler == "fifo"
                                     else f"-{scheduler}"))
    for scheduler in ("fifo", "depth") for batching in (False, True)]


@pytest.fixture(scope="module")
def bank():
    # seeded random trees: the randomized tree workload
    return make_treebank(num_train=6, num_val=2, vocab_size=40, seed=23)


@pytest.fixture(scope="module")
def model(bank):
    return TreeRNNSentiment(ModelConfig(hidden=10, embed_dim=10,
                                        vocab_size=40), repro.Runtime())


@pytest.fixture(scope="module")
def built(model):
    return model.build_recursive(1)


@pytest.fixture(scope="module")
def grad_fetches(built):
    """loss + accumulate-only gradient updates (variables untouched)."""
    with built.graph.as_default():
        _, updates = repro.gradients(built.loss, [])
    return [built.loss] + [op.outputs[-1] for op in updates]


def _reference_logits(model, built, bank):
    session = repro.Session(built.graph, model.runtime, num_workers=4)
    return [session.run(built.root_logits,
                        built.feed_dict(batch_trees([tree])))
            for tree in bank.train]


class TestRegistry:
    def test_builtins_registered(self):
        assert available_executors() == ["event", "workerpool"]

    def test_legacy_names_resolve_to_legacy_engines(self):
        from repro.runtime.workerpool import WorkerPoolEngine
        assert resolve_executor("event") is EventEngine
        assert resolve_executor("workerpool") is WorkerPoolEngine
        for name in ENGINES:
            assert issubclass(resolve_executor(name), SchedulerCore)

    @pytest.mark.parametrize("name", ["threaded", "procpool"])
    def test_removed_engines_rejected(self, name):
        with pytest.raises(ValueError, match="registered executors: "
                                             "event, workerpool"):
            repro.Session(repro.Graph("x"), repro.Runtime(), engine=name)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_executor("quantum")
        with pytest.raises(ValueError, match="unknown engine"):
            repro.Session(repro.Graph("x"), repro.Runtime(), engine="quantum")

    def test_only_event_engine_is_virtual(self):
        for name in ENGINES:
            cls = resolve_executor(name)
            assert cls.virtual_clock == (name == "event"), name


@pytest.mark.parametrize("engine", ENGINES)
class TestCrossExecutorEquivalence:
    @pytest.mark.parametrize("batching,scheduler", BATCHING_SCHEDULERS)
    @pytest.mark.timeout(120)
    def test_fetches_bit_identical(self, bank, model, built, engine,
                                   batching, scheduler):
        """Per-tree root logits match the event reference exactly."""
        reference = _reference_logits(model, built, bank)
        session = repro.Session(built.graph, model.runtime, num_workers=4,
                                engine=engine, batching=batching,
                                scheduler=scheduler)
        for tree, expected in zip(bank.train, reference):
            got = session.run(built.root_logits,
                              built.feed_dict(batch_trees([tree])))
            assert np.array_equal(expected, got)

    @pytest.mark.parametrize("batching,scheduler", BATCHING_SCHEDULERS)
    @pytest.mark.timeout(120)
    def test_gradients_bit_identical(self, bank, model, built, grad_fetches,
                                     engine, batching, scheduler):
        """Accumulated gradients match the event reference exactly
        (canonical frame-key ordering makes them order-independent)."""
        feed = built.feed_dict(batch_trees([bank.train[0]]))
        accumulators = model.runtime.accumulators
        names = [v.name for v in model.runtime.trainable_variables()]

        def grads_under(engine_name, batching_mode, scheduler_name):
            session = repro.Session(built.graph, model.runtime,
                                    num_workers=4, engine=engine_name,
                                    record=True, batching=batching_mode,
                                    scheduler=scheduler_name)
            accumulators.zero()
            loss = session.run(grad_fetches, feed)[0]
            return loss, {name: np.copy(accumulators.read(name))
                          for name in names}

        ref_loss, reference = grads_under("event", False, "fifo")
        loss, grads = grads_under(engine, batching, scheduler)
        assert loss == ref_loss
        assert set(grads) == set(reference)
        for name in names:
            assert np.array_equal(reference[name], grads[name]), name

    @pytest.mark.timeout(120)
    def test_recursion_limit_enforced(self, engine, bank, model, built):
        graph = repro.Graph("limit")
        with graph.as_default():
            with SubGraph("down") as down:
                n = down.input(repro.int32, ())
                down.declare_outputs([(repro.int32, ())])
                down.output(ops.cond(ops.less_equal(n, 0),
                                     lambda: ops.constant(0),
                                     lambda: down(n - 1)))
            out = down(ops.constant(100))
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine, max_depth=10)
        with pytest.raises(repro.EngineError, match="recursion limit"):
            session.run(out)

    @pytest.mark.timeout(120)
    def test_kernel_error_propagates(self, engine, bank, model, built):
        graph = repro.Graph("err")
        with graph.as_default():
            bad = ops.reshape(ops.constant([1.0, 2.0]), (3,))
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine)
        with pytest.raises(repro.EngineError):
            session.run(bad)

    @pytest.mark.timeout(60)
    def test_repeat_drain_after_failure_raises_not_hangs(self, engine,
                                                         bank, model, built):
        """A failed serving session stays failed: draining again must
        re-raise the session error, not wait forever on roots that will
        never complete."""
        graph = repro.Graph("redrain")
        with graph.as_default():
            table = ops.constant(np.arange(4, dtype=np.float32))
            idx = ops.placeholder(repro.int32, (), "idx")
            out = ops.gather(table, idx)
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine)
        eng = session._engine
        eng.begin_serving()
        eng.submit_root(graph, [out], {idx.op.id: np.int32(99)}, ("r0",),
                        lambda values: None)
        with pytest.raises(repro.EngineError):
            eng.drain()
        with pytest.raises(repro.EngineError):
            eng.drain()
        eng.end_serving()


class TestWorkerPoolSpecifics:
    """Behaviour only the centralized-master backend exhibits."""

    @pytest.mark.timeout(120)
    def test_serving_reuse_and_fusion(self, bank, model, built):
        session = repro.Session(built.graph, model.runtime, num_workers=3,
                                engine="workerpool", batching=True)
        reference = _reference_logits(model, built, bank)
        feeds = [built.feed_dict(batch_trees([t])) for t in bank.train]
        with session.serve(max_in_flight=4) as server:
            first = [server.submit(built.root_logits, f) for f in feeds]
            server.drain()
            second = [server.submit(built.root_logits, f) for f in feeds]
            server.drain()
        assert server.completed == 2 * len(feeds)
        for tickets in (first, second):
            for ticket, expected in zip(tickets, reference):
                assert np.array_equal(expected, ticket.result())
        # the centralized master coalesces whole wavefronts
        assert server.stats.batches > 0

    def _tree_session(self, bank, model, built):
        batch = batch_trees([bank.train[0]])
        session = repro.Session(built.graph, model.runtime,
                                num_workers=3, engine="workerpool")
        return session, built.feed_dict(batch), built.shape_profiles(batch)

    @pytest.mark.parametrize("case", ["compiled", "dynamic", "fallback",
                                      "failed_compiled", "serving"])
    @pytest.mark.timeout(60)
    def test_master_is_the_only_thread(self, bank, model, built, case):
        """A run executes every kernel on the calling thread, whichever
        path it takes (a profile with the wrong site count falls back to
        the dynamic path; one that contradicts the fed tree raises from
        the compiled sweep).  A serving session adds exactly one thread,
        its master, across compiled and dynamic requests; close joins
        it."""
        session, feeds, profile = self._tree_session(bank, model, built)
        expected = _reference_logits(model, built, bank)[0]
        threads = threading.active_count()
        if case == "failed_compiled":
            with pytest.raises(repro.EngineError, match="shape profile"):
                session.run(built.root_logits, feeds, shape_profile=((),))
        elif case == "serving":
            with session.serve(max_in_flight=4) as server:
                assert threading.active_count() == threads + 1
                compiled = server.submit(built.root_logits, feeds,
                                         shape_profile=profile)
                dynamic = server.submit(built.root_logits, feeds)
                server.drain()
                assert threading.active_count() == threads + 1
            assert server.stats.level_plan_hits == 1
            assert np.array_equal(expected, compiled.result())
            assert np.array_equal(expected, dynamic.result())
        else:
            run_profile = {"compiled": profile, "dynamic": None,
                           "fallback": profile + profile}[case]
            got = session.run(built.root_logits, feeds,
                              shape_profile=run_profile)
            stats = session.last_stats
            assert stats.level_plan_hits == (case == "compiled")
            assert stats.level_plan_fallbacks == (case == "fallback")
            assert np.array_equal(expected, got)
        assert threading.active_count() == threads

    @staticmethod
    def _gated():
        """A workerpool session whose one request parks in its first
        kernel until ``gate`` is set, then runs an identity."""
        gate = threading.Event()
        if "ExecutorDeadlineGate" not in all_op_types():
            register_op("ExecutorDeadlineGate",
                        infer=lambda op: [(op.inputs[0].dtype,
                                           op.inputs[0].shape)],
                        kernel=lambda op, inputs, ctx: [
                            inputs[0]] if op.attrs["gate"].wait(30) else [])
        graph = repro.Graph("deadline_gate")
        with graph.as_default():
            x = ops.placeholder(repro.float32, (), "x")
            out = ops.identity(graph.add_op("ExecutorDeadlineGate", [x],
                                            {"gate": gate}).outputs[0])
        session = repro.Session(graph, repro.Runtime(), engine="workerpool")
        return session, x, out, gate

    @pytest.mark.timeout(60)
    def test_deadlines_add_no_thread(self, bank, model, built):
        """Requests with ``timeout=`` / ``deadline=`` keep a serving
        session at one extra thread: expiries are callbacks on the
        executor loop, not timers.  A deadline that expires while the
        request's kernel runs still cancels the request a client waits
        on: the waiter runs the expiry."""
        session, feeds, profile = self._tree_session(bank, model, built)
        expected = _reference_logits(model, built, bank)[0]
        threads = threading.active_count()
        with session.serve(max_in_flight=4) as server:
            far = time.perf_counter() + 60.0
            tickets = [server.submit(built.root_logits, feeds, timeout=60.0,
                                     shape_profile=profile),
                       server.submit(built.root_logits, feeds, timeout=60.0),
                       server.submit(built.root_logits, feeds, deadline=far)]
            assert threading.active_count() == threads + 1
            server.drain()
            assert threading.active_count() == threads + 1
        assert threading.active_count() == threads
        for ticket in tickets:
            assert np.array_equal(expected, ticket.result())

        # mid-flight: the kernel parks until the request has timed out
        gated, x, out, gate = self._gated()
        with gated.serve(max_in_flight=1) as server:
            victim = server.submit(out, {x: 1.0}, timeout=0.2)
            ok = server.submit(out, {x: 2.0}, timeout=60.0)
            with pytest.raises(DeadlineExceeded):
                victim.result(timeout=20)
            assert victim.admit_time is not None  # it was in flight
            assert threading.active_count() == threads + 1
            gate.set()
            assert ok.result(timeout=20) == 2.0
        assert victim.status == "timed_out"
        assert threading.active_count() == threads

    @pytest.mark.timeout(60)
    def test_unwaited_deadline_fires_between_kernels(self):
        """With no client waiting, an expiry runs on the master: a
        request parked in its kernel stays ``running`` past its
        deadline and times out as soon as the master is back between
        two kernels, before its next one runs."""
        session, x, out, gate = self._gated()
        with session.serve(max_in_flight=1) as server:
            victim = server.submit(out, {x: 1.0}, timeout=0.05)
            time.sleep(0.3)
            assert victim.status == "running"
            gate.set()
            end = time.perf_counter() + 20
            while not victim.done and time.perf_counter() < end:
                time.sleep(0.005)
            assert victim.status == "timed_out"
            assert server.timed_out == 1 and server.completed == 0

    @pytest.mark.timeout(60)
    def test_compiled_admission_wakes_the_master(self, bank, model, built):
        """A compiled root the master's own pump admits is flushed on
        that turn, not after an idle sleep: sequential profiled
        requests each finish well inside the master's poll interval."""
        from repro.runtime.workerpool import _POLL_S
        session, feeds, profile = self._tree_session(bank, model, built)
        latencies = []
        with session.serve(max_in_flight=1) as server:
            for _ in range(9):
                ticket = server.submit(built.root_logits, feeds,
                                       shape_profile=profile)
                ticket.result(timeout=20)
                latencies.append(ticket.latency)
        assert server.stats.level_plan_hits == 9
        # the first request compiles the template
        assert sorted(latencies[1:])[4] < _POLL_S / 2

    @pytest.mark.timeout(120)
    def test_clients_race_the_master_on_deadlines(self, bank, model, built):
        """Four client threads submit, cancel and wait on one server
        while tight deadlines expire: schedules, expiries run by waiters
        and the master's own turns share the master lock.  Every request
        ends exactly once and the executor is left idle."""
        session = repro.Session(built.graph, model.runtime, num_workers=3,
                                engine="workerpool", batching=True)
        feeds = [built.feed_dict(batch_trees([t])) for t in bank.train]
        reference = _reference_logits(model, built, bank)
        per_client = 25
        tickets: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with session.serve(max_in_flight=3) as server:
                def client(seed):
                    rng = np.random.default_rng(seed)
                    mine = []
                    for k in range(per_client):
                        i = int(rng.integers(len(feeds)))
                        timeout = 1e-4 if k % 3 == 0 else 30.0
                        ticket = server.submit(built.root_logits, feeds[i],
                                               timeout=timeout)
                        mine.append((i, ticket))
                        if k % 5 == 4:
                            ticket.cancel()
                        if k % 4 == 0:
                            try:
                                ticket.result(timeout=10)
                            except RuntimeError:
                                pass  # timed out or cancelled
                    tickets.extend(mine)

                threads = [threading.Thread(target=client, args=(seed,))
                           for seed in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert not any(t.is_alive() for t in threads)
                server.drain()
        finally:
            sys.setswitchinterval(interval)
        assert len(tickets) == 4 * per_client
        assert all(ticket.done for _, ticket in tickets)
        assert (server.completed + server.cancelled + server.timed_out
                + server.rejected) == len(tickets)
        for i, ticket in tickets:
            if ticket.status == "done":
                assert np.array_equal(reference[i], ticket.result())
        engine = session._engine
        assert engine._open_roots == 0 and not engine._ready
        assert len(engine._coalescer) == 0 and server.in_flight == 0

    @pytest.mark.timeout(60)
    def test_serving_error_fails_outstanding(self):
        graph = repro.Graph("wp_err")
        with graph.as_default():
            table = ops.constant(np.arange(4, dtype=np.float32))
            idx = ops.placeholder(repro.int32, (), "idx")
            out = ops.gather(table, idx)
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine="workerpool")
        server = session.serve(max_in_flight=2)
        bad = server.submit(out, {idx: 77})
        with pytest.raises(repro.EngineError):
            server.drain()
        with pytest.raises(repro.EngineError):
            bad.result(timeout=10)
        server.close()
