"""The streaming serving subsystem: RecursiveServer semantics.

The contract: a server's per-request results are **bit-identical** to a
one-shot ``Session.run`` of the same tree — on both engines, batched and
unbatched, under wave or continuous admission — while admission control
(max in-flight, queue cap) and per-request latency accounting behave per
:mod:`repro.runtime.server`.  Request streams are seeded, so serving
runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import gc
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro import ops
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.graph.registry import all_op_types, register_op
from repro.harness import (compare_admission, compare_batching,
                           poisson_request_stream, serve_stream)
from repro.harness.serving import burst_request_stream
from repro.models import ModelConfig, TreeLSTMSentiment, TreeRNNSentiment
from repro.runtime import available_executors, resolve_executor
from repro.runtime.server import RequestCancelled, ServerOverloaded

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=16, num_val=4, vocab_size=60, seed=11)


def _model(bank, cls=TreeRNNSentiment, hidden=10):
    return cls(ModelConfig(hidden=hidden, embed_dim=hidden, vocab_size=60),
               repro.Runtime())


def _oneshot_reference(model, trees, stream):
    """Per-request logits via one-shot Session.run on the b=1 graph."""
    built = model.build_recursive(1)
    session = repro.Session(built.graph, model.runtime, num_workers=36)
    return {rid: session.run(built.root_logits,
                             built.feed_dict(batch_trees([trees[idx]])))
            for rid, (_, idx) in enumerate(stream.arrivals)}


# -- bit-identical per-request results (the acceptance bar) -------------------


class TestBitIdentical:
    @pytest.mark.parametrize("engine,batching", [
        (engine, batching)
        for engine in available_executors()
        for batching in (False, True)
    ])
    @pytest.mark.timeout(120)
    def test_server_matches_oneshot_run(self, bank, engine, batching):
        """Server results == Session.run per request, both engines,
        batched and unbatched."""
        model = _model(bank)
        stream = poisson_request_stream(10, 2000.0, len(bank.train), seed=3)
        # the event engine simulates workers (cheap); real thread/process
        # pools stay small so the matrix does not oversubscribe the host
        result = serve_stream(model, bank.train, stream=stream,
                              max_in_flight=4, engine=engine,
                              num_workers=36 if engine == "event" else 4,
                              batching=batching, seed=3)
        reference = _oneshot_reference(model, bank.train, stream)
        assert result.instances == stream.num_requests
        assert set(result.request_logits) == set(reference)
        for rid, ref in reference.items():
            assert np.array_equal(ref, result.request_logits[rid]), rid

    def test_wave_admission_matches_oneshot_run(self, bank):
        model = _model(bank)
        stream = burst_request_stream(12, len(bank.train), seed=9)
        result = serve_stream(model, bank.train, stream=stream,
                              max_in_flight=4, admission="wave",
                              batching=True, seed=9)
        reference = _oneshot_reference(model, bank.train, stream)
        for rid, ref in reference.items():
            assert np.array_equal(ref, result.request_logits[rid]), rid

    def test_compare_batching_per_request(self, bank):
        """ServingResult carries per-request outputs keyed by request id;
        batched == unbatched for every individual request."""
        model = _model(bank, cls=TreeLSTMSentiment)
        unbatched, batched = compare_batching(model, bank.train, 8,
                                              num_workers=36, waves=2,
                                              seed=5)
        assert set(unbatched.request_logits) == set(batched.request_logits)
        assert len(unbatched.request_logits) == 16   # 2 waves x 8
        for rid in unbatched.request_logits:
            assert np.array_equal(unbatched.request_logits[rid],
                                  batched.request_logits[rid]), rid
        # the stacked view (request-id order) agrees too
        assert np.array_equal(unbatched.logits, batched.logits)
        assert batched.stats.batches > 0


# -- continuous admission beats waves -----------------------------------------


class TestAdmission:
    def test_continuous_beats_wave_at_equal_concurrency(self, bank):
        """No wave-tail starvation: identical stream, identical
        max_in_flight, continuous admission must win throughput."""
        model = _model(bank, cls=TreeLSTMSentiment, hidden=12)
        stream = burst_request_stream(24, len(bank.train), seed=7)
        wave, continuous = compare_admission(model, bank.train,
                                             stream=stream, max_in_flight=6,
                                             batching=True, seed=7)
        assert np.array_equal(wave.logits, continuous.logits)
        assert continuous.throughput > wave.throughput * 1.02, \
            (f"continuous {continuous.throughput:.1f} vs wave "
             f"{wave.throughput:.1f} instances/s")
        # the win comes out of queue time: the wave tail makes admitted-
        # late requests wait for whole earlier waves
        assert (continuous.latency_summary()["queue"]["p95"]
                < wave.latency_summary()["queue"]["p95"])

    def test_rejected_requests_surface_in_result(self, bank):
        model = _model(bank)
        result = serve_stream(model, bank.train, num_requests=8,
                              max_in_flight=1, queue_cap=2, seed=1)
        assert result.rejected == 5
        assert result.instances == 3
        assert len(result.request_logits) == 3

    def test_server_reuse_across_drains(self, bank):
        """A server session persists: submit -> drain -> submit -> drain."""
        model = _model(bank)
        built = model.build_recursive(1)
        session = repro.Session(built.graph, model.runtime, num_workers=36)
        feeds = built.feed_dict(batch_trees([bank.train[2]]))
        with session.serve(max_in_flight=2) as server:
            first = [server.submit(built.root_logits, feeds)
                     for _ in range(3)]
            server.drain()
            t_mid = server.stats.virtual_time
            second = [server.submit(built.root_logits, feeds)
                      for _ in range(3)]
            server.drain()
        assert server.completed == 6
        assert server.stats.virtual_time > t_mid
        assert server.stats.requests == 6
        values = [t.result() for t in first + second]
        for v in values[1:]:
            assert np.array_equal(values[0], v)

    def test_submit_after_close_raises(self, bank):
        model = _model(bank)
        built = model.build_recursive(1)
        session = repro.Session(built.graph, model.runtime, num_workers=36)
        server = session.serve()
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(built.root_logits,
                          built.feed_dict(batch_trees([bank.train[0]])))

    def test_invalid_knobs_rejected(self, bank):
        model = _model(bank)
        built = model.build_recursive(1)
        session = repro.Session(built.graph, model.runtime)
        with pytest.raises(ValueError):
            session.serve(max_in_flight=0)
        with pytest.raises(ValueError):
            session.serve(queue_cap=0)
        with pytest.raises(ValueError):
            session.serve(admission="bursty")


# -- backpressure on every registered executor --------------------------------
#
# ``queue_cap`` rejection and ``max_in_flight`` throttling are admission
# decisions the server takes synchronously at submit time, so they can be
# asserted deterministically on every backend: under the event engine all
# arrivals land at the same virtual instant (``at=0.0``); under the
# wall-clock backends the first admitted request parks on a gate op whose
# kernel blocks until the test releases it, so every later arrival
# deterministically finds zero free in-flight slots.


def _gate_kernel(op, inputs, ctx):
    gate = op.attrs["gate"]
    if not gate.wait(timeout=30):
        raise RuntimeError("serving gate never released")
    return [inputs[0]]


def _gated_graph(gate):
    if "ServingGate" not in all_op_types():
        register_op("ServingGate",
                    infer=lambda op: [(op.inputs[0].dtype,
                                       op.inputs[0].shape)],
                    kernel=_gate_kernel)
    graph = repro.Graph("gated_serving")
    with graph.as_default():
        x = ops.placeholder(repro.float32, (), "x")
        out = graph.add_op("ServingGate", [x], {"gate": gate}).outputs[0]
    return graph, x, out


@pytest.mark.parametrize("engine", available_executors())
class TestBackpressureAllExecutors:
    @pytest.mark.timeout(90)
    def test_queue_cap_rejects_with_backpressure(self, engine):
        """Arrivals beyond the queue cap are rejected, not lost."""
        virtual = resolve_executor(engine).virtual_clock
        gate = threading.Event()
        if virtual:
            gate.set()  # single-threaded simulator: kernels may not block
        graph, x, out = _gated_graph(gate)
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine)
        kwargs = {"at": 0.0} if virtual else {}
        with session.serve(max_in_flight=1, queue_cap=2) as server:
            tickets = [server.submit(out, {x: float(k)}, **kwargs)
                       for k in range(8)]
            if not virtual:
                gate.set()
            server.drain()
        # capacity at the burst instant = 1 free slot + 2 queue seats;
        # the remaining 5 arrivals bounce off the cap
        rejected = [t for t in tickets if t.rejected]
        served = [t for t in tickets if not t.rejected]
        assert len(rejected) == 5
        assert server.completed == len(served) == 3
        assert server.rejected == 5
        assert server.stats.rejected_requests == 5
        for ticket in served:
            assert ticket.result() is not None
        for ticket in rejected:
            with pytest.raises(ServerOverloaded):
                ticket.result()
        # nothing lost: every submitted request resolved one way or other
        assert all(t.done for t in tickets)

    @pytest.mark.timeout(90)
    def test_max_in_flight_is_respected(self, engine):
        """Root instances in the engine never exceed the admission cap."""
        virtual = resolve_executor(engine).virtual_clock
        gate = threading.Event()
        if virtual:
            gate.set()
        graph, x, out = _gated_graph(gate)
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine)
        server = session.serve(max_in_flight=3)
        engine_obj = session._engine
        count_lock = threading.Lock()
        live = {"now": 0, "peak": 0}
        original = engine_obj.submit_root

        def counting_submit(graph, fetches, feed_map, key, on_complete,
                            shape_profile=None):
            with count_lock:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])

            def wrapped(values):
                with count_lock:
                    live["now"] -= 1
                on_complete(values)
            return original(graph, fetches, feed_map, key, wrapped,
                            shape_profile)

        engine_obj.submit_root = counting_submit
        kwargs = {"at": 0.0} if virtual else {}
        tickets = [server.submit(out, {x: 1.0}, **kwargs) for _ in range(9)]
        if not virtual:
            gate.set()
        server.drain()
        server.close()
        assert server.completed == 9
        assert all(t.result() == pytest.approx(1.0) for t in tickets)
        assert live["now"] == 0
        assert live["peak"] == 3


# -- determinism (seeded request streams) -------------------------------------


class TestDeterminism:
    def test_poisson_stream_is_reproducible(self):
        a = poisson_request_stream(20, 500.0, 16, seed=13)
        b = poisson_request_stream(20, 500.0, 16, seed=13)
        assert a == b
        c = poisson_request_stream(20, 500.0, 16, seed=14)
        assert a != c
        times = [t for t, _ in a.arrivals]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_serving_run_is_bit_identical_run_to_run(self, bank):
        """Fixed seed => identical logits, virtual time and latencies."""
        results = []
        for _ in range(2):
            model = _model(bank)
            results.append(serve_stream(model, bank.train, num_requests=12,
                                        arrival_rate=1000.0, max_in_flight=4,
                                        batching=True, seed=21))
        first, second = results
        assert first.virtual_seconds == second.virtual_seconds
        assert first.stats.queue_times == second.stats.queue_times
        assert first.stats.engine_times == second.stats.engine_times
        assert np.array_equal(first.logits, second.logits)
        assert first.latency_summary() == second.latency_summary()


# -- latency accounting through the server ------------------------------------


class TestLatencyAccounting:
    def test_ticket_timeline_is_consistent(self, bank):
        model = _model(bank)
        built = model.build_recursive(1)
        session = repro.Session(built.graph, model.runtime, num_workers=36)
        feeds = built.feed_dict(batch_trees([bank.train[3]]))
        with session.serve(max_in_flight=1) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0)
                       for _ in range(4)]
            server.drain()
        for ticket in tickets:
            assert ticket.arrival_time == 0.0
            assert ticket.admit_time >= ticket.arrival_time
            assert ticket.complete_time > ticket.admit_time
            assert ticket.latency == pytest.approx(
                ticket.queue_time + ticket.engine_time)
        # serialized admission: each request queues behind its
        # predecessors, so queue times strictly increase
        queue_times = [t.queue_time for t in tickets]
        assert queue_times[0] == 0.0
        assert all(b > a for a, b in zip(queue_times, queue_times[1:]))
        summary = server.stats.latency_summary()
        assert summary["requests"] == 4
        assert summary["total"]["max"] == pytest.approx(
            max(t.latency for t in tickets))

    def test_open_loop_arrivals_accrue_no_queue_time_when_idle(self, bank):
        """At a trickle arrival rate every request is admitted at once."""
        model = _model(bank)
        result = serve_stream(model, bank.train, num_requests=5,
                              arrival_rate=1.0, max_in_flight=8, seed=2)
        assert result.stats.queue_times == [0.0] * 5


# -- kept tickets -------------------------------------------------------------


class TestKeptTickets:
    """A server keeps every ticket by default (``keep_tickets=True``): a
    finished one holds its result, not its root frame or a lock."""

    @staticmethod
    def _serving(bank, engine="event", trees=8):
        model = _model(bank)
        built = model.build_recursive(1)
        smallest = sorted(bank.train, key=lambda tree: tree.num_nodes)
        feeds = [built.feed_dict(batch_trees([tree]))
                 for tree in smallest[:trees]]
        session = repro.Session(built.graph, model.runtime, engine=engine,
                                num_workers=4)
        return built, feeds, session

    def test_growth_per_kept_ticket_is_bounded(self, bank):
        built, feeds, session = self._serving(bank)
        with session.serve(max_in_flight=4) as server:
            def burst():
                tickets = [server.submit(built.root_logits, feed)
                           for feed in feeds]
                server.drain()
                return tickets
            for _ in range(2):
                burst()
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                kept = [ticket for _ in range(5) for ticket in burst()]
                gc.collect()
                grown = tracemalloc.get_traced_memory()[0] - base
            finally:
                if started:
                    tracemalloc.stop()
        assert all(t.status == "done" and t.frame is None for t in kept)
        # the ticket, its fetch list and its logits: 1.0-1.3 KB here; a
        # ticket that kept its root frame and its own event held 4.5 KB
        assert grown / len(kept) < 2048, grown / len(kept)

    def test_result_and_cancel_still_behave(self, bank):
        built, feeds, session = self._serving(bank, trees=4)
        with session.serve(max_in_flight=2) as server:
            tickets = [server.submit(built.root_logits, feed, at=0.0)
                       for feed in feeds]
            session._engine.schedule(1e-6, tickets[0].cancel)  # in flight
            assert tickets[3].cancel()                         # queued
            server.drain()
            assert tickets[1].cancel() is False                # finished
        assert [t.status for t in tickets] == ["cancelled", "done", "done",
                                               "cancelled"]
        assert all(t.done and t.frame is None for t in tickets)
        for ticket in (tickets[0], tickets[3]):
            with pytest.raises(RequestCancelled):
                ticket.result()
        ref_session = repro.Session(built.graph, session.runtime)
        for ticket, feed in zip(tickets[1:3], feeds[1:3]):
            assert np.array_equal(ticket.result(),
                                  ref_session.run(built.root_logits, feed))

    @pytest.mark.timeout(60)
    def test_result_waits_on_a_wall_clock_engine(self, bank):
        built, feeds, session = self._serving(bank, engine="workerpool",
                                              trees=4)
        with session.serve(max_in_flight=2) as server:
            tickets = [server.submit(built.root_logits, feed)
                       for feed in feeds]
            values = [ticket.result(timeout=30) for ticket in tickets]
            assert tickets[0].cancel() is False
        assert all(t.done and t.frame is None for t in tickets)
        assert all(np.array_equal(t.result(timeout=0.0), v)
                   for t, v in zip(tickets, values))


# -- failure isolation --------------------------------------------------------


class TestErrors:
    def _failing_setup(self):
        graph = repro.Graph("serving_err")
        with graph.as_default():
            table = ops.constant(np.arange(4, dtype=np.float32))
            idx = ops.placeholder(repro.int32, (), "idx")
            out = ops.gather(table, idx)
        session = repro.Session(graph, repro.Runtime(), num_workers=2)
        return session, idx, out

    def test_engine_error_fails_outstanding_requests(self):
        session, idx, out = self._failing_setup()
        server = session.serve(max_in_flight=1)
        good = server.submit(out, {idx: 1}, at=0.0)
        bad = server.submit(out, {idx: 99}, at=0.0)     # out of range
        queued = server.submit(out, {idx: 2}, at=0.0)
        with pytest.raises(repro.EngineError):
            server.drain()
        assert good.result() == pytest.approx(1.0)
        with pytest.raises(repro.EngineError):
            bad.result()
        # the request queued behind the failure is failed, not lost
        assert queued.done
        with pytest.raises(repro.EngineError):
            queued.result()

    @pytest.mark.parametrize("engine", ["event", "workerpool"])
    def test_second_serve_names_the_open_server(self, engine):
        """Serving again while a server is open raises, naming it, and
        leaves that server running: it still drains, and once it is
        closed no thread is left behind and serving works again."""
        graph = repro.Graph(f"serving_twice_{engine}")
        with graph.as_default():
            table = ops.constant(np.arange(4, dtype=np.float32))
            idx = ops.placeholder(repro.int32, (), "idx")
            out = ops.gather(table, idx)
        session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                engine=engine)
        threads = threading.active_count()
        server = session.serve(max_in_flight=2)
        ticket = server.submit(out, {idx: 1}, at=0.0)
        with pytest.raises(repro.EngineError,
                           match=r"RecursiveServer\(graph='serving_twice"):
            session.serve(max_in_flight=2)
        late = server.submit(out, {idx: 3}, at=0.0)
        server.drain()
        assert ticket.result() == pytest.approx(1.0)
        assert late.result() == pytest.approx(3.0)
        server.close()
        assert threading.active_count() == threads
        with session.serve(max_in_flight=1) as again:
            assert again.submit(out, {idx: 2}, at=0.0).result() \
                == pytest.approx(2.0)
        assert threading.active_count() == threads
