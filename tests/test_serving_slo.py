"""SLO-aware serving: deadlines, shedding, cancellation, fairness.

The contract (see :mod:`repro.runtime.server`):

* admission is earliest-deadline-first within priority classes
  (``order="edf"``), degrading to exact FIFO when no request carries a
  deadline or priority; ``order="fifo"`` keeps the blind baseline;
* tenants share the server under weighted fair queueing;
* ``shedding="cost"`` rejects arrivals whose deadline is infeasible
  against the predicted backlog or that would breach ``queue_cost_cap``
  — by *predicted engine cost* (root-plan op costs x size hint x EWMA
  calibration), not blind queue depth;
* cancellations and enforced deadlines drop queued requests and unwind
  in-flight root frames in the scheduler core — on every registered
  executor — without perturbing surviving requests' bit-exact values;
* dropped requests (rejected / cancelled / timed out) never contribute
  latency samples, and goodput/deadline-miss counters account for every
  submitted request.

Also regression coverage for the admission races this PR fixed: the
``close()``/``submit()`` race, ``result(timeout=...)`` on the virtual
engine, and the batch-policy notification lock discipline.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro import ops
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.graph.registry import all_op_types, register_op
from repro.harness import serve_stream
from repro.models import ModelConfig, TreeRNNSentiment
from repro.runtime import available_executors, resolve_executor
from repro.runtime.server import (DeadlineExceeded, RequestCancelled,
                                  ServerOverloaded)

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def bank():
    return make_treebank(num_train=16, num_val=4, vocab_size=60, seed=11)


def _model(bank, hidden=8):
    return TreeRNNSentiment(ModelConfig(hidden=hidden, embed_dim=hidden,
                                        vocab_size=60), repro.Runtime())


def _session(bank, **kwargs):
    model = _model(bank)
    built = model.build_recursive(1)
    session = repro.Session(built.graph, model.runtime, num_workers=36,
                            **kwargs)
    return built, session


def _feed(built, tree):
    return built.feed_dict(batch_trees([tree]))


# the same blocking gate op the backpressure tests use: on wall-clock
# backends the in-flight request parks on the gate, making admission and
# cancellation states deterministic; the virtual engine pre-sets it
def _gate_kernel(op, inputs, ctx):
    gate = op.attrs["gate"]
    if not gate.wait(timeout=30):
        raise RuntimeError("serving gate never released")
    return [inputs[0]]


def _gated_graph(gate):
    if "ServingGateSLO" not in all_op_types():
        register_op("ServingGateSLO",
                    infer=lambda op: [(op.inputs[0].dtype,
                                       op.inputs[0].shape)],
                    kernel=_gate_kernel)
    graph = repro.Graph("gated_serving_slo")
    with graph.as_default():
        x = ops.placeholder(repro.float32, (), "x")
        out = graph.add_op("ServingGateSLO", [x], {"gate": gate}).outputs[0]
    return graph, x, out


def _gated_server(engine, **serve_kwargs):
    virtual = resolve_executor(engine).virtual_clock
    gate = threading.Event()
    if virtual:
        gate.set()
    graph, x, out = _gated_graph(gate)
    session = repro.Session(graph, repro.Runtime(), num_workers=2,
                            engine=engine)
    server = session.serve(**serve_kwargs)
    return server, gate, x, out, virtual


# -- EDF admission ------------------------------------------------------------


class TestEDF:
    def test_edf_admits_by_deadline(self, bank):
        """Serialized admission pops the tightest deadline first."""
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1,
                           enforce_deadlines=False) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0,
                                     deadline=d) for d in (9.0, 3.0, 6.0)]
            server.drain()
        order = [t.request_id for t in
                 sorted(tickets, key=lambda t: t.admit_time)]
        assert order == [1, 2, 0]

    def test_fifo_mode_ignores_deadlines(self, bank):
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1, order="fifo",
                           enforce_deadlines=False) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0,
                                     deadline=d) for d in (9.0, 3.0, 6.0)]
            server.drain()
        order = [t.request_id for t in
                 sorted(tickets, key=lambda t: t.admit_time)]
        assert order == [0, 1, 2]

    def test_priority_outranks_deadline(self, bank):
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1,
                           enforce_deadlines=False) as server:
            loose = server.submit(built.root_logits, feeds, at=0.0,
                                  deadline=50.0, priority=1)
            tight = server.submit(built.root_logits, feeds, at=0.0,
                                  deadline=1.0)
            server.drain()
        assert loose.admit_time < tight.admit_time

    def test_edf_without_deadlines_is_fifo(self, bank):
        """The default order changes nothing for plain requests: queue
        times still strictly increase under serialized admission."""
        built, session = _session(bank)
        feeds = _feed(built, bank.train[3])
        with session.serve(max_in_flight=1) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0)
                       for _ in range(4)]
            server.drain()
        queue_times = [t.queue_time for t in tickets]
        assert queue_times[0] == 0.0
        assert all(b > a for a, b in zip(queue_times, queue_times[1:]))

    def test_invalid_slo_knobs(self, bank):
        built, session = _session(bank)
        with pytest.raises(ValueError):
            session.serve(order="lifo")
        with pytest.raises(ValueError):
            session.serve(shedding="random")
        with pytest.raises(ValueError):
            session.serve(queue_cost_cap=0.0)
        with pytest.raises(ValueError):
            session.serve(capacity_factor=-1.0)
        server = session.serve()
        feeds = _feed(built, bank.train[0])
        with pytest.raises(ValueError):
            server.submit(built.root_logits, feeds, deadline=1.0,
                          timeout=1.0)
        with pytest.raises(ValueError):
            server.submit(built.root_logits, feeds, timeout=0.0)
        server.close()


# -- weighted fair queueing ---------------------------------------------------


class TestFairQueueing:
    def test_weighted_interleave(self, bank):
        """Weight 2:1 -> tenant a gets ~2 of every 3 serialized slots
        while both lanes are backlogged."""
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1,
                           tenant_weights={"a": 2.0, "b": 1.0},
                           enforce_deadlines=False) as server:
            ta = [server.submit(built.root_logits, feeds, at=0.0,
                                tenant="a") for _ in range(6)]
            tb = [server.submit(built.root_logits, feeds, at=0.0,
                                tenant="b") for _ in range(6)]
            server.drain()
        by_admit = sorted(ta + tb, key=lambda t: t.admit_time)
        first_nine = [t.tenant for t in by_admit[:9]]
        assert first_nine.count("a") == 6
        assert first_nine.count("b") == 3

    def test_flooding_tenant_cannot_starve_another(self, bank):
        """A single late-lane request is served within a weight-fair
        bound, not behind the whole flood."""
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1,
                           enforce_deadlines=False) as server:
            flood = [server.submit(built.root_logits, feeds, at=0.0,
                                   tenant="noisy") for _ in range(10)]
            lone = server.submit(built.root_logits, feeds, at=0.0,
                                 tenant="quiet")
            server.drain()
        earlier = sum(1 for t in flood if t.admit_time < lone.admit_time)
        assert earlier <= 2, f"quiet tenant waited behind {earlier} floods"


# -- cost-predicted shedding --------------------------------------------------


class TestCostShedding:
    def test_cost_cap_sheds_overload(self, bank):
        built, session = _session(bank)
        with session.serve(max_in_flight=1, shedding="cost",
                           queue_cost_cap=0.002) as server:
            tickets = [server.submit(built.root_logits,
                                     _feed(built, tree), at=0.0,
                                     size_hint=tree.num_nodes)
                       for tree in bank.train]
            server.drain()
        served = [t for t in tickets if not t.rejected]
        shed = [t for t in tickets if t.rejected]
        assert shed and served
        assert server.rejected == len(shed)
        for t in shed:
            with pytest.raises(ServerOverloaded):
                t.result()
        assert all(t.value is not None for t in served)

    def test_idle_server_never_sheds_by_cost_cap(self, bank):
        """A request that would start immediately is admitted even when
        its predicted cost dwarfs the cost cap."""
        built, session = _session(bank)
        with session.serve(max_in_flight=2, shedding="cost",
                           queue_cost_cap=1e-9) as server:
            ticket = server.submit(built.root_logits,
                                   _feed(built, bank.train[0]), at=0.0,
                                   size_hint=10_000)
            server.drain()
        assert not ticket.rejected
        assert ticket.value is not None

    def test_infeasible_deadline_shed_at_admission(self, bank):
        """A deadline tighter than the request's own predicted cost is
        hopeless: shed it up front, before it consumes anything."""
        built, session = _session(bank)
        with session.serve(max_in_flight=2, shedding="cost") as server:
            hopeless = server.submit(built.root_logits,
                                     _feed(built, bank.train[0]), at=0.0,
                                     timeout=1e-12, size_hint=1000)
            feasible = server.submit(built.root_logits,
                                     _feed(built, bank.train[0]), at=0.0,
                                     timeout=10.0)
            server.drain()
        assert hopeless.rejected
        with pytest.raises(ServerOverloaded, match="infeasible"):
            hopeless.result()
        assert feasible.value is not None

    def test_completion_feedback_calibrates_predictions(self, bank):
        built, session = _session(bank)
        with session.serve(max_in_flight=4, shedding="cost") as server:
            for tree in bank.train[:8]:
                server.submit(built.root_logits, _feed(built, tree),
                              at=0.0, size_hint=tree.num_nodes)
            server.drain()
            scale = server.cost_scale
        assert scale != 1.0
        assert 1e-4 <= scale <= 1e4


# -- cancellation -------------------------------------------------------------


class TestCancellation:
    def test_cancel_queued_request(self, bank):
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0)
                       for _ in range(4)]
            assert tickets[2].cancel()
            server.drain()
        assert tickets[2].status == "cancelled"
        with pytest.raises(RequestCancelled):
            tickets[2].result()
        assert server.cancelled == 1
        assert server.completed == 3
        assert all(t.value is not None
                   for t in tickets if t is not tickets[2])

    def test_cancel_after_completion_loses(self, bank):
        built, session = _session(bank)
        with session.serve() as server:
            ticket = server.submit(built.root_logits,
                                   _feed(built, bank.train[0]), at=0.0)
            server.drain()
            assert ticket.cancel() is False
        assert ticket.status == "done"
        assert server.cancelled == 0

    def test_midflight_cancel_survivors_bit_identical(self, bank):
        """Cancelling an in-flight tree does not perturb concurrent
        requests: survivors match a one-shot Session.run bit for bit."""
        built, session = _session(bank)
        with session.serve(max_in_flight=4) as server:
            tickets = [server.submit(built.root_logits,
                                     _feed(built, tree), at=0.0)
                       for tree in bank.train[:4]]
            # fires after admission, before any tree can complete
            session._engine.schedule(1e-6, tickets[1].cancel)
            server.drain()
        assert tickets[1].status == "cancelled"
        ref_built, ref_session = _session(bank)
        for i in (0, 2, 3):
            ref = ref_session.run(ref_built.root_logits,
                                  _feed(ref_built, bank.train[i]))
            assert np.array_equal(ref, tickets[i].value), i

    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("engine", available_executors())
    def test_midflight_cancel_unwinds_on_every_executor(self, engine):
        """cancel() retires an admitted root frame on all backends: the
        cancelled request resolves with RequestCancelled, its in-flight
        slot frees for the next request, survivors complete correctly."""
        server, gate, x, out, virtual = _gated_server(engine,
                                                      max_in_flight=1)
        kwargs = {"at": 0.0} if virtual else {}
        with server:
            tickets = [server.submit(out, {x: float(k)}, **kwargs)
                       for k in range(4)]
            if virtual:
                server._session._engine.schedule(1e-9, tickets[0].cancel)
            else:
                # the first request is parked on the gate in-flight;
                # cancelling it must free the slot with the gate still
                # closed, or the drain below would hang
                assert tickets[0].cancel()
                gate.set()
            server.drain()
        if virtual:
            assert tickets[0].status == "cancelled"
        survivors = [t for t in tickets if t.status == "done"]
        assert len(survivors) == 3
        assert server.cancelled == 1
        assert server.completed == 3
        for t in survivors:
            assert t.result() == pytest.approx(float(t.request_id))
        with pytest.raises(RequestCancelled):
            tickets[0].result()


# -- deadline enforcement -----------------------------------------------------


class TestDeadlines:
    def test_timeouts_drop_queued_requests(self, bank):
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0,
                                     timeout=0.002) for _ in range(6)]
            server.drain()
        timed_out = [t for t in tickets if t.timed_out]
        assert timed_out
        assert server.timed_out == len(timed_out)
        for t in timed_out:
            with pytest.raises(DeadlineExceeded):
                t.result()
        assert server.stats.deadline_misses >= len(timed_out)

    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("engine", available_executors())
    def test_inflight_timeout_unwinds_on_every_executor(self, engine):
        """An enforced deadline reached mid-flight cancels the frame on
        all backends (event: a virtual expiry event; wall-clock: a
        timer firing while the kernel is parked on the gate)."""
        server, gate, x, out, virtual = _gated_server(engine,
                                                      max_in_flight=1)
        with server:
            if virtual:
                victim = server.submit(out, {x: 1.0}, at=0.0,
                                       timeout=1e-9)
                ok = server.submit(out, {x: 2.0}, at=0.0)
                server.drain()
            else:
                victim = server.submit(out, {x: 1.0}, timeout=0.2)
                ok = server.submit(out, {x: 2.0})
                with pytest.raises(DeadlineExceeded):
                    victim.result(timeout=20)
                gate.set()
                server.drain()
        assert victim.status == "timed_out"
        assert ok.result() == pytest.approx(2.0)
        assert server.timed_out == 1
        assert server.completed == 1

    def test_unenforced_deadlines_only_score_misses(self, bank):
        built, session = _session(bank)
        feeds = _feed(built, bank.train[0])
        with session.serve(max_in_flight=1,
                           enforce_deadlines=False) as server:
            tickets = [server.submit(built.root_logits, feeds, at=0.0,
                                     timeout=1e-6) for _ in range(4)]
            server.drain()
        assert all(t.status == "done" for t in tickets)
        assert server.timed_out == 0
        assert server.stats.deadline_misses == 4
        assert server.stats.goodput_requests == 0

    def test_result_timeout_rejected_on_virtual_engine(self, bank):
        """Regression: result(timeout=...) used to silently drain the
        whole simulation; it must refuse with an explanation instead."""
        built, session = _session(bank)
        with session.serve() as server:
            ticket = server.submit(built.root_logits,
                                   _feed(built, bank.train[0]), at=0.0)
            with pytest.raises(ValueError, match="virtual"):
                ticket.result(timeout=1.0)
            # and crucially it did NOT drain as a side effect
            assert not ticket.done
            assert ticket.result() is not None

    @pytest.mark.timeout(60)
    def test_result_timeout_honored_on_wall_clock(self):
        server, gate, x, out, _ = _gated_server("workerpool",
                                                max_in_flight=1)
        ticket = server.submit(out, {x: 3.0})
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.05)
        gate.set()
        assert ticket.result(timeout=20) == pytest.approx(3.0)
        server.close()


# -- dropped requests vs the latency reservoir (all executors) ----------------


@pytest.mark.parametrize("engine", available_executors())
class TestDroppedRequestAccounting:
    @pytest.mark.timeout(90)
    def test_drops_excluded_from_percentiles_counted_in_goodput(self,
                                                               engine):
        """One run with completions + a rejection + a cancellation + a
        timeout: only completions contribute latency samples, while the
        goodput/miss counters account for every submitted request."""
        server, gate, x, out, virtual = _gated_server(
            engine, max_in_flight=1, queue_cap=3, order="fifo")
        kwargs = {"at": 0.0} if virtual else {}
        with server:
            tickets = [server.submit(out, {x: float(k)}, **kwargs)
                       for k in range(4)]
            # 1 in flight + 3 queued = at cap: the 5th bounces
            rejected = server.submit(out, {x: 9.0}, **kwargs)
            if virtual:
                # cancels must fire inside the simulation, after the
                # t=0 arrivals have filled the queue
                engine_obj = server._session._engine
                engine_obj.schedule(1e-9, tickets[2].cancel)
                engine_obj.schedule(1e-9, tickets[3].cancel)
                server.drain()
            else:
                assert tickets[2].cancel()
                assert tickets[3].cancel()
                gate.set()
                server.drain()
        stats = server.stats
        assert rejected.status == "rejected"
        assert server.completed == 2
        assert server.cancelled == 2
        assert server.rejected == 1
        # the reservoir holds exactly the completions
        assert stats.requests == 2
        assert len(stats.request_latencies) == 2
        assert len(stats.queue_times) == 2
        summary = stats.latency_summary()
        assert summary["requests"] == 2
        assert summary["cancelled"] == 2
        assert summary["rejected"] == 1
        # no deadlines in this run: every completion is goodput
        assert stats.deadline_misses == 0
        assert stats.goodput_requests == 2

    @pytest.mark.timeout(90)
    def test_timed_out_requests_score_as_misses_not_samples(self, engine):
        server, gate, x, out, virtual = _gated_server(
            engine, max_in_flight=1, order="fifo")
        with server:
            if virtual:
                first = server.submit(out, {x: 1.0}, at=0.0)
                victim = server.submit(out, {x: 2.0}, at=0.0,
                                       timeout=1e-9)
                server.drain()
            else:
                first = server.submit(out, {x: 1.0})
                victim = server.submit(out, {x: 2.0}, timeout=0.2)
                with pytest.raises(DeadlineExceeded):
                    victim.result(timeout=20)
                gate.set()
                server.drain()
        stats = server.stats
        assert victim.status == "timed_out"
        assert first.status == "done"
        assert stats.requests == 1
        assert len(stats.request_latencies) == 1
        assert stats.timed_out_requests == 1
        assert stats.deadline_misses == 1
        assert stats.goodput_requests == 1


# -- admission-race regressions -----------------------------------------------


class TestAdmissionRaces:
    @pytest.mark.timeout(90)
    def test_submit_close_race_never_hangs_or_leaks(self):
        """Regression for the close()/submit() race: the closed flag now
        flips under the server lock, so a concurrent submit either lands
        (and is drained) or raises cleanly — repeat the race a few times
        and require every ticket to resolve."""
        for round_ in range(5):
            gate = threading.Event()
            gate.set()
            graph, x, out = _gated_graph(gate)
            session = repro.Session(graph, repro.Runtime(), num_workers=2,
                                    engine="workerpool")
            server = session.serve(max_in_flight=2)
            accepted, refused = [], []
            started = threading.Event()

            def hammer():
                started.set()
                for k in range(200):
                    try:
                        accepted.append(server.submit(out, {x: float(k)}))
                    except RuntimeError:
                        refused.append(k)
                        return

            thread = threading.Thread(target=hammer)
            thread.start()
            started.wait()
            server.close()
            thread.join(timeout=30)
            assert not thread.is_alive()
            # every accepted submit resolved: drained by close, never
            # dropped into a torn-down engine
            assert all(t.done for t in accepted)
            assert all(t.error is None for t in accepted)
