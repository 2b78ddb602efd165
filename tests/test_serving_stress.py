"""Wall-clock (workerpool) continuous-admission soak.

Hundreds of requests with random arrival jitter pushed into a live
workerpool serving session, guarding the serving path against the failure modes
real servers hit: scheduler deadlock (the watchdog), lost requests
(every ticket must resolve), and instance leaks (in-flight count, server
queue and coalescer buckets must all return to zero).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.data import make_treebank
from repro.data.batching import batch_trees
from repro.models import ModelConfig, TreeRNNSentiment
from repro.runtime.batching import QueueAwareBatchPolicy

pytestmark = [pytest.mark.serving, pytest.mark.stress]

NUM_REQUESTS = 200


@pytest.fixture(scope="module")
def setup():
    bank = make_treebank(num_train=12, num_val=2, vocab_size=50, seed=19)
    model = TreeRNNSentiment(ModelConfig(hidden=6, embed_dim=6,
                                         vocab_size=50), repro.Runtime())
    built = model.build_recursive(1)
    feeds = [built.feed_dict(batch_trees([tree])) for tree in bank.train]
    session = repro.Session(built.graph, model.runtime, num_workers=36)
    reference = [session.run(built.root_logits, f) for f in feeds]
    return model, built, feeds, reference


@pytest.mark.timeout(180)
def test_workerpool_soak_no_deadlock_no_lost_requests(setup):
    """200 jittered arrivals through a batching workerpool server."""
    model, built, feeds, reference = setup
    session = repro.Session(built.graph, model.runtime, num_workers=4,
                            engine="workerpool", batching=True,
                            batch_policy=QueueAwareBatchPolicy())
    rng = np.random.default_rng(23)
    tree_ids = rng.integers(0, len(feeds), size=NUM_REQUESTS)
    jitter = rng.uniform(0.0, 0.002, size=NUM_REQUESTS)
    with session.serve(max_in_flight=8, queue_cap=NUM_REQUESTS) as server:
        tickets = []
        for idx, gap in zip(tree_ids, jitter):
            tickets.append(server.submit(built.root_logits, feeds[idx]))
            if gap > 0.0015:     # occasional pauses drain the wavefront
                time.sleep(gap)
        server.drain()

        # no lost requests: every ticket resolved with a value
        assert server.completed == NUM_REQUESTS
        assert server.rejected == 0
        assert all(t.done for t in tickets)
        for idx, ticket in zip(tree_ids, tickets):
            assert ticket.error is None
            assert np.array_equal(ticket.result(), reference[idx]), \
                ticket.request_id

        # no instance leaks in the live ready queue / coalescer
        assert server.in_flight == 0
        assert server.queue_depth == 0
        engine = session._engine
        assert len(engine._coalescer) == 0
        assert not engine._ready

        # accounting covered every request exactly once
        stats = server.stats
        assert stats.requests == NUM_REQUESTS
        assert len(stats.queue_times) == NUM_REQUESTS
        assert all(q >= 0.0 for q in stats.queue_times)
        assert all(e > 0.0 for e in stats.engine_times)
        assert stats.batches > 0   # continuous admission still fuses


@pytest.mark.timeout(120)
def test_workerpool_soak_reuse_and_second_burst(setup):
    """The pool survives a second burst after going fully idle."""
    model, built, feeds, reference = setup
    session = repro.Session(built.graph, model.runtime, num_workers=3,
                            engine="workerpool", batching=True)
    with session.serve(max_in_flight=4) as server:
        for _ in range(2):
            tickets = [server.submit(built.root_logits, feeds[i % len(feeds)])
                       for i in range(40)]
            server.drain()
            assert all(t.done for t in tickets)
            assert server.in_flight == 0
            # idle gap: the master and the workers sit on empty queues
            time.sleep(0.05)
        assert server.completed == 80
        for i, ticket in enumerate(tickets):
            assert np.array_equal(ticket.result(),
                                  reference[i % len(feeds)])
