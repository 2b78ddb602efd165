"""Property-based tests for the sharded ValueCache bulk APIs.

The bulk ``store_many``/``lookup_many`` paths must be indistinguishable
from scalar ``store``/``lookup`` sequences — same values, same counters,
same miss errors — under arbitrary interleavings of concurrent frames
(threads standing in for engine workers).  The deferred columnar entry
``store_column`` (what a compiled sweep hands over) must be
indistinguishable from both once anybody reads, and cost nothing when
nobody does.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cache import ROOT_KEY, ValueCache, child_key

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Frame keys like the engines build: nested call-site tuples.
frame_keys = st.lists(
    st.one_of(st.integers(0, 50),
              st.tuples(st.integers(0, 50), st.integers(0, 5))),
    max_size=4).map(tuple)

entry_strategy = st.tuples(frame_keys, st.integers(0, 5), st.integers(0, 30),
                           st.integers(0, 2), st.integers(-1000, 1000))


class TestBulkEquivalence:
    @SETTINGS
    @given(entries=st.lists(entry_strategy, min_size=1, max_size=60),
           num_shards=st.integers(min_value=1, max_value=32))
    def test_store_many_equals_scalar_stores(self, entries, num_shards):
        """Bulk store == the same scalar stores (last write per key wins)."""
        bulk = ValueCache(num_shards=num_shards)
        scalar = ValueCache(num_shards=num_shards)
        bulk.store_many(entries)
        for frame_key, graph_id, op_id, out_idx, value in entries:
            scalar.store(frame_key, graph_id, op_id, out_idx, value)
        assert bulk.stores == scalar.stores == len(entries)
        assert len(bulk) == len(scalar)
        keys = [entry[:4] for entry in entries]
        assert bulk.lookup_many(keys) == [scalar.lookup(*k) for k in keys]

    @SETTINGS
    @given(entries=st.lists(entry_strategy, min_size=1, max_size=40,
                            unique_by=lambda e: e[:4]))
    def test_lookup_many_preserves_key_order(self, entries):
        cache = ValueCache()
        cache.store_many(entries)
        keys = [entry[:4] for entry in entries]
        values = cache.lookup_many(list(reversed(keys)))
        assert values == [entry[4] for entry in reversed(entries)]
        assert cache.lookups == len(keys)

    def test_lookup_many_miss_raises_the_engine_error(self):
        cache = ValueCache()
        cache.store((1,), 0, 0, 0, "x")
        with pytest.raises(KeyError, match="record=True"):
            cache.lookup_many([((1,), 0, 0, 0), ((2,), 0, 0, 0)])

    def test_bulk_apis_accept_ndarray_values(self):
        cache = ValueCache()
        value = np.arange(12.0).reshape(3, 4)
        cache.store_many([((ROOT_KEY), 1, 2, 0, value)])
        (got,) = cache.lookup_many([(ROOT_KEY, 1, 2, 0)])
        assert got is value  # stored by reference, like the scalar path


class TestConcurrentFrames:
    """Bulk traffic from many threads (stand-ins for engine workers)."""

    @pytest.mark.timeout(60)
    def test_concurrent_bulk_stores_and_lookups(self):
        cache = ValueCache()
        n_threads, per_thread = 8, 40
        errors = []

        def frame_worker(tid):
            # each "frame" stores its own keys (engine frames never collide
            # on keys — the paper's uniqueness argument), then reads them
            # back in bulk while other frames churn their shards
            try:
                key = child_key(ROOT_KEY, tid)
                entries = [(child_key(key, i), 0, i, 0, (tid, i))
                           for i in range(per_thread)]
                cache.store_many(entries)
                got = cache.lookup_many([e[:4] for e in entries])
                assert got == [(tid, i) for i in range(per_thread)]
                # scalar reads see bulk-stored values too
                for i in range(0, per_thread, 7):
                    assert cache.lookup(child_key(key, i), 0, i, 0) == (tid, i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=frame_worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.stores == n_threads * per_thread
        assert len(cache) == n_threads * per_thread

    @pytest.mark.timeout(60)
    def test_concurrent_mixed_scalar_and_bulk(self):
        """Interleaved scalar/bulk traffic keeps counters and table exact."""
        cache = ValueCache(num_shards=4)
        barrier = threading.Barrier(6)
        errors = []

        def scalar_frames(tid):
            try:
                barrier.wait()
                for i in range(50):
                    cache.store((tid, i), 1, i, 0, i * tid)
                for i in range(50):
                    assert cache.lookup((tid, i), 1, i, 0) == i * tid
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def bulk_frames(tid):
            try:
                barrier.wait()
                entries = [((tid, i), 1, i, 0, i * tid) for i in range(50)]
                cache.store_many(entries)
                assert (cache.lookup_many([e[:4] for e in entries])
                        == [i * tid for i in range(50)])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = ([threading.Thread(target=scalar_frames, args=(t,))
                    for t in range(3)]
                   + [threading.Thread(target=bulk_frames, args=(t,))
                      for t in range(3, 6)])
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.stores == 6 * 50
        assert cache.lookups == 6 * 50


# One hand-over of any of the three store entries: ("store" | "many",
# rows) or ("column", column kind, rows) — rows are (frame key, value).
_rows = st.lists(st.tuples(frame_keys, st.integers(-1000, 1000)),
                 min_size=1, max_size=6)
_handover = st.tuples(
    st.sampled_from(["store", "many", "array", "list", "shared"]),
    st.integers(0, 3), st.integers(0, 6), st.integers(0, 1), _rows)


def _hand_over(cache, kind, gid, oid, out, rows):
    """Store ``rows`` under ``(gid, oid, out)`` through entry ``kind``;
    returns the equivalent one-by-one entries.  Deferred and row-wise
    entries get disjoint op ids: a frame key is written once per run
    (the paper's uniqueness argument), so a row-wise store never has to
    order itself against a pending column of the same key."""
    if kind in ("array", "list", "shared"):
        oid += 10
    keys = [key for key, _ in rows]
    values = [np.float32(v) for _, v in rows]
    if kind == "shared":
        values = values[:1] * len(rows)
        cache.store_column(keys, gid, oid, out, values[0], shared=True)
    elif kind == "array":
        cache.store_column(keys, gid, oid, out, np.array(values))
    elif kind == "list":
        cache.store_column(keys, gid, oid, out, values)
    elif kind == "many":
        cache.store_many(zip(keys, [gid] * len(keys), [oid] * len(keys),
                             [out] * len(keys), values))
    else:
        for key, value in zip(keys, values):
            cache.store(key, gid, oid, out, value)
    return [(key, gid, oid, out, value) for key, value in zip(keys, values)]


class TestDeferredColumns:
    @SETTINGS
    @given(handovers=st.lists(_handover, min_size=1, max_size=12),
           reader=st.sampled_from(["lookup", "lookup_many", "len", "items"]))
    def test_any_interleaving_equals_scalar_stores(self, handovers, reader):
        """Whatever mix of entries stored them, whoever reads first
        sees the same table (last write per key wins, in hand-over
        order) and ``stores`` counted every row once."""
        cache, scalar = ValueCache(), ValueCache()
        for kind, gid, oid, out, rows in handovers:
            for entry in _hand_over(cache, kind, gid, oid, out, rows):
                scalar.store(*entry)
        want = dict(scalar.items())
        assert cache.stores == scalar.stores
        if reader == "lookup":
            got = {key: cache.lookup(*key) for key in want}
        elif reader == "lookup_many":
            got = dict(zip(want, cache.lookup_many(list(want))))
        else:
            assert len(cache) == len(want)
            got = dict(cache.items())
        assert got == want
        assert not cache._pending
        assert cache.stores == scalar.stores  # ... and still once

    def test_column_rows_are_stored_by_reference(self):
        cache = ValueCache()
        column = np.arange(12.0).reshape(3, 4)
        cache.store_column([(0,), (1,), (2,)], 1, 2, 0, column)
        row = cache.lookup((1,), 1, 2, 0)
        assert np.shares_memory(row, column)
        assert np.array_equal(row, column[1])

    def test_clear_before_a_read_drops_columns_unmaterialised(self):
        cache = ValueCache()
        column = np.zeros((64, 8), np.float32)
        alive = weakref.ref(column)
        cache.store_column([(i,) for i in range(64)], 0, 0, 0, column)
        del column
        assert alive() is not None  # retained by reference until read
        assert cache.stores == 64
        assert sum(len(s.table) for s in cache._shards) == 0
        cache.clear()
        gc.collect()
        assert alive() is None
        assert len(cache) == 0 and cache.items() == []
        assert cache.stores == 64  # a lifetime counter: handed over once
        with pytest.raises(KeyError, match="record=True"):
            cache.lookup((3,), 0, 0, 0)

    @pytest.mark.timeout(60)
    def test_concurrent_store_column_loses_nothing(self):
        cache = ValueCache(num_shards=4)
        barrier = threading.Barrier(4)
        errors = []

        def sweep(tid):
            try:
                barrier.wait()
                for block in range(25):
                    keys = [(tid, block, i) for i in range(8)]
                    cache.store_column(keys, 0, block, 0,
                                       np.full((8, 2), tid * 100 + block))
                    if block % 8 == tid:  # a reader amid the writers
                        assert cache.lookup(keys[3], 0, block, 0)[0] \
                            == tid * 100 + block
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.stores == 4 * 25 * 8
        assert len(cache) == 4 * 25 * 8
        for tid in range(4):
            for block in range(25):
                assert cache.lookup((tid, block, 5), 0, block, 0)[1] \
                    == tid * 100 + block


class TestShardingInvariants:
    @SETTINGS
    @given(entries=st.lists(entry_strategy, min_size=1, max_size=40,
                            unique_by=lambda e: e[:4]),
           shards_a=st.integers(1, 8), shards_b=st.integers(9, 64))
    def test_shard_count_is_invisible(self, entries, shards_a, shards_b):
        """Contents and counters do not depend on the shard count."""
        a, b = ValueCache(shards_a), ValueCache(shards_b)
        for cache in (a, b):
            cache.store_many(entries)
        keys = [e[:4] for e in entries]
        assert a.lookup_many(keys) == b.lookup_many(keys)
        assert len(a) == len(b) == len(entries)

    def test_clear_empties_every_shard(self):
        cache = ValueCache()
        cache.store_many([((i,), 0, i, 0, i) for i in range(64)])
        cache.store_meta(("m",), 3)
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(KeyError):
            cache.lookup_meta(("m",))
