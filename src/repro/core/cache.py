"""The backpropagation value cache (paper Section 5).

During the forward pass every operation output produced inside a recursive
frame is stored in a concurrent hash table, keyed by

    (frame key, producing graph id, op id, output index)

where the *frame key* combines the invocation's topological position (the
call-site op id, plus the iteration index for loop frames) with the key of
the parent frame — exactly the paper's uniqueness argument.  During the
backward pass, ``CacheLookup`` operations inside backward SubGraph bodies
retrieve the forward values by binding the backward frame to the matching
forward frame key.

Using a queue or stack instead would be incorrect: concurrent frames
complete in nondeterministic order, so values could be routed to the wrong
gradient operation (as the paper notes).

The table is *sharded*: keys hash to one of ``num_shards`` independently
locked dictionaries, so threads storing into it concurrently (a
workerpool serving master beside client threads) do not serialize on a
single lock.  The bulk APIs — :meth:`ValueCache.store_many`
and :meth:`ValueCache.lookup_many` — group their entries by shard and take
each shard lock once, which is what lets the engines turn the N per-frame
``CacheLookup``/store round-trips of a fused micro-batch into one bulk
cache transaction (the training-path analogue of the batched forward
kernels).

**Deferred columnar stores.**  A compiled sweep never reads the table (a
compiled ``CacheLookup`` aliases the forward *column*), so it hands each
recorded column over whole: :meth:`ValueCache.store_column`, O(1), keys
and column by reference.  The first reader — :meth:`lookup` /
:meth:`lookup_many` of a dynamic backward behind a compiled sub-sweep,
``len``, :meth:`items` — materialises every pending block with one
:meth:`store_many`; :meth:`clear` drops them unmaterialised.  (Blocks
materialise in hand-over order but after any row-wise store made
meanwhile — immaterial, since a frame key is written once per run.)
"""

from __future__ import annotations

import threading
from itertools import repeat
from typing import Any, Hashable, Iterable, Sequence

__all__ = ["ValueCache", "ROOT_KEY", "child_key"]

#: Key of the root (main-graph) frame.
ROOT_KEY: tuple = ()

#: Default shard count: enough to make lock collisions rare at
#: workerpool's worker counts, small enough to stay cheap to clear.
DEFAULT_SHARDS = 16


def child_key(parent_key: tuple, site: Hashable) -> tuple:
    """Derive a child frame key from its parent key and call-site position.

    ``site`` is the call-site op id for InvokeOp/CondOp frames, or an
    ``(op id, iteration)`` pair for loop-body frames.
    """
    return parent_key + (site,)


class _Shard:
    """One independently locked partition of the cache table."""

    __slots__ = ("table", "lock", "stores", "lookups")

    def __init__(self):
        self.table: dict[tuple, Any] = {}
        self.lock = threading.Lock()
        self.stores = 0
        self.lookups = 0


class ValueCache:
    """A concurrent (sharded) hash table of forward activation values."""

    def __init__(self, num_shards: int = DEFAULT_SHARDS):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self._shards = [_Shard() for _ in range(num_shards)]
        self._meta: dict[tuple, Any] = {}
        self._meta_lock = threading.Lock()
        #: deferred blocks ``(keys, graph id, op id, out, column, shared)``
        self._pending: list = []
        self._pending_lock = threading.Lock()
        #: rows handed to store_column that no shard has counted
        self._deferred = 0

    def _shard_of(self, key: tuple) -> _Shard:
        return self._shards[hash(key) % self.num_shards]

    # -- scalar API ----------------------------------------------------------

    def store(self, frame_key: tuple, graph_id: int, op_id: int,
              out_idx: int, value: Any) -> None:
        key = (frame_key, graph_id, op_id, out_idx)
        shard = self._shard_of(key)
        with shard.lock:
            shard.table[key] = value
            shard.stores += 1

    def lookup(self, frame_key: tuple, graph_id: int, op_id: int,
               out_idx: int) -> Any:
        if self._pending:
            self._materialise()
        key = (frame_key, graph_id, op_id, out_idx)
        shard = self._shard_of(key)
        with shard.lock:
            shard.lookups += 1
            try:
                return shard.table[key]
            except KeyError:
                raise KeyError(self._miss_message(key)) from None

    # -- bulk API ------------------------------------------------------------

    def store_many(self, entries: Iterable[tuple]) -> None:
        """Store ``(frame_key, graph_id, op_id, out_idx, value)`` entries.

        Entries are grouped by shard and each shard lock is acquired once,
        so a fused micro-batch's recorded outputs cost one lock round-trip
        per touched shard instead of one per value.
        """
        by_shard: dict[int, list[tuple[tuple, Any]]] = {}
        for frame_key, graph_id, op_id, out_idx, value in entries:
            key = (frame_key, graph_id, op_id, out_idx)
            by_shard.setdefault(hash(key) % self.num_shards, []).append(
                (key, value))
        for index, pairs in by_shard.items():
            shard = self._shards[index]
            with shard.lock:
                for key, value in pairs:
                    shard.table[key] = value
                shard.stores += len(pairs)

    def store_column(self, keys: Sequence[tuple], graph_id: int, op_id: int,
                     out_idx: int, column, shared: bool = False) -> None:
        """Defer one block of stores: ``column[i]`` (``column`` itself
        when ``shared``) is frame ``keys[i]``'s value.  Both are kept by
        reference; ``stores`` counts the rows now, once."""
        with self._pending_lock:
            self._pending.append((keys, graph_id, op_id, out_idx, column,
                                  shared))
            self._deferred += len(keys)

    def _materialise(self) -> None:
        """Move every pending block into the shards (the list is emptied
        only once its rows are there: a racing reader waits)."""
        with self._pending_lock:
            blocks = self._pending
            self.store_many(
                entry for keys, gid, oid, out, col, shared in blocks
                for entry in zip(keys, repeat(gid), repeat(oid), repeat(out),
                                 repeat(col) if shared else col))
            # the shards count them from here on
            self._deferred -= sum(len(block[0]) for block in blocks)
            self._pending = []

    def lookup_many(self, keys: Sequence[tuple]) -> list:
        """Resolve many ``(frame_key, graph_id, op_id, out_idx)`` keys.

        Returns values in key order.  One lock acquisition per touched
        shard — the bulk read the batched ``CacheLookup`` kernel issues for
        a whole bucket of gradient frames.
        """
        if self._pending:
            self._materialise()
        results: list = [None] * len(keys)
        by_shard: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            by_shard.setdefault(hash(key) % self.num_shards, []).append(
                position)
        for index, positions in by_shard.items():
            shard = self._shards[index]
            with shard.lock:
                shard.lookups += len(positions)
                for position in positions:
                    key = keys[position]
                    try:
                        results[position] = shard.table[key]
                    except KeyError:
                        raise KeyError(self._miss_message(key)) from None
        return results

    # -- counters ------------------------------------------------------------

    @property
    def stores(self) -> int:
        # a lifetime total (clear() keeps it): runs book their difference
        with self._pending_lock:
            return sum(s.stores for s in self._shards) + self._deferred

    @property
    def lookups(self) -> int:
        return sum(s.lookups for s in self._shards)

    # -- control-flow metadata ----------------------------------------------

    def store_meta(self, key: tuple, value: Any) -> None:
        """Store control-flow metadata (e.g. a loop's iteration count)."""
        with self._meta_lock:
            self._meta[key] = value

    def lookup_meta(self, key: tuple) -> Any:
        with self._meta_lock:
            try:
                return self._meta[key]
            except KeyError:
                raise KeyError(f"no control-flow metadata under {key}") from None

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        with self._pending_lock:
            self._pending = []  # dropped unmaterialised
        for shard in self._shards:
            with shard.lock:
                shard.table.clear()
        with self._meta_lock:
            self._meta.clear()

    def items(self) -> list:
        """Every ``((frame key, graph id, op id, out), value)`` entry."""
        self._materialise()
        return [item for shard in self._shards
                for item in tuple(shard.table.items())]

    def __len__(self) -> int:
        self._materialise()
        return sum(len(s.table) for s in self._shards)

    @staticmethod
    def _miss_message(key: tuple) -> str:
        frame_key, graph_id, op_id, out_idx = key
        return (f"backprop cache miss: frame={frame_key} graph={graph_id} "
                f"op={op_id}:{out_idx}. Was the forward pass run with "
                "record=True?")
