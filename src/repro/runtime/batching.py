"""Cross-instance dynamic micro-batching for the execution engines.

The paper's recursive execution model makes inner operations from *many*
concurrent frames — sibling subtrees, concurrent root instances, whole
independent requests — interleave in one ready queue.  This module adds
the throughput lever that dynamic-batching systems (TensorFlow Fold,
Looks et al., reproduced in :mod:`repro.baselines.folding`) derive from
that situation: when several ready operations share the same *batch
signature* (op type, batching-relevant attrs, input dtypes/shapes), the
engine coalesces them into a single vectorized kernel call and scatters
the results back to the owning frames.

Unlike Fold, batching happens *inside* the engines at dispatch time, so
it composes with recursion (frames at different depths fuse freely), with
conditionals (only actually-taken branches produce work), and with
training: backward frames batch exactly like forward ones — concurrent
``InvokeGrad`` ops fuse into one frame spawn, ``CacheLookup`` buckets
resolve activations through one bulk value-cache read, and a fused
batch's recorded forward values are stored through one bulk write.

Components:

* :func:`batch_signature` — the bucketing key of one ready instance;
* :class:`Bucket` — an ordered group of same-signature instances;
* :class:`Coalescer` — the signature-keyed pending-bucket table with the
  flush policy and an amortized-O(1) deadline queue for expiry;
* :class:`BatchPolicy` — fixed knobs: bucket capacity, minimum profitable
  size and (wall-clock engine only) the flush timeout bounding how long a
  partially-filled bucket may wait;
* :class:`AdaptiveBatchPolicy` — per-signature feedback control of the
  minimum size and flush timeout, driven by observed flush widths.

Both engines share the same discipline:

1. ready instances whose op type has a registered ``batched_kernel`` (or,
   for async ops, a batched frame-spawn registration) are *offered* to
   the coalescer instead of executing immediately;
2. a bucket that reaches ``max_batch`` flushes at once;
3. when the engine runs out of other ready work (the current wavefront is
   exhausted), all pending buckets flush ("flush on drain");
4. the wall-clock engine additionally expires buckets: whenever a
   worker's queue wait times out (every ``flush_timeout`` seconds of
   quiet), it flushes the bucket with the earliest deadline that has aged
   past its signature's timeout — so once no other ready work remains, a
   held bucket is released within roughly two idle polls, ruling out
   deadlock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.graph.registry import OpDef, op_def
from repro.graph.sparse import IndexedSlices

__all__ = ["BatchPolicy", "AdaptiveBatchPolicy", "QueueAwareBatchPolicy",
           "Bucket", "Coalescer", "batch_signature", "signature_prefix",
           "value_signature", "resolve_batching"]


@dataclass
class BatchPolicy:
    """Fixed flush policy for the coalescing ready queue."""

    #: hard cap on bucket size; a full bucket flushes immediately
    max_batch: int = 64
    #: buckets smaller than this execute through the scalar path on flush
    #: (a batch of one op is pure overhead, hence the >= 2 floor)
    min_batch: int = 2
    #: wall-clock engines flush buckets older than this (seconds); also the
    #: idle-poll interval of workers waiting for new ready work
    flush_timeout: float = 0.002
    #: soft cap (bytes) on the engine's live-value estimate.  ``None``
    #: disables budgeting.  Under pressure the dispatch loop prefers
    #: completing deep subtrees (draining live frames) over breadth-first
    #: fan-out — work is reordered, never shed.
    memory_budget: Optional[int] = None
    #: accepted and validated (``None`` or >= 1), no longer consulted:
    #: it used to cap compiled level plans at subtrees of node depth
    #: <= ``d``; the compiled tier now instantiates a fully determined
    #: profile of any depth from the definition's one template.
    level_canon_depth: Optional[int] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.min_batch < 2:
            raise ValueError(
                "min_batch must be >= 2 (a batch of one is just scalar "
                "execution)")
        if self.flush_timeout <= 0:
            raise ValueError("flush_timeout must be positive")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive (or None)")
        if self.level_canon_depth is not None and self.level_canon_depth < 1:
            raise ValueError("level_canon_depth must be >= 1 (or None)")

    # -- per-signature interface (constant for the fixed policy) -----------

    def min_batch_for(self, signature) -> int:
        """Minimum profitable bucket size for ``signature``."""
        return self.min_batch

    def timeout_for(self, signature) -> float:
        """Flush deadline (seconds past bucket open) for ``signature``."""
        return self.flush_timeout

    def observe(self, signature, width: int, cause: str) -> None:
        """Feedback hook: a ``signature`` bucket flushed at ``width``.

        ``cause`` is ``"full"`` (hit max_batch), ``"drain"`` (wavefront
        exhausted) or ``"timeout"`` (deadline expiry).  The fixed policy
        ignores it; :class:`AdaptiveBatchPolicy` tunes per-signature knobs.
        """


@dataclass(slots=True)
class _SignatureState:
    """Adaptive state for one batch signature."""

    width_ema: float
    min_batch: int
    timeout: float
    flushes: int = 0


@dataclass
class AdaptiveBatchPolicy(BatchPolicy):
    """Per-signature adaptive flush policy.

    The fixed :class:`BatchPolicy` forces one global trade-off on every op
    type: a min-size/timeout that suits wide, frequent signatures (TreeLSTM
    internal-node matmuls) starves rare ones (root classifiers, scalar
    control ops) and vice versa.  This policy observes every flush and
    tunes each signature independently:

    * the **width EMA** tracks how many same-signature instances are
      typically in flight when a bucket flushes;
    * the **minimum profitable size** follows ``width_ema / 2`` (clamped
      to ``[min_batch, max_batch]``) — a signature that reliably fuses 30
      wide should not execute 2-wide slivers through the fused path, while
      a signature that never exceeds 3 must not wait for 8;
    * the **flush timeout** shrinks multiplicatively whenever a deadline
      expiry catches a bucket below its minimum size (waiting longer was
      pure latency) and grows additively while buckets flush full
      (traffic is dense; patience buys width), bounded by
      ``[min_timeout, max_timeout]``.

    Convergence: for a stationary arrival width W the EMA is a contraction
    toward W, so ``min_batch_for`` settles at ``clamp(W/2)`` and the
    timeout settles at a bound — ``tests/test_adaptive_policy.py`` asserts
    both.  ``snapshot()`` exposes the per-signature state for reporting.
    """

    #: EMA smoothing factor for observed flush widths
    ema_alpha: float = 0.25
    #: bounds for the per-signature adaptive timeout (seconds)
    min_timeout: float = 0.0005
    max_timeout: float = 0.01
    #: multiplicative decrease on a starved expiry / additive increase step
    timeout_decay: float = 0.5
    timeout_growth: float = 1.25
    _signatures: dict = field(default_factory=dict, repr=False)

    def _state(self, signature) -> _SignatureState:
        state = self._signatures.get(signature)
        if state is None:
            state = _SignatureState(width_ema=float(self.min_batch),
                                    min_batch=self.min_batch,
                                    timeout=self.flush_timeout)
            self._signatures[signature] = state
        return state

    def min_batch_for(self, signature) -> int:
        return self._state(signature).min_batch

    def timeout_for(self, signature) -> float:
        return self._state(signature).timeout

    def observe(self, signature, width: int, cause: str) -> None:
        state = self._state(signature)
        state.flushes += 1
        state.width_ema += self.ema_alpha * (width - state.width_ema)
        state.min_batch = int(min(self.max_batch,
                                  max(self.min_batch,
                                      round(state.width_ema / 2))))
        if cause == "timeout" and width < state.min_batch:
            state.timeout = max(self.min_timeout,
                                state.timeout * self.timeout_decay)
        elif cause == "full":
            state.timeout = min(self.max_timeout,
                                state.timeout * self.timeout_growth)

    def snapshot(self) -> dict:
        """Per-signature tuned state, for reporting/inspection.

        Returns ``{signature: {"width_ema", "min_batch", "timeout",
        "flushes"}}`` — the stable surface consumed by
        :func:`repro.harness.reporting.format_adaptive_policy`.
        """
        return {sig: {"width_ema": state.width_ema,
                      "min_batch": state.min_batch,
                      "timeout": state.timeout,
                      "flushes": state.flushes}
                for sig, state in self._signatures.items()}


@dataclass
class QueueAwareBatchPolicy(AdaptiveBatchPolicy):
    """Load-scaled flush timeouts for continuous-batching serving.

    A serving engine sees two regimes.  When the request queue is
    *shallow* there is little future work to fuse with: holding a
    partially-filled bucket open buys no width and only adds tail
    latency, so flush deadlines should tighten.  When the queue is *deep*
    (the server is backlogged) more same-signature work is guaranteed to
    arrive within the flush window, so patience buys width and throughput
    — deadlines should widen.

    The :class:`~repro.runtime.server.RecursiveServer` reports its queue
    occupancy through :meth:`note_queue_depth` whenever a request is
    enqueued or admitted; ``timeout_for`` then scales the adaptive
    per-signature timeout by a factor interpolated between
    ``shallow_scale`` (empty queue) and ``deep_scale`` (queue at cap).
    Deadlines are fixed at bucket-open time (see
    :class:`Coalescer`), so a load change applies from the next bucket.
    All other behaviour (width EMA, per-signature minimum size) is
    inherited from :class:`AdaptiveBatchPolicy`.

    Scope: bucket deadlines are consulted by the *wall-clock* engine's
    idle expiry path (``Coalescer.pop_expired``); the event engine
    flushes on wavefront drain and never ages buckets, so there the
    load scaling is inert and only the inherited adaptive minimum-size
    control is in play.
    """

    #: timeout multiplier when the request queue is empty
    shallow_scale: float = 0.25
    #: timeout multiplier when the request queue is at its cap
    deep_scale: float = 2.0
    #: deadline pressure: flush deadlines are clamped to this fraction of
    #: the nearest queued request's deadline slack, so an urgent request
    #: is never parked behind a patient flush timer
    urgency_fraction: float = 0.25
    _load: float = field(default=0.0, repr=False)
    _slack: Optional[float] = field(default=None, repr=False)

    def note_queue_depth(self, depth: int, cap: int) -> None:
        """Report request-queue occupancy (``depth`` of ``cap`` slots)."""
        if cap <= 0:
            raise ValueError("queue cap must be positive")
        self._load = min(1.0, max(0.0, depth / cap))

    def note_deadline_slack(self, slack: Optional[float]) -> None:
        """Report the tightest queued deadline's remaining slack (seconds).

        ``None`` clears the pressure (no deadline-carrying requests
        waiting).  The server refreshes this alongside
        :meth:`note_queue_depth` on every enqueue/admit, outside its own
        lock — see the serving lock-ordering rules in ARCHITECTURE.md.
        """
        self._slack = slack

    @property
    def load(self) -> float:
        """Last reported queue occupancy in ``[0, 1]``."""
        return self._load

    def timeout_for(self, signature) -> float:
        base = super().timeout_for(signature)
        scale = (self.shallow_scale
                 + self._load * (self.deep_scale - self.shallow_scale))
        timeout = base * scale
        if self._slack is not None:
            # EDF pressure: the widest acceptable flush delay is a
            # fraction of the most urgent waiting request's slack
            timeout = min(timeout, max(0.0, self._slack)
                          * self.urgency_fraction)
        return min(self.max_timeout, max(self.min_timeout, timeout))


def resolve_batching(batching, policy: Optional[BatchPolicy]):
    """Normalize the user-facing ``batching=`` knob.

    ``batching`` may be a bool or the string ``"adaptive"``; returns
    ``(enabled, policy)`` where ``"adaptive"`` selects a fresh
    :class:`AdaptiveBatchPolicy` unless an explicit policy was given.
    Unknown strings are rejected rather than silently truthy.
    """
    if batching == "adaptive":
        return True, policy if policy is not None else AdaptiveBatchPolicy()
    if isinstance(batching, str):
        raise ValueError(f"unknown batching mode {batching!r}; "
                         "expected False, True or \"adaptive\"")
    return bool(batching), policy


def _value_sig(value: Any):
    """Shape/dtype fingerprint of one runtime input value."""
    if isinstance(value, np.ndarray):
        return ("nd", value.dtype.str, value.shape)
    if isinstance(value, np.generic):
        return ("np", value.dtype.str)
    if isinstance(value, IndexedSlices):
        # sparse gradients never mix with dense members in one bucket;
        # the row count is part of the key so batched fallbacks see
        # structurally-identical members
        return ("sl", value.values.dtype.str, value.values.shape,
                value.dense_shape)
    return ("py", type(value).__name__)


def value_signature(inputs) -> tuple:
    """Shape/dtype fingerprints of a ready instance's runtime inputs."""
    return tuple(_value_sig(v) for v in inputs)


#: intern table for static *sync-op* signature prefixes — value-keyed,
#: so equal (op_type, attrs) prefixes from different graphs share one id
#: and cross-graph instances keep fusing like they did pre-interning.
#: Bounded in practice by the distinct (op type, batch-attrs) pairs the
#: process ever builds; async prefixes embed per-SubGraph identities and
#: are deliberately NOT interned here (a long-lived server rebuilding
#: models would leak one entry per dead SubGraph forever).
_PREFIX_INTERN: dict = {}
_PREFIX_LOCK = threading.Lock()


def _intern(key) -> int:
    prefix_id = _PREFIX_INTERN.get(key)
    if prefix_id is None:
        with _PREFIX_LOCK:
            prefix_id = _PREFIX_INTERN.setdefault(key, len(_PREFIX_INTERN))
    return prefix_id


def signature_prefix(op, definition: Optional[OpDef] = None):
    """The *static* part of an op's batch signature, or ``None``.

    The full signature of a ready instance is this prefix plus the
    runtime :func:`value_signature` of its inputs.  The prefix is the
    expensive part — batching-relevant attr ``repr()``s, or the identity
    of an async op's target SubGraph — and it never changes for a given
    op, so :class:`~repro.runtime.plan.FramePlan` computes it once per
    body and interns it to ``(op_type, small int)``.  Keeping the op
    type as element 0 preserves the signature contract consumed by
    :meth:`~repro.runtime.stats.RunStats.width_histogram_by_type` and
    the adaptive-policy reporting.
    """
    if definition is None:
        definition = op_def(op.op_type)
    if definition.is_async:
        if not definition.meta.get("batch_async"):
            return None
        identity = tuple(id(op.attrs.get(k))
                         for k in definition.meta.get("batch_identity_attrs",
                                                      ()))
        # identity tuples of small ints hash as cheaply as an interned
        # id and keep the global table free of per-SubGraph entries
        return (op.op_type, identity)
    if definition.batched_kernel is None:
        return None
    attrs = tuple(repr(op.attrs.get(k))
                  for k in definition.meta.get("batch_attrs", ()))
    return (op.op_type, _intern((op.op_type, attrs)))


def batch_signature(op, inputs, definition: Optional[OpDef] = None):
    """The bucketing key of a ready instance, or ``None`` if unbatchable.

    Two instances may fuse iff they have the same op type, identical
    batching-relevant attrs (``batch_attrs`` in the op's registration) and
    input values of identical kind/dtype/shape.  Async ops batch only when
    registered via ``register_batched_async`` (one fused frame spawn per
    bucket), keyed additionally by the *identity* of their target SubGraph;
    other stateful ops and op types without a registered ``batched_kernel``
    never batch.

    The key is ``(op_type, interned prefix id, value signatures)`` — the
    static part comes pre-interned from :func:`signature_prefix` (plan
    slot caches hold it per op), so only the input fingerprints are
    computed per dispatch.
    """
    prefix = signature_prefix(op, definition)
    if prefix is None:
        return None
    return prefix + (value_signature(inputs),)


class Bucket:
    """Same-signature instances awaiting one fused kernel call."""

    __slots__ = ("signature", "op_type", "instances", "inputs", "opened_at")

    def __init__(self, signature, op_type: str, opened_at: float):
        self.signature = signature
        self.op_type = op_type
        self.instances: list = []
        self.inputs: list = []
        self.opened_at = opened_at  # engine time of the first offer

    def add(self, inst, inputs: list) -> None:
        self.instances.append(inst)
        self.inputs.append(inputs)

    def __len__(self) -> int:
        return len(self.instances)


class Coalescer:
    """Signature-keyed table of pending buckets (insertion-ordered).

    Alongside the bucket table an insertion-ordered min-heap of
    ``(deadline, bucket)`` entries supports :meth:`pop_expired` in
    amortized O(1): flushed buckets leave stale heap entries behind that
    are discarded lazily when they surface, so expiry never scans the
    live table.  Deadlines are fixed at bucket-open time from the
    policy's per-signature timeout.

    Not thread-safe by itself; the threaded engine serializes access under
    its master lock, the event engine is single-threaded.
    """

    __slots__ = ("policy", "_buckets", "_deadlines", "_seq", "_pending")

    def __init__(self, policy: Optional[BatchPolicy] = None):
        self.policy = policy or BatchPolicy()
        self._buckets: OrderedDict[Any, Bucket] = OrderedDict()
        # (deadline, seq, signature, opened_at): deliberately *not* the
        # bucket object, so stale entries never pin flushed buckets (and
        # their frames' values) in memory
        self._deadlines: list = []
        self._seq = itertools.count()
        self._pending = 0

    def offer(self, signature, inst, inputs: list,
              now: float = 0.0) -> Optional[Bucket]:
        """Queue one ready instance; returns the bucket if it became full."""
        self._drain_stale_deadlines()
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = Bucket(signature, inst.op.op_type, now)
            self._buckets[signature] = bucket
            heapq.heappush(self._deadlines,
                           (now + self.policy.timeout_for(signature),
                            next(self._seq), signature, bucket.opened_at))
        bucket.add(inst, inputs)
        self._pending += 1
        if len(bucket) >= self.policy.max_batch:
            return self._remove(signature, "full")
        return None

    def _is_stale(self, signature, opened_at: float) -> bool:
        bucket = self._buckets.get(signature)
        return bucket is None or bucket.opened_at != opened_at

    def _drain_stale_deadlines(self) -> None:
        """Drop leading heap entries for already-flushed buckets.

        Called opportunistically on offer so engines that never expire
        (the event engine flushes on drain) do not accumulate one heap
        tuple per flushed bucket across a long run.  Amortized O(1):
        each entry is pushed once and popped once.
        """
        while self._deadlines and self._is_stale(self._deadlines[0][2],
                                                 self._deadlines[0][3]):
            heapq.heappop(self._deadlines)

    def pop(self) -> Optional[Bucket]:
        """Remove and return the oldest pending bucket (FIFO fairness)."""
        if not self._buckets:
            return None
        signature = next(iter(self._buckets))
        return self._remove(signature, "drain")

    def pop_expired(self, now: float) -> Optional[Bucket]:
        """Remove the earliest-deadline bucket whose deadline has passed.

        The threaded engine's idle path calls this so a partially-filled
        bucket is deferred at most ~its signature's timeout once the queue
        goes quiet.  Stale heap entries (buckets flushed through
        :meth:`offer`/:meth:`pop` since being filed) are discarded lazily,
        keeping each call O(1) amortized regardless of table size.
        """
        while self._deadlines:
            deadline, _, signature, opened_at = self._deadlines[0]
            if self._is_stale(signature, opened_at):
                heapq.heappop(self._deadlines)  # stale: already flushed
                continue
            if deadline > now:
                return None
            heapq.heappop(self._deadlines)
            return self._remove(signature, "timeout")
        return None

    def _remove(self, signature, cause: str) -> Bucket:
        bucket = self._buckets.pop(signature)
        self._pending -= len(bucket)
        self.policy.observe(signature, len(bucket), cause)
        return bucket

    def discard_root(self, root) -> int:
        """Evict every pending instance whose frame tree is rooted at
        ``root`` (request cancellation).  Buckets emptied by the
        eviction vanish from the table; their deadline-heap entries go
        stale and are discarded lazily like any flushed bucket's.  Not a
        flush: the policy's ``observe`` feedback is not invoked.
        Returns the number of instances dropped.
        """
        dropped = 0
        emptied = []
        for signature, bucket in self._buckets.items():
            keep = [i for i, inst in enumerate(bucket.instances)
                    if inst.frame.root is not root]
            if len(keep) == len(bucket.instances):
                continue
            dropped += len(bucket.instances) - len(keep)
            bucket.instances = [bucket.instances[i] for i in keep]
            bucket.inputs = [bucket.inputs[i] for i in keep]
            if not bucket.instances:
                emptied.append(signature)
        for signature in emptied:
            del self._buckets[signature]
        self._pending -= dropped
        return dropped

    def __len__(self) -> int:
        """Number of pending *instances* across all buckets."""
        return self._pending
