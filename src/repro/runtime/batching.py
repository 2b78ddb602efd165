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
* :class:`Coalescer` — the signature-keyed pending-bucket table;
* :class:`BatchPolicy` — fixed knobs: bucket capacity and minimum
  profitable size;
* :class:`AdaptiveBatchPolicy` — per-signature feedback control of the
  minimum size, driven by observed flush widths.

Both engines share the same discipline:

1. ready instances whose op type has a registered ``batched_kernel`` (or,
   for async ops, a batched frame-spawn registration) are *offered* to
   the coalescer instead of executing immediately;
2. a bucket that reaches ``max_batch`` flushes at once;
3. when the engine runs out of other ready work (the current wavefront is
   exhausted), all pending buckets flush ("flush on drain").  No bucket
   waits for work that is not already ready, so none needs a deadline.
"""

from __future__ import annotations

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
    #: soft cap (bytes) on the engine's live-value estimate.  ``None``
    #: disables budgeting.  Under pressure the dispatch loop prefers
    #: completing deep subtrees (draining live frames) over breadth-first
    #: fan-out — work is reordered, never shed.
    memory_budget: Optional[int] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.min_batch < 2:
            raise ValueError(
                "min_batch must be >= 2 (a batch of one is just scalar "
                "execution)")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError("memory_budget must be positive (or None)")

    # -- per-signature interface (constant for the fixed policy) -----------

    def min_batch_for(self, signature) -> int:
        """Minimum profitable bucket size for ``signature``."""
        return self.min_batch

    def observe(self, signature, width: int, cause: str) -> None:
        """Feedback hook: a ``signature`` bucket flushed at ``width``.

        ``cause`` is ``"full"`` (hit max_batch) or ``"drain"`` (wavefront
        exhausted).  The fixed policy ignores it;
        :class:`AdaptiveBatchPolicy` tunes the per-signature minimum.
        """


@dataclass(slots=True)
class _SignatureState:
    """Adaptive state for one batch signature."""

    width_ema: float
    min_batch: int
    flushes: int = 0


@dataclass
class AdaptiveBatchPolicy(BatchPolicy):
    """Per-signature adaptive flush policy.

    The fixed :class:`BatchPolicy` forces one global minimum size on
    every op type: one that suits wide, frequent signatures (TreeLSTM
    internal-node matmuls) is wrong for rare ones (root classifiers,
    scalar control ops) and vice versa.  This policy observes every
    flush and tunes each signature independently:

    * the **width EMA** tracks how many same-signature instances are
      typically in flight when a bucket flushes;
    * the **minimum profitable size** follows ``width_ema / 2`` (clamped
      to ``[min_batch, max_batch]``) — a signature that reliably fuses 30
      wide should not execute 2-wide slivers through the fused path, while
      a signature that never exceeds 3 must not require 8.

    Convergence: for a stationary arrival width W the EMA is a contraction
    toward W, so ``min_batch_for`` settles at ``clamp(W/2)`` —
    ``tests/test_adaptive_policy.py`` asserts it.  ``snapshot()`` exposes
    the per-signature state for reporting.
    """

    #: EMA smoothing factor for observed flush widths
    ema_alpha: float = 0.25
    _signatures: dict = field(default_factory=dict, repr=False)

    def _state(self, signature) -> _SignatureState:
        state = self._signatures.get(signature)
        if state is None:
            state = _SignatureState(width_ema=float(self.min_batch),
                                    min_batch=self.min_batch)
            self._signatures[signature] = state
        return state

    def min_batch_for(self, signature) -> int:
        return self._state(signature).min_batch

    def observe(self, signature, width: int, cause: str) -> None:
        state = self._state(signature)
        state.flushes += 1
        state.width_ema += self.ema_alpha * (width - state.width_ema)
        state.min_batch = int(min(self.max_batch,
                                  max(self.min_batch,
                                      round(state.width_ema / 2))))

    def snapshot(self) -> dict:
        """Per-signature tuned state, for reporting/inspection.

        Returns ``{signature: {"width_ema", "min_batch", "flushes"}}`` —
        the stable surface consumed by
        :func:`repro.harness.reporting.format_adaptive_policy`.
        """
        return {sig: {"width_ema": state.width_ema,
                      "min_batch": state.min_batch,
                      "flushes": state.flushes}
                for sig, state in self._signatures.items()}


@dataclass
class QueueAwareBatchPolicy(AdaptiveBatchPolicy):
    """The serving engine's batch policy: :class:`AdaptiveBatchPolicy`
    under the name serving callers construct.

    Both engines flush buckets at wavefront drain and never age one, so
    a flush deadline — scaled by request-queue load or clamped by
    deadline slack — would have nothing to act on; the per-signature
    minimum size is the whole policy.
    """


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

    __slots__ = ("signature", "op_type", "instances", "inputs")

    def __init__(self, signature, op_type: str):
        self.signature = signature
        self.op_type = op_type
        self.instances: list = []
        self.inputs: list = []

    def add(self, inst, inputs: list) -> None:
        self.instances.append(inst)
        self.inputs.append(inputs)

    def __len__(self) -> int:
        return len(self.instances)


class Coalescer:
    """Signature-keyed table of pending buckets (insertion-ordered).

    Not thread-safe by itself; workerpool serializes access under its
    master lock, the event engine is single-threaded.
    """

    __slots__ = ("policy", "_buckets", "_pending")

    def __init__(self, policy: Optional[BatchPolicy] = None):
        self.policy = policy or BatchPolicy()
        self._buckets: OrderedDict[Any, Bucket] = OrderedDict()
        self._pending = 0

    def offer(self, signature, inst, inputs: list) -> Optional[Bucket]:
        """Queue one ready instance; returns the bucket if it became full."""
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = Bucket(signature, inst.op.op_type)
            self._buckets[signature] = bucket
        bucket.add(inst, inputs)
        self._pending += 1
        if len(bucket) >= self.policy.max_batch:
            return self._remove(signature, "full")
        return None

    def pop(self) -> Optional[Bucket]:
        """Remove and return the oldest pending bucket (FIFO fairness)."""
        if not self._buckets:
            return None
        signature = next(iter(self._buckets))
        return self._remove(signature, "drain")

    def _remove(self, signature, cause: str) -> Bucket:
        bucket = self._buckets.pop(signature)
        self._pending -= len(bucket)
        self.policy.observe(signature, len(bucket), cause)
        return bucket

    def discard_root(self, root) -> int:
        """Evict every pending instance whose frame tree is rooted at
        ``root`` (request cancellation).  Buckets emptied by the
        eviction vanish from the table.  Not a flush: the policy's
        ``observe`` feedback is not invoked.
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
