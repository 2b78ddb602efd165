"""Streaming request server over the recursive engines (continuous batching).

The paper's recursive model makes serving "just" many concurrent root
``InvokeOp`` instances — but driving them in rigid *waves* (admit N
requests, wait for all N, admit the next N) starves the coalescer at
every wave tail: as the last stragglers of a wave finish, the ready queue
empties out and fused batch widths collapse exactly when new requests are
already waiting.  :class:`RecursiveServer` replaces the wave driver with
the standard serving-systems fix, **continuous batching**: requests are
admitted into an engine that is already executing, so a fresh root
instance's operations join the live ready queue and fuse with in-flight
requests' work immediately.

On top of continuous admission the server is **SLO-aware**:

* requests carry an optional ``deadline`` (absolute engine time) or
  ``timeout`` (relative), a ``priority`` and a ``tenant``;
* admission order is earliest-deadline-first (``order="edf"``, the
  default — with no deadlines or priorities it degrades to exact FIFO
  by submission order) inside per-tenant lanes served by weighted fair
  queueing (virtual-time WFQ over ``tenant_weights``); ``order="fifo"``
  keeps the blind baseline the benchmarks compare against;
* overload is shed by *predicted cost* (``shedding="cost"``): each
  request's engine cost is estimated at arrival from its root
  :class:`~repro.runtime.plan.FramePlan` op counts
  (:meth:`~repro.runtime.cost_model.CostModel.plan_cost`), scaled by
  the caller's ``size_hint`` (e.g. tree nodes) and an EWMA calibration
  from observed completions — a request whose deadline is infeasible
  given the predicted backlog, or that would push the queued cost past
  ``queue_cost_cap``, is rejected up front instead of timing out after
  consuming resources.  ``shedding="cap"`` keeps the blind queue-depth
  cap;
* enforced deadlines (``enforce_deadlines=True``) *cancel* requests
  that miss them — queued requests are dropped, in-flight requests have
  their root frame retired in the scheduler core
  (:meth:`~repro.runtime.scheduler.SchedulerCore.cancel_root`): ready
  ops are skipped, pending coalescer-bucket members evicted, and the
  tree quiesces without producing further work, on both executor
  backends.  :meth:`RequestTicket.cancel` gives clients the same lever.

Components:

* :class:`RequestTicket` — the per-request completion future.  Carries
  the admission timeline (``arrival_time`` → ``admit_time`` →
  ``complete_time``) from which time-in-queue and time-in-engine derive.
* :class:`RecursiveServer` — request queue + admission control.  At most
  ``max_in_flight`` root instances execute concurrently; waiting
  requests are bounded by ``queue_cap`` (depth) or ``queue_cost_cap``
  (predicted engine seconds) — beyond that, arrivals are rejected (the
  backpressure signal).
* :exc:`ServerOverloaded` / :exc:`RequestCancelled` /
  :exc:`DeadlineExceeded` — raised from the ticket's ``result()``.

The serving-admission state machine (arrive → queue/shed → admit →
complete/cancel) and the full lock-ordering rules between server,
scheduler core and executors are documented in ARCHITECTURE.md.  The
short form of the lock discipline: completions and cancellations enter
server code *under the engine's master lock*, so the server never holds
its own lock while calling into engine-side code — admission decisions
and frame cancellations are snapshotted under the server lock and
executed after releasing it.

The server runs on any registered executor through the shared
incremental-admission API (``begin_serving`` / ``submit_root`` /
``cancel_root`` / ``drain`` / ``end_serving``):

* **event engine** — the whole serving session is simulated in virtual
  time.  Arrivals are scheduled with ``submit(..., at=t)``; admission
  decisions, deadline expiries and completions happen inside the event
  loop at the proper virtual instants, and ``drain()`` runs the
  simulation to exhaustion.  Fully deterministic: a fixed request
  stream yields bit-identical results *and* identical virtual-time
  latencies run over run.  (Enforced deadlines post one simulation
  event per deadline-carrying request; an expiry after completion is a
  no-op.)
* **workerpool** — ``submit`` may be called from any thread while
  kernels execute; deadlines are enforced by daemon timers; ``drain()``
  blocks until the queue and the engine are empty.

Per-request values are **bit-identical** to a one-shot ``Session.run``
of the same fetches: admission changes only *when* operations execute,
never what they compute (the micro-batching scatter-back guarantee) —
and cancelling requests does not perturb surviving requests' values.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Optional

from repro.graph.tensor import Tensor

from .plan import plan_for_fetches
from .stats import RunStats

__all__ = ["RecursiveServer", "RequestTicket", "ServerOverloaded",
           "RequestCancelled", "DeadlineExceeded"]

_INF = float("inf")

#: EWMA smoothing for the observed/predicted cost calibration ratio
_CALIBRATION_ALPHA = 0.2


class ServerOverloaded(RuntimeError):
    """A request was shed at admission (queue cap or predicted cost)."""


class RequestCancelled(RuntimeError):
    """A request was cancelled by the client before completing."""


class DeadlineExceeded(RuntimeError):
    """A request was dropped by deadline enforcement."""


#: the completion event every finished ticket shares: a kept ticket
#: holds no lock or condition of its own once it is done
_FINISHED = threading.Event()
_FINISHED.set()


class RequestTicket:
    """Completion future of one submitted request.

    Times are engine-clock seconds (virtual under the event engine,
    wall-clock under workerpool):

    * ``arrival_time`` — the request entered the server queue;
    * ``admit_time`` — it was admitted into the engine as a root instance;
    * ``complete_time`` — its root frame finished.

    ``queue_time`` / ``engine_time`` / ``latency`` derive from those;
    ``value`` holds the fetch results (matching the structure passed to
    ``submit``), or ``error`` the failure.  ``deadline``, ``priority``,
    ``tenant`` and ``predicted_cost`` echo the admission metadata;
    ``rejected`` / ``cancelled`` / ``timed_out`` say how a request that
    produced no value left the server (see :attr:`status`).
    """

    __slots__ = ("request_id", "fetches", "feed_map", "single",
                 "arrival_time", "admit_time", "complete_time", "value",
                 "error", "rejected", "cancelled", "timed_out", "deadline",
                 "priority", "tenant", "size_hint", "predicted_cost",
                 "shape_profile", "frame", "_base_cost", "_rel_timeout",
                 "_admitted", "_cancel_requested", "_queued", "_dequeued",
                 "_timer", "_server", "_done")

    def __init__(self, request_id: int, fetches: list, feed_map: dict,
                 single: bool, server: "RecursiveServer"):
        self.request_id = request_id
        self.fetches = fetches
        self.feed_map = feed_map
        self.single = single
        self.arrival_time: Optional[float] = None
        self.admit_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self.value: Any = None
        self.error: Optional[Exception] = None
        self.rejected = False
        self.cancelled = False
        self.timed_out = False
        self.deadline: Optional[float] = None
        self.priority = 0
        self.tenant: Optional[str] = None
        self.size_hint = 1
        self.predicted_cost = 0.0
        #: per-call-site tree shapes routing this request through the
        #: compiled level-plan fast path (None: dynamic path)
        self.shape_profile = None
        self._base_cost = 0.0
        #: the admitted root Frame (set under the server lock after
        #: submit_root returns; the cancellation handle), dropped when
        #: the ticket finishes
        self.frame = None
        self._rel_timeout: Optional[float] = None
        self._admitted = False
        self._cancel_requested: Optional[str] = None
        self._queued = False
        self._dequeued = False
        self._timer: Optional[threading.Timer] = None
        self._server = server
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def status(self) -> str:
        """``submitted``/``queued``/``running`` while pending, then one
        of ``done``, ``failed``, ``rejected``, ``cancelled``,
        ``timed_out``."""
        if not self._done.is_set():
            if self._admitted:
                return "running"
            return "queued" if self._queued else "submitted"
        if self.rejected:
            return "rejected"
        if self.timed_out:
            return "timed_out"
        if self.cancelled:
            return "cancelled"
        return "done" if self.error is None else "failed"

    @property
    def queue_time(self) -> Optional[float]:
        """Seconds spent waiting for admission (arrival -> admit)."""
        if self.arrival_time is None or self.admit_time is None:
            return None
        return self.admit_time - self.arrival_time

    @property
    def engine_time(self) -> Optional[float]:
        """Seconds spent executing in the engine (admit -> complete)."""
        if self.admit_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.admit_time

    @property
    def latency(self) -> Optional[float]:
        """End-to-end seconds (arrival -> complete)."""
        if self.arrival_time is None or self.complete_time is None:
            return None
        return self.complete_time - self.arrival_time

    def cancel(self) -> bool:
        """Cancel this request; returns True when the cancellation won.

        A queued request is dropped immediately; an in-flight request's
        root frame is retired in the scheduler core (its remaining work
        is skipped and its pending batch-bucket members evicted).
        Returns False when the request already finished — a completion
        and a cancellation race atomically, exactly one wins.  A
        cancelled ticket's ``result()`` raises :exc:`RequestCancelled`.
        """
        return self._server._cancel(self)

    def result(self, timeout: Optional[float] = None):
        """Block until this request completes; return (or raise) it.

        On the event engine an unfinished ticket triggers a ``drain()``
        of the server — virtual time cannot pass without running the
        simulation, so a ``timeout`` is rejected there (ValueError).
        """
        if not self._done.is_set():
            self._server._wait_for(self, timeout)
        if not self._done.is_set():
            raise TimeoutError(
                f"request {self.request_id} not complete after {timeout}s")
        if self.error is not None:
            raise self.error
        return self.value

    def _finish(self) -> None:
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
        self.frame = None
        # a waiter already blocked holds the ticket's own event, which
        # wakes it; later readers see the shared finished one
        done, self._done = self._done, _FINISHED
        done.set()


class _TenantLane:
    """One tenant's pending-request heap plus its WFQ virtual time."""

    __slots__ = ("heap", "vtime", "weight")

    def __init__(self, weight: float, vtime: float):
        self.heap: list = []
        self.vtime = vtime
        self.weight = weight


class _RequestQueue:
    """The server's waiting room: per-tenant EDF/FIFO heaps under
    weighted fair queueing.

    * within a tenant, requests order by ``(-priority, deadline,
      submission id)`` (``order="edf"``) or submission id alone
      (``order="fifo"``) — so with no deadlines or priorities EDF *is*
      FIFO;
    * across tenants, virtual-time WFQ: serving a request advances its
      tenant's virtual time by ``predicted_cost / weight``, and the
      lane with the least virtual time is served next, so over time each
      tenant's share of served cost is proportional to its weight.  A
      tenant going idle forfeits unused share (its lane is dropped and
      rejoins at the current virtual clock).

    Cancelled/timed-out tickets are removed lazily: ``discard`` marks
    the ticket and fixes the counters, the heap entry is skipped when it
    surfaces.  ``total_cost`` tracks the predicted engine cost of the
    live queue for the cost-shedding admission check.
    """

    __slots__ = ("order", "_weights", "_lanes", "_len", "total_cost",
                 "_vclock")

    def __init__(self, order: str, tenant_weights: Optional[dict] = None):
        self.order = order
        self._weights = dict(tenant_weights or {})
        self._lanes: dict = {}
        self._len = 0
        self.total_cost = 0.0
        self._vclock = 0.0

    def _key(self, ticket: RequestTicket) -> tuple:
        if self.order == "edf":
            deadline = ticket.deadline
            return (-ticket.priority,
                    deadline if deadline is not None else _INF,
                    ticket.request_id)
        return (ticket.request_id,)

    def push(self, ticket: RequestTicket) -> None:
        lane = self._lanes.get(ticket.tenant)
        if lane is None:
            weight = float(self._weights.get(ticket.tenant, 1.0))
            lane = self._lanes[ticket.tenant] = _TenantLane(weight,
                                                            self._vclock)
        heapq.heappush(lane.heap, (self._key(ticket), ticket))
        ticket._queued = True
        self._len += 1
        self.total_cost += ticket.predicted_cost

    @staticmethod
    def _live_head(lane: _TenantLane) -> Optional[RequestTicket]:
        heap = lane.heap
        while heap and heap[0][1]._dequeued:
            heapq.heappop(heap)
        return heap[0][1] if heap else None

    def pop(self) -> Optional[RequestTicket]:
        best_name = best_lane = None
        for name, lane in self._lanes.items():
            if self._live_head(lane) is None:
                continue
            if best_lane is None or lane.vtime < best_lane.vtime:
                best_name, best_lane = name, lane
        if best_lane is None:
            return None
        ticket = heapq.heappop(best_lane.heap)[1]
        ticket._queued = False
        self._len -= 1
        self.total_cost -= ticket.predicted_cost
        self._vclock = best_lane.vtime
        best_lane.vtime += (max(ticket.predicted_cost, 1e-12)
                            / best_lane.weight)
        if not best_lane.heap:
            del self._lanes[best_name]
        return ticket

    def discard(self, ticket: RequestTicket) -> None:
        """Lazily remove a queued ticket (cancellation/timeout)."""
        if not ticket._queued:
            return
        ticket._queued = False
        ticket._dequeued = True
        self._len -= 1
        self.total_cost -= ticket.predicted_cost

    def clear(self) -> None:
        self._lanes.clear()
        self._len = 0
        self.total_cost = 0.0

    def __len__(self) -> int:
        return self._len


class RecursiveServer:
    """A streaming request server over one :class:`~repro.runtime
    .session.Session`'s engine.

    Args:
        session: the session whose graph/engine serve the requests.  The
            server takes over the engine (persistent serving mode); using
            ``session.run`` concurrently is unsupported.
        max_in_flight: admission cap — at most this many root instances
            execute concurrently in the engine.
        queue_cap: backpressure cap — at most this many requests may wait
            in the server queue *beyond the free in-flight slots*;
            arrivals past that are *rejected* (the ticket's ``result()``
            raises :exc:`ServerOverloaded`).  ``None`` means unbounded.
        admission: ``"continuous"`` (default) admits a queued request the
            moment an in-flight slot frees; ``"wave"`` admits
            ``max_in_flight`` requests at a time and only when the engine
            is completely empty — the legacy wave-synchronized behaviour,
            kept as the comparison baseline.
        keep_tickets: retain every completed ticket on the server (the
            benchmarking drivers read them back via :attr:`tickets`).
            Pass ``False`` for a long-lived server so completed requests
            — their feeds and result values — are dropped once their
            owners hold the only reference; per-request *latency samples*
            still accrue in :attr:`stats` (bounded by its reservoir).
        order: ``"edf"`` (default) — earliest-deadline-first within
            priority classes; degrades to exact FIFO when no request
            carries a deadline or priority.  ``"fifo"`` — blind
            submission order, the benchmark baseline.
        shedding: ``"cap"`` (default) — reject arrivals by queue depth
            (``queue_cap``).  ``"cost"`` — reject by *predicted* cost:
            a request is shed when its deadline is infeasible against
            the predicted backlog, or when admitting it would push the
            queued predicted cost past ``queue_cost_cap``.  A request
            that would be admitted immediately (a free in-flight slot,
            no queue) is never shed by the cost cap.
        queue_cost_cap: bound on the live queue's total predicted engine
            cost (seconds) under ``shedding="cost"``; ``None`` disables
            the cost cap (feasibility shedding still applies).
        capacity_factor: the backlog-drain rate assumed by the
            feasibility check — roughly "how many predicted-cost seconds
            complete per engine second"; defaults to ``max_in_flight``
            (requests served concurrently).  The EWMA cost calibration
            (observed ``engine_time`` / predicted) absorbs constant
            estimation error over time; see :attr:`cost_scale`.
        tenant_weights: WFQ weight per tenant name (default 1.0 each);
            tenants not listed get weight 1.0.
        enforce_deadlines: when True (default), a request that reaches
            its deadline is dropped — timed out in the queue, or
            *cancelled mid-flight* (its root frame retired in the
            scheduler core).  When False, deadlines only order admission
            and score goodput.
    """

    def __init__(self, session, *, max_in_flight: int = 16,
                 queue_cap: Optional[int] = None,
                 admission: str = "continuous", keep_tickets: bool = True,
                 order: str = "edf", shedding: str = "cap",
                 queue_cost_cap: Optional[float] = None,
                 capacity_factor: Optional[float] = None,
                 tenant_weights: Optional[dict] = None,
                 enforce_deadlines: bool = True):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if queue_cap is not None and queue_cap < 1:
            raise ValueError("queue_cap must be >= 1 (or None for unbounded)")
        if admission not in ("continuous", "wave"):
            raise ValueError(f"unknown admission mode {admission!r}; "
                             "expected \"continuous\" or \"wave\"")
        if order not in ("edf", "fifo"):
            raise ValueError(f"unknown order {order!r}; "
                             "expected \"edf\" or \"fifo\"")
        if shedding not in ("cap", "cost"):
            raise ValueError(f"unknown shedding mode {shedding!r}; "
                             "expected \"cap\" or \"cost\"")
        if queue_cost_cap is not None and queue_cost_cap <= 0:
            raise ValueError("queue_cost_cap must be positive (or None)")
        if capacity_factor is not None and capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive (or None)")
        self._session = session
        self._engine = session._engine
        self._graph = session.graph
        self._virtual = bool(getattr(self._engine, "virtual_clock", False))
        self.max_in_flight = max_in_flight
        self.queue_cap = queue_cap
        self.admission = admission
        self.keep_tickets = keep_tickets
        self.order = order
        self.shedding = shedding
        self.queue_cost_cap = queue_cost_cap
        self.capacity_factor = (float(capacity_factor)
                                if capacity_factor is not None
                                else float(max_in_flight))
        self.enforce_deadlines = enforce_deadlines
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue = _RequestQueue(order, tenant_weights)
        self._in_flight = 0
        self._inflight_cost = 0.0
        self._completed = 0
        self._rejected = 0
        self._cancelled = 0
        self._timed_out = 0
        #: submits registered but not yet arrived (closes the
        #: submit/close race window: drain waits for these too)
        self._arriving = 0
        self._next_id = itertools.count()
        self._tickets: list[RequestTicket] = []
        self._outstanding: dict[int, RequestTicket] = {}
        self._pump_scheduled = False
        self._fatal: Optional[Exception] = None
        self._closed = False
        #: per-root-plan static cost (plan -> engine seconds per frame)
        self._plan_costs: dict = {}
        #: EWMA calibration: observed engine_time / predicted cost
        self._cost_scale = 1.0
        session.runtime.cache.clear()
        self._engine.begin_serving(error_listener=self._on_engine_error)

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> RunStats:
        """Session-cumulative engine stats (includes request latencies)."""
        return self._engine.stats

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    @property
    def cancelled(self) -> int:
        with self._lock:
            return self._cancelled

    @property
    def timed_out(self) -> int:
        with self._lock:
            return self._timed_out

    @property
    def cost_scale(self) -> float:
        """Current EWMA cost-calibration factor (1.0 until the first
        completion feeds back an observed/predicted ratio)."""
        with self._lock:
            return self._cost_scale

    @property
    def tickets(self) -> list:
        """All tickets in submission order (served and rejected)."""
        with self._lock:
            return list(self._tickets)

    # -- submission ----------------------------------------------------------

    def submit(self, fetches, feed_dict: Optional[dict] = None, *,
               at: Optional[float] = None, deadline: Optional[float] = None,
               timeout: Optional[float] = None, priority: int = 0,
               tenant: Optional[str] = None,
               size_hint: Optional[int] = None,
               shape_profile=None) -> RequestTicket:
        """Enqueue one request; returns its completion future.

        ``fetches``/``feed_dict`` follow ``Session.run`` semantics
        (a Tensor or a sequence of Tensors, placeholder feeds).  ``at``
        (event engine only) schedules the *arrival* at an absolute
        virtual time — the open-loop arrival hook; without it the request
        arrives at the engine's current clock.

        SLO metadata (all optional):

        * ``deadline`` — absolute engine-clock completion deadline;
          ``timeout`` — the same, relative to the arrival instant
          (mutually exclusive).  Deadlines order EDF admission, score
          goodput, and (``enforce_deadlines``) drop the request when
          reached.
        * ``priority`` — higher admits first regardless of deadline
          (EDF order applies within a priority class).
        * ``tenant`` — fair-queueing lane (see ``tenant_weights``).
        * ``size_hint`` — expected number of recursive frames (e.g.
          ``tree.num_nodes``); multiplies the root plan's static cost in
          the admission-time prediction.
        * ``shape_profile`` — per-call-site tree shapes (in op-id
          order, e.g. ``TreeBatch.profiles``): the request takes the
          compiled level-plan fast path, and every profiled request in
          flight at one flush — whatever its shape — joins the same
          forest and shares one sweep; an ineligible definition or a
          mismatching profile falls back to the dynamic path
          transparently (``RunStats.level_plan_fallback_reasons``) —
          a profile with ``None`` holes included: the request runs
          wholly on the dynamic tier.
        """
        if deadline is not None and timeout is not None:
            raise ValueError("pass deadline= (absolute) or timeout= "
                             "(relative), not both")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        single = isinstance(fetches, Tensor)
        fetch_list = [fetches] if single else list(fetches)
        self._session._check_fetches(fetch_list)
        feed_map = self._session._build_feed_map(feed_dict or {})
        ticket = RequestTicket(next(self._next_id), fetch_list, feed_map,
                               single, self)
        ticket.deadline = deadline
        ticket._rel_timeout = timeout
        ticket.priority = priority
        ticket.tenant = tenant
        ticket.size_hint = max(1, int(size_hint)) if size_hint else 1
        ticket.shape_profile = shape_profile
        ticket._base_cost = self._base_cost(fetch_list, ticket.size_hint)
        ticket.predicted_cost = ticket._base_cost * self._cost_scale
        with self._lock:
            # closed-check under the lock: close() flips the flag under
            # the same lock, so a submit that passes here is registered
            # (_arriving) before close's drain reads the counters
            if self._closed:
                raise RuntimeError("server is closed")
            if self.keep_tickets:
                self._tickets.append(ticket)
            self._outstanding[ticket.request_id] = ticket
            self._arriving += 1
        if at is not None:
            if not self._virtual:
                raise ValueError("scheduled arrivals (at=...) require the "
                                 "event engine; wall-clock backends serve "
                                 "in real time")
            self._engine.schedule(at, lambda: self._arrive(ticket))
        else:
            self._arrive(ticket)
        return ticket

    def drain(self) -> RunStats:
        """Complete everything submitted so far; return cumulative stats.

        Event engine: runs the simulation (arrivals, admissions,
        execution, completions) to exhaustion.  Wall-clock engines:
        block until pending arrivals, the request queue and the engine
        are all empty.  Raises the engine error if the session failed.
        """
        if self._virtual:
            stats = self._engine.drain()
            if self._fatal is not None:
                raise self._fatal
            return stats
        with self._cond:
            while self._fatal is None and (self._arriving or self._queue
                                           or self._in_flight):
                # short waits keep the main thread responsive to the
                # SIGALRM test watchdog
                self._cond.wait(0.05)
            if self._fatal is not None:
                raise self._fatal
        return self._engine.stats

    def close(self) -> None:
        """Stop accepting requests, drain, and end the serving session.

        The closed flag flips under the server lock *before* the drain,
        so a racing ``submit`` either registered first (its request is
        drained normally) or raises cleanly — it can never slip into a
        torn-down engine.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            if self._fatal is None:
                self.drain()
        finally:
            self._engine.end_serving()

    def __enter__(self) -> "RecursiveServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals -----------------------------------------------------------
    #
    # Lock discipline (workerpool): completions arrive under the
    # ENGINE master lock (frame.on_complete) and then take the server
    # lock, so the server must never hold its own lock while acquiring
    # the engine lock — _pump snapshots its admission decision under the
    # server lock, releases it, and only then calls engine.submit_root;
    # cancel paths call engine.cancel_root before taking the server
    # lock.  See ARCHITECTURE.md.

    def _base_cost(self, fetch_list: list, size_hint: int) -> float:
        """Uncalibrated engine-cost estimate: root-plan op costs scaled
        by the expected frame count.  ``predicted_cost`` multiplies this
        by the EWMA calibration (observed ``engine_time`` per unit of
        base) so constant model error washes out after a few dozen
        completions."""
        plan = plan_for_fetches(self._graph, {t.op for t in fetch_list})
        base = self._plan_costs.get(plan)
        if base is None:
            base = self._plan_costs[plan] = \
                self._engine.cost_model.plan_cost(plan)
        return base * size_hint

    def _arrive(self, ticket: RequestTicket) -> None:
        ticket.arrival_time = self._engine.now
        if ticket._rel_timeout is not None:
            ticket.deadline = ticket.arrival_time + ticket._rel_timeout
        schedule_pump = False
        with self._cond:
            self._arriving -= 1
            if ticket.done:
                # cancelled before its scheduled arrival fired
                self._cond.notify_all()
                return
            if self._fatal is not None:
                ticket.error = self._fatal
                self._outstanding.pop(ticket.request_id, None)
                ticket._finish()
                self._cond.notify_all()
                return
            reason = self._shed_reason_locked(ticket)
            if reason is not None:
                ticket.rejected = True
                ticket.error = ServerOverloaded(
                    f"request {ticket.request_id} rejected: {reason}")
                self._rejected += 1
                self._outstanding.pop(ticket.request_id, None)
                self._engine.stats.note_rejected()
                ticket._finish()
                self._cond.notify_all()
                return
            self._queue.push(ticket)
            if self._virtual:
                # Defer admission to a same-instant event: simultaneous
                # arrivals (a burst, a busy Poisson tick) all enqueue
                # before the first admission decision, so a wave admits
                # its full width and a continuous burst fills every
                # in-flight slot before any of their ops dispatch.
                schedule_pump = not self._pump_scheduled
                self._pump_scheduled = True
        self._arm_deadline(ticket)
        if not self._virtual:
            self._pump()
        elif schedule_pump:
            self._engine.schedule(self._engine.now, self._scheduled_pump)

    def _shed_reason_locked(self,
                            ticket: RequestTicket) -> Optional[str]:
        """Admission control: why this arrival must be shed (or None).

        Both modes extend their cap by the free in-flight slots, so an
        idle server never rejects a request it could start immediately.
        """
        free_slots = max(0, self.max_in_flight - self._in_flight)
        if self.shedding == "cap":
            if (self.queue_cap is not None
                    and len(self._queue) >= self.queue_cap + free_slots):
                return f"queue at cap ({self.queue_cap})"
            return None
        # cost-predicted shedding
        backlog = self._queue.total_cost + self._inflight_cost
        if ticket.deadline is not None:
            # feasibility: optimistic completion estimate assuming the
            # predicted backlog drains at capacity_factor ahead of it
            finish = (self._engine.now + backlog / self.capacity_factor
                      + ticket.predicted_cost)
            if finish > ticket.deadline:
                return (f"deadline infeasible (predicted finish "
                        f"{finish:.6f} > deadline {ticket.deadline:.6f})")
        if (self.queue_cost_cap is not None
                and len(self._queue) >= free_slots
                and self._queue.total_cost + ticket.predicted_cost
                > self.queue_cost_cap):
            return (f"queued predicted cost at cap "
                    f"({self.queue_cost_cap:.6f}s)")
        return None

    def _arm_deadline(self, ticket: RequestTicket) -> None:
        if not self.enforce_deadlines or ticket.deadline is None \
                or ticket.done:
            return
        if self._virtual:
            self._engine.schedule(ticket.deadline,
                                  lambda: self._deadline_expired(ticket))
        else:
            delay = max(0.0, ticket.deadline - self._engine.now)
            timer = threading.Timer(delay, self._deadline_expired, (ticket,))
            timer.daemon = True
            ticket._timer = timer
            timer.start()

    def _scheduled_pump(self) -> None:
        with self._lock:
            self._pump_scheduled = False
        self._pump()

    def _pump(self) -> None:
        """Admit queued requests while admission control allows it."""
        while True:
            with self._lock:
                if self._fatal is not None or not len(self._queue):
                    return
                if self.admission == "wave":
                    if self._in_flight > 0:
                        return
                    count = min(self.max_in_flight, len(self._queue))
                else:
                    if self._in_flight >= self.max_in_flight:
                        return
                    count = 1
                admitted = []
                for _ in range(count):
                    ticket = self._queue.pop()
                    if ticket is None:
                        break
                    ticket._admitted = True
                    self._inflight_cost += ticket.predicted_cost
                    admitted.append(ticket)
                if not admitted:
                    return
                self._in_flight += len(admitted)
            for ticket in admitted:
                # set admit_time before submission: a trivial root frame
                # may complete synchronously inside submit_root
                ticket.admit_time = self._engine.now
                feed_map, ticket.feed_map = ticket.feed_map, None
                frame = self._engine.submit_root(
                    self._graph, ticket.fetches, feed_map,
                    (f"req{ticket.request_id}",),
                    lambda values, t=ticket: self._request_done(t, values),
                    ticket.shape_profile)
                with self._lock:
                    if ticket._done is not _FINISHED:  # still running
                        ticket.frame = frame
                    pending = ticket._cancel_requested
                if pending is not None:
                    # a cancel/expiry landed between admission and the
                    # frame handle becoming available: honor it now
                    self._finish_inflight_cancel(
                        ticket, frame, timed_out=(pending == "timeout"))

    def _request_done(self, ticket: RequestTicket, values: list) -> None:
        ticket.complete_time = self._engine.now
        ticket.value = values[0] if ticket.single else values
        with self._cond:
            self._in_flight -= 1
            self._inflight_cost -= ticket.predicted_cost
            self._completed += 1
            self._outstanding.pop(ticket.request_id, None)
            self._engine.stats.note_ticket(ticket)
            self._calibrate_locked(ticket)
            ticket._finish()
            self._cond.notify_all()
        self._pump()

    def _calibrate_locked(self, ticket: RequestTicket) -> None:
        """Fold one completion into the EWMA cost calibration.

        The observation is the *uncalibrated* ratio (observed engine
        time over base estimate), so the EWMA converges to the mean
        ratio instead of compounding its own previous corrections — a
        multiplicative self-referencing update is unstable under
        heavy-tailed tree sizes.
        """
        engine_time = ticket.engine_time
        if not engine_time or ticket._base_cost <= 0.0:
            return
        ratio = engine_time / ticket._base_cost
        ratio = min(1e4, max(1e-4, ratio))
        self._cost_scale = ((1.0 - _CALIBRATION_ALPHA) * self._cost_scale
                            + _CALIBRATION_ALPHA * ratio)

    # -- cancellation / deadlines --------------------------------------------

    def _cancel(self, ticket: RequestTicket) -> bool:
        with self._cond:
            if ticket.done or self._fatal is not None:
                return False
            if not ticket._admitted:
                # queued (or not yet arrived): drop it right here
                self._queue.discard(ticket)
                self._finish_dropped_locked(ticket, timed_out=False)
                return True
            frame = ticket.frame
            if frame is None:
                # admitted but submit_root has not returned the frame
                # handle yet: _pump honors the request when it does
                ticket._cancel_requested = "cancel"
                return True
        return self._finish_inflight_cancel(ticket, frame, timed_out=False)

    def _deadline_expired(self, ticket: RequestTicket) -> None:
        """Deadline enforcement (event-loop callback or daemon timer)."""
        with self._cond:
            if ticket.done or self._fatal is not None:
                return
            if not ticket._admitted:
                self._queue.discard(ticket)
                self._finish_dropped_locked(ticket, timed_out=True)
                return
            frame = ticket.frame
            if frame is None:
                ticket._cancel_requested = "timeout"
                return
        self._finish_inflight_cancel(ticket, frame, timed_out=True)

    def _finish_inflight_cancel(self, ticket: RequestTicket, frame,
                                timed_out: bool) -> bool:
        """Retire an in-flight request's root frame; False if completion
        won the race (engine lock decides, see cancel_root)."""
        if not self._engine.cancel_root(frame):
            return False
        with self._cond:
            if ticket.done:
                return False
            self._in_flight -= 1
            self._inflight_cost -= ticket.predicted_cost
            self._finish_dropped_locked(ticket, timed_out=timed_out)
        self._pump()
        return True

    def _finish_dropped_locked(self, ticket: RequestTicket,
                               timed_out: bool) -> None:
        """Finish a ticket that will produce no value (under the lock)."""
        if timed_out:
            ticket.timed_out = True
            self._timed_out += 1
            self._engine.stats.note_timed_out()
            ticket.error = DeadlineExceeded(
                f"request {ticket.request_id} missed its deadline "
                f"(deadline {ticket.deadline:.6f}, "
                f"now {self._engine.now:.6f})")
        else:
            ticket.cancelled = True
            self._cancelled += 1
            self._engine.stats.note_cancelled()
            ticket.error = RequestCancelled(
                f"request {ticket.request_id} cancelled")
        self._outstanding.pop(ticket.request_id, None)
        ticket._finish()
        self._cond.notify_all()

    # -- engine-side notifications -------------------------------------------

    def _on_engine_error(self, error: Exception) -> None:
        """Engine kernel failure: fail every request still outstanding."""
        with self._cond:
            if self._fatal is None:
                self._fatal = error
            for ticket in self._outstanding.values():
                if not ticket.done:
                    ticket.error = error
                    ticket._finish()
            self._outstanding.clear()
            self._queue.clear()
            self._cond.notify_all()

    def _wait_for(self, ticket: RequestTicket,
                  timeout: Optional[float]) -> None:
        if self._virtual:
            if timeout is not None:
                raise ValueError(
                    "result(timeout=...) is unsupported on the "
                    "virtual-clock event engine: virtual time only "
                    "advances by running the simulation, so a wall-clock "
                    "timeout cannot be honored — result() drains the "
                    "whole simulation instead.  Call result() without a "
                    "timeout, or submit(..., timeout=) to bound the "
                    "request in virtual time.")
            try:
                self._engine.drain()
            except Exception:
                # the drain error listener already failed the tickets;
                # result() surfaces this ticket's recorded error
                if not ticket.done:
                    raise
            return
        ticket._done.wait(timeout)
