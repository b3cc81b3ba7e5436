"""The multi-tenant front door over :class:`~repro.service.TraversalService`.

:class:`FrontDoor` is the request tier that makes the serving stack survive
hostile load.  Every request passes four stages:

1. **Admission** (caller thread, constant-time): resolve the tenant, take a
   token from its bucket, charge its quota, and offer the request to the
   bounded priority queue.  Any refusal completes the request *immediately*
   with a structured, retryability-flagged rejection
   (:mod:`repro.server.errors`) -- overload is answered in microseconds,
   not by unbounded queueing.
2. **Queueing** (:class:`~repro.server.admission.AdmissionController`):
   bounded FIFOs per priority class; same-graph BFS point queries carry a
   coalesce key so the dispatcher drains them together.
3. **Dispatch** (dispatcher thread): expired requests fast-fail as deadline
   misses; requests predicted to miss (remaining budget below the observed
   execution time for their kind), and requests that waited while the door
   was shedding load, are served **degraded** from a matching materialized
   view when one is fresh enough; the rest execute through
   :meth:`~repro.service.TraversalService.submit` with a cooperative
   cancellation checkpoint, so an expired or cancelled request stops
   consuming decode/exchange budget at the next superstep boundary.
4. **Completion**: the terminal outcome lands in the request's
   :class:`Ticket`, the tenant's SLA ledger and latency reservoir, and the
   audit log.

All time is read from one injectable monotonic clock, so deadline and
rate-limit behaviour is deterministic under test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.queries import (
    BFSQuery,
    CCQuery,
    PageRankQuery,
    Query,
    QueryResult,
)
from repro.obs.telemetry import Telemetry
from repro.service.service import ServiceStats, TraversalService
from repro.traversal.msbfs import LANE_WIDTH
from repro.views.base import ViewResult

from repro.server.admission import AdmissionController
from repro.server.audit import AuditLog
from repro.server.deadline import CancelToken, Deadline
from repro.server.errors import (
    Cancelled,
    DeadlineExceeded,
    Failed,
    Overloaded,
    Rejected,
    ServerError,
    ServerResponse,
)
from repro.server.sla import TenantSLA, snapshot_sla
from repro.server.tenants import TenantConfig, TenantRegistry, TenantState


class _Request:
    """One in-flight request's internal state (never leaves the front door)."""

    __slots__ = (
        "request_id", "tenant", "query", "deadline", "token", "priority",
        "coalesce_key", "ticket", "submitted_at", "admitted_at", "started_at",
        "trace_id", "root_span", "queue_span",
    )

    def __init__(
        self,
        request_id: int,
        tenant: TenantState,
        query: Query,
        deadline: Deadline,
        priority: int,
        submitted_at: float,
        root_span,
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.query = query
        self.deadline = deadline
        self.token = CancelToken()
        self.priority = priority
        self.coalesce_key = (
            ("bfs", query.graph) if isinstance(query, BFSQuery) else None
        )
        self.root_span = root_span
        self.trace_id = root_span.trace_id
        #: Queue-wait span, opened at admission and closed when the
        #: dispatcher picks the request up (or at any earlier terminal).
        self.queue_span = None
        self.ticket = Ticket(
            tenant.name, request_id, self.token, trace_id=self.trace_id
        )
        self.submitted_at = submitted_at
        self.admitted_at = submitted_at
        self.started_at = submitted_at


class Ticket:
    """The client's handle on one submitted request.

    A ticket completes exactly once, with a :class:`~repro.server.errors.
    ServerResponse`; :meth:`response` returns it without raising, while
    :meth:`result` raises the taxonomy error for non-``ok`` outcomes.
    Rejected submissions return an already-completed ticket, so callers
    handle admission refusals and execution outcomes through one interface.
    """

    def __init__(
        self,
        tenant: str,
        request_id: int,
        token: CancelToken,
        trace_id: str = "",
    ) -> None:
        self.tenant = tenant
        self.request_id = request_id
        #: The request's trace id (see :mod:`repro.obs`): joins this
        #: ticket to its span tree and audit events.  Empty when the
        #: request was refused before a trace was minted.
        self.trace_id = trace_id
        self._token = token
        self._done = threading.Event()
        self._response: ServerResponse | None = None

    def _complete(self, response: ServerResponse) -> None:
        """Deliver the terminal response (first completion wins)."""
        if not self._done.is_set():
            self._response = response
            self._done.set()

    @property
    def done(self) -> bool:
        """Whether a terminal response has been delivered."""
        return self._done.is_set()

    def cancel(self) -> None:
        """Revoke the request cooperatively.

        Queued requests complete ``cancelled`` when the dispatcher reaches
        them; executing requests observe the token at their next
        checkpoint.  A no-op once the ticket is done.
        """
        self._token.cancel()

    def response(self, timeout: float | None = None) -> ServerResponse:
        """Block for the terminal response.

        Raises :class:`TimeoutError` when ``timeout`` (wall-clock seconds)
        elapses first -- distinct from the request's own deadline, which is
        enforced server-side.
        """
        if not self._done.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request_id} not complete after {timeout}s"
            )
        assert self._response is not None
        return self._response

    def result(self, timeout: float | None = None) -> Any:
        """Block for the answer; raise the taxonomy error on any other outcome.

        Returns the :class:`~repro.service.QueryResult` of a fresh answer,
        or the :class:`~repro.views.ViewResult` of a degraded one (check
        :attr:`~repro.server.errors.ServerResponse.degraded` via
        :meth:`response` to tell them apart).
        """
        response = self.response(timeout)
        if response.ok:
            return response.value
        assert response.error is not None
        raise response.error


@dataclass(frozen=True)
class ServerStats:
    """Aggregate front-door statistics plus per-tenant SLA snapshots.

    Attributes:
        tenants: per-tenant :class:`~repro.server.sla.TenantSLA`, keyed by
            name.
        submitted / admitted: offered vs queued requests, all tenants.
        completed / degraded: fresh vs stale-view answers delivered.
        shed: requests rejected (or evicted) because the bounded queue was
            full -- the load-shedding counter.
        rate_limited / quota_rejected: token-bucket and quota refusals.
        unknown_tenant_rejects: submissions naming no registered tenant.
        deadline_misses / cancelled / failed: the remaining terminal states.
        coalesced_groups / coalesced_requests: dispatch groups that packed
            more than one same-graph BFS request, and the requests they
            carried -- the queue-level MS-BFS coalescing at work.
        queue_depth / queue_capacity: the admission queue now and its bound.
        service: the underlying :class:`~repro.service.ServiceStats` --
            cache, encode, update, shard and view counters ride along so
            one snapshot covers the whole serving stack.
    """

    tenants: dict[str, TenantSLA] = field(default_factory=dict)
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    shed: int = 0
    rate_limited: int = 0
    quota_rejected: int = 0
    unknown_tenant_rejects: int = 0
    deadline_misses: int = 0
    cancelled: int = 0
    failed: int = 0
    coalesced_groups: int = 0
    coalesced_requests: int = 0
    queue_depth: int = 0
    queue_capacity: int = 0
    service: ServiceStats | None = None


class FrontDoor:
    """Admission-controlled, deadline-aware request tier over one service.

    Args:
        service: the :class:`~repro.service.TraversalService` to front.
            Graphs (and any views used for degradation) are registered on
            the service as usual; the front door only adds the request
            plane.
        queue_capacity: bound of the admission queue -- the knob trading
            queueing latency against shed rate under overload.
        dispatchers: dispatcher threads executing dequeued work (the
            service serializes execution internally; extra dispatchers only
            overlap bookkeeping, so 1 is the deterministic default).
        default_deadline: per-request deadline in seconds applied when
            neither the request nor its tenant specifies one (``None`` =
            no deadline).
        degraded_staleness: staleness budget, in logical update epochs, for
            serving matching materialized-view answers when fresh
            computation is predicted to miss the deadline; ``None``
            disables degradation.
        clock: monotonic clock shared by deadlines, buckets and the audit
            log (injectable for deterministic tests).
        audit_capacity: audit-log ring size.
        audit_sink: optional callback tailing every audit event.
        reservoir_capacity: per-tenant latency-reservoir size.
        telemetry: the :class:`~repro.obs.Telemetry` bundle to record
            into; defaults to the *service's* bundle so one telemetry
            object (passed at service construction) covers the whole
            stack.  Every submission mints a ``trace_id`` at admission,
            threaded through the ticket, the audit log and the response;
            sampled requests additionally record a span tree (admission,
            queue wait, execution supersteps, response).
    """

    #: Dispatcher poll interval while idle (seconds); bounds shutdown lag.
    _IDLE_WAIT = 0.05

    def __init__(
        self,
        service: TraversalService,
        queue_capacity: int = 64,
        dispatchers: int = 1,
        default_deadline: float | None = None,
        degraded_staleness: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        audit_capacity: int = 1024,
        audit_sink: Callable | None = None,
        reservoir_capacity: int = 1024,
        telemetry: Telemetry | None = None,
    ) -> None:
        if dispatchers <= 0:
            raise ValueError(f"dispatchers must be > 0, got {dispatchers}")
        self.service = service
        self.clock = clock
        self.default_deadline = default_deadline
        self.degraded_staleness = degraded_staleness
        if telemetry is None:
            telemetry = getattr(service, "telemetry", None)
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry.disabled()
        )
        self.tracer = self.telemetry.tracer
        self.tenants = TenantRegistry(
            clock=clock, reservoir_capacity=reservoir_capacity
        )
        self.admission = AdmissionController(
            capacity=queue_capacity, coalesce_width=LANE_WIDTH
        )
        self.audit = AuditLog(
            capacity=audit_capacity, clock=clock, sink=audit_sink
        )
        self._request_seq = 0
        self._unknown_tenant_rejects = 0
        self._coalesced_groups = 0
        self._coalesced_requests = 0
        #: Exponential moving average of fresh execution seconds per query
        #: kind -- the miss predictor behind degraded serving.
        self._exec_ema: dict[str, float] = {}
        #: Clock time of the most recent load shed (full queue or priority
        #: eviction); ``None`` until the door first sheds.
        self._shed_at: float | None = None
        self._lock = threading.Lock()
        self._closing = False
        #: The attached maintenance scheduler (None until
        #: :meth:`attach_maintenance`); ticked by idle dispatchers.
        self._maintenance = None
        #: Run counter of idle maintenance ticks (exported as a metric).
        self._maintenance_ticks = 0
        # At most one dispatcher runs maintenance at a time; the others
        # keep polling the queue so foreground latency is unaffected.
        self._maintenance_mutex = threading.Lock()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"frontdoor-dispatch-{index}",
                daemon=True,
            )
            for index in range(dispatchers)
        ]
        self._bind_metrics()
        for thread in self._dispatchers:
            thread.start()

    # -- telemetry wiring -------------------------------------------------------

    def _bind_metrics(self) -> None:
        """Register the front door's own instruments into the registry.

        This publishes the state the door previously kept private: live
        queue depth, coalescing totals, and the per-kind execution-seconds
        EMA behind the degradation predictor.  Per-tenant instruments bind
        at :meth:`register_tenant`.
        """
        metrics = self.telemetry.metrics
        metrics.gauge(
            "frontdoor_queue_depth",
            "Requests waiting in the admission queue.",
        ).set_function(self.admission.depth)
        metrics.gauge(
            "frontdoor_queue_capacity",
            "Bound of the admission queue.",
        ).set(float(self.admission.capacity))
        metrics.counter(
            "frontdoor_unknown_tenant_rejects_total",
            "Submissions naming no registered tenant.",
        ).set_function(lambda: self._unknown_tenant_rejects)
        metrics.counter(
            "frontdoor_coalesced_groups_total",
            "Dispatch groups that packed more than one BFS request.",
        ).set_function(lambda: self._coalesced_groups)
        metrics.counter(
            "frontdoor_coalesced_requests_total",
            "Requests carried by coalesced dispatch groups.",
        ).set_function(lambda: self._coalesced_requests)
        metrics.counter(
            "frontdoor_maintenance_ticks_total",
            "Maintenance ticks run by idle dispatchers.",
        ).set_function(lambda: self._maintenance_ticks)
        self._ema_gauge = metrics.gauge(
            "frontdoor_exec_ema_seconds",
            "EMA of fresh execution seconds per query kind -- the "
            "degradation predictor.",
            labels=("kind",),
        )
        self._latency_hist = metrics.histogram(
            "frontdoor_request_seconds",
            "End-to-end latency of answered (fresh or degraded) requests.",
            labels=("tenant",),
        )

    def _bind_tenant_metrics(self, state: TenantState) -> None:
        """Bind one tenant's ledger, bucket and reservoir into the registry.

        All callback-backed: the instruments read the same live
        :class:`~repro.server.sla.TenantCounters`, token bucket and
        :class:`~repro.server.sla.LatencyReservoir` the SLA snapshots are
        built from, so the two surfaces cannot drift.
        """
        metrics = self.telemetry.metrics
        counters = state.counters
        reservoir = state.reservoir
        outcomes = metrics.counter(
            "frontdoor_requests_total",
            "Per-tenant request outcomes (live SLA-ledger reads).",
            labels=("tenant", "outcome"),
        )
        for outcome in (
            "submitted", "admitted", "completed", "degraded", "shed",
            "rate_limited", "quota_rejected", "deadline_misses",
            "cancelled", "failed",
        ):
            outcomes.set_function(
                (lambda name: lambda: getattr(counters, name))(outcome),
                tenant=state.name, outcome=outcome,
            )
        metrics.counter(
            "frontdoor_quota_used_total",
            "Admission units charged against the tenant quota.",
            labels=("tenant",),
        ).set_function(lambda: counters.quota_used, tenant=state.name)
        metrics.gauge(
            "frontdoor_tenant_tokens",
            "Tokens currently available in the tenant's bucket.",
            labels=("tenant",),
        ).set_function(lambda: state.bucket.tokens, tenant=state.name)
        quantiles = metrics.gauge(
            "frontdoor_latency_quantile_seconds",
            "Answered-request latency quantiles over the reservoir window.",
            labels=("tenant", "quantile"),
        )
        for quantile in (0.5, 0.95, 0.99):
            quantiles.set_function(
                (lambda q: lambda: reservoir.percentile(q))(quantile),
                tenant=state.name, quantile=f"{quantile:g}",
            )
        metrics.counter(
            "frontdoor_latency_observations_total",
            "Answered-request latency observations ever recorded.",
            labels=("tenant",),
        ).set_function(lambda: reservoir.count, tenant=state.name)

    def _close_trace(self, request: _Request, status: str, **attrs) -> None:
        """Finish a request's span tree with its terminal outcome.

        Called from every terminal path -- fresh, degraded, shed, missed,
        cancelled, failed, shutdown-drained -- so an admitted request's
        trace is always complete: any still-open queue-wait span is
        closed, a ``response`` child records the outcome, and finishing
        the root stores the tree in the tracer (retrievable by
        ``trace_id``).
        """
        queue_span = request.queue_span
        if queue_span is not None and not queue_span.ended:
            queue_span.finish()
        root = request.root_span
        root.child("response", status=status, **attrs).finish()
        root.annotate(status=status)
        root.finish(status)

    # -- tenant management -----------------------------------------------------

    def register_tenant(
        self,
        name: str,
        rate: float | None = None,
        burst: float | None = None,
        priority: int = 1,
        quota: int | None = None,
        default_deadline: float | None = None,
    ) -> TenantConfig:
        """Register a tenant with its admission policy; returns the config.

        See :class:`~repro.server.tenants.TenantConfig` for the knobs.
        Duplicate names raise :class:`ValueError`.
        """
        config = TenantConfig(
            name=name, rate=rate, burst=burst, priority=priority,
            quota=quota, default_deadline=default_deadline,
        )
        self.tenants.register(config)
        state = self.tenants.get(name)
        assert state is not None
        self._bind_tenant_metrics(state)
        return config

    # -- submission (admission control) ----------------------------------------

    def submit(
        self,
        tenant: str,
        query: Query,
        deadline: float | None = None,
        priority: int | None = None,
    ) -> Ticket:
        """Offer one query; returns a :class:`Ticket`, never blocks on load.

        Admission refusals (unknown tenant, rate limit, quota, full queue,
        shutdown) complete the ticket immediately with the structured
        rejection -- inspect :meth:`Ticket.response` for the reason,
        retryability and ``retry_after`` hint.  Malformed queries (unknown
        type, unregistered graph, out-of-range source) raise immediately in
        the caller's thread: they are programming errors, not load.

        ``deadline`` is a budget in seconds from now (falling back to the
        tenant's ``default_deadline``, then the front door's); ``priority``
        overrides the tenant's queue class for this request.
        """
        now = self.clock()
        with self._lock:
            self._request_seq += 1
            request_id = self._request_seq
        root = self.tracer.start_trace(
            "request", tenant=tenant, request_id=request_id,
            kind=type(query).__name__,
        )
        state = self.tenants.get(tenant)
        if state is None:
            self._unknown_tenant_rejects += 1
            self.audit.record(
                "rejected", tenant, request_id,
                trace_id=root.trace_id, reason="unknown_tenant",
            )
            return self._rejected_ticket(
                tenant, request_id,
                Rejected(
                    f"tenant {tenant!r} is not registered",
                    reason="unknown_tenant",
                ),
                now,
                root=root,
            )
        try:
            self._validate_query(query)
        except Exception as error:
            root.annotate(error=type(error).__name__)
            root.finish("invalid")
            raise
        state.counters.submitted += 1
        self.audit.record(
            "submitted", tenant, request_id,
            trace_id=root.trace_id, kind=type(query).__name__,
        )

        budget = deadline
        if budget is None:
            budget = state.config.default_deadline
        if budget is None:
            budget = self.default_deadline
        request = _Request(
            request_id=request_id,
            tenant=state,
            query=query,
            deadline=Deadline.after(budget, self.clock),
            priority=(
                priority if priority is not None else state.config.priority
            ),
            submitted_at=now,
            root_span=root,
        )

        admission_span = root.child("admission", priority=request.priority)
        with self._lock:
            if self._closing:
                rejection: Rejected = Rejected(
                    "front door is shutting down", reason="shutdown"
                )
            elif not state.bucket.try_acquire():
                state.counters.rate_limited += 1
                rejection = Rejected(
                    f"tenant {tenant!r} exceeded its "
                    f"{state.config.rate}/s rate",
                    reason="rate_limited",
                    retry_after=state.bucket.retry_after(),
                )
            elif not state.charge_quota():
                state.counters.quota_rejected += 1
                rejection = Rejected(
                    f"tenant {tenant!r} exhausted its quota of "
                    f"{state.config.quota} requests",
                    reason="quota_exhausted",
                )
            else:
                admitted, evicted = self.admission.offer(request)
                if not admitted:
                    state.counters.shed += 1
                    self._shed_at = now
                    rejection = Overloaded(
                        f"admission queue full "
                        f"({self.admission.capacity} waiting)",
                        queue_depth=self.admission.capacity,
                        queue_capacity=self.admission.capacity,
                        retry_after=self._drain_estimate(),
                    )
                else:
                    state.counters.admitted += 1
                    request.admitted_at = now
                    admission_span.annotate(
                        outcome="admitted",
                        queue_depth=self.admission.depth(),
                    )
                    admission_span.finish()
                    request.queue_span = root.child("queue")
                    self.audit.record(
                        "admitted", tenant, request_id,
                        trace_id=root.trace_id,
                        queue_depth=self.admission.depth(),
                        priority=request.priority,
                    )
                    if evicted is not None:
                        self._shed_evicted(evicted)
                    return request.ticket
        admission_span.annotate(outcome=rejection.reason)
        admission_span.finish()
        self.audit.record(
            "rejected", tenant, request_id,
            trace_id=root.trace_id, reason=rejection.reason,
        )
        return self._rejected_ticket(
            tenant, request_id, rejection, now, root=root
        )

    def call(
        self,
        tenant: str,
        query: Query,
        deadline: float | None = None,
        priority: int | None = None,
        timeout: float | None = None,
    ) -> ServerResponse:
        """Submit and block for the structured response (see :meth:`submit`)."""
        return self.submit(
            tenant, query, deadline=deadline, priority=priority
        ).response(timeout)

    def _validate_query(self, query: Query) -> None:
        """Reject malformed queries in the caller's thread, pre-admission.

        Mirrors the service's own admission checks (unsupported type ->
        :class:`TypeError`, unknown graph -> :class:`KeyError`, bad source
        -> :class:`IndexError`) so client bugs surface at submission, not
        as ``Failed`` responses minutes later.
        """
        if not isinstance(query, Query.__args__):  # type: ignore[attr-defined]
            raise TypeError(
                f"unsupported query type {type(query).__name__}"
            )
        entry = self.service.registry.resolve(query.graph)
        source = getattr(query, "source", None)
        if source is not None and not 0 <= source < entry.num_nodes:
            raise IndexError(
                f"source {source} out of range [0, {entry.num_nodes})"
            )

    def _rejected_ticket(
        self,
        tenant: str,
        request_id: int,
        error: Rejected,
        submitted_at: float,
        root=None,
    ) -> Ticket:
        """An already-completed ticket carrying an admission rejection.

        When the rejection happened after trace minting, ``root`` closes
        here with the refusal reason so even rejected submissions leave a
        retrievable (if tiny) trace.
        """
        trace_id = "" if root is None else root.trace_id
        if root is not None:
            root.child(
                "response", status="rejected", reason=error.reason
            ).finish()
            root.annotate(status="rejected", reason=error.reason)
            root.finish("rejected")
        ticket = Ticket(tenant, request_id, CancelToken(), trace_id=trace_id)
        ticket._complete(
            ServerResponse(
                status="rejected",
                tenant=tenant,
                error=error,
                retryable=error.retryable,
                retry_after=error.retry_after,
                total_seconds=self.clock() - submitted_at,
                request_id=request_id,
                trace_id=trace_id,
            )
        )
        return ticket

    def _shed_evicted(self, request: _Request) -> None:
        """Complete a queue-evicted request as shed (priority displacement)."""
        request.tenant.counters.shed += 1
        request.tenant.counters.admitted -= 1
        self._shed_at = self.clock()
        self.audit.record(
            "rejected", request.tenant.name, request.request_id,
            trace_id=request.trace_id,
            reason="queue_full", evicted_by_priority=True,
        )
        self._close_trace(request, "rejected", reason="queue_full")
        request.ticket._complete(
            ServerResponse(
                status="rejected",
                tenant=request.tenant.name,
                error=Overloaded(
                    "evicted from the admission queue by "
                    "higher-priority work",
                    queue_depth=self.admission.depth(),
                    queue_capacity=self.admission.capacity,
                    retry_after=self._drain_estimate(),
                ),
                retryable=True,
                retry_after=self._drain_estimate(),
                queue_seconds=self.clock() - request.admitted_at,
                total_seconds=self.clock() - request.submitted_at,
                request_id=request.request_id,
                trace_id=request.trace_id,
            )
        )

    def _drain_estimate(self) -> float | None:
        """Seconds until the queue likely has room, from the execution EMA."""
        if not self._exec_ema:
            return None
        mean = sum(self._exec_ema.values()) / len(self._exec_ema)
        return self.admission.depth() * mean

    # -- background maintenance ------------------------------------------------

    def attach_maintenance(self, scheduler) -> None:
        """Run lifecycle maintenance in the gaps between request waves.

        ``scheduler`` is a :class:`~repro.lifecycle.MaintenanceScheduler`
        (typically from :meth:`~repro.service.TraversalService.
        enable_maintenance`).  Whenever a dispatcher's queue poll comes back
        empty, it runs **one** maintenance tick with a ``should_yield``
        that fires as soon as a request is admitted or shutdown starts --
        so compaction, rebase and snapshot/GC happen strictly between
        queries and never block a read for more than one bounded step.
        Pass ``None`` to detach.
        """
        self._maintenance = scheduler

    def _maintenance_should_yield(self) -> bool:
        """Foreground work (or shutdown) wants the dispatcher back."""
        return self._closing or self.admission.depth() > 0

    def _run_maintenance_tick(self) -> None:
        """One idle-time maintenance tick, single-flighted across dispatchers.

        Maintenance errors are contained here (counted via the scheduler's
        own telemetry spans): a failing snapshot directory must not take
        the dispatcher thread -- and with it the whole front door -- down.
        """
        scheduler = self._maintenance
        if scheduler is None or self._closing:
            return
        if not self._maintenance_mutex.acquire(blocking=False):
            return
        try:
            self._maintenance_ticks += 1
            scheduler.tick(should_yield=self._maintenance_should_yield)
        except Exception:  # noqa: BLE001 - maintenance must not kill dispatch
            pass
        finally:
            self._maintenance_mutex.release()

    # -- dispatch --------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Dispatcher thread: drain the admission queue until closed.

        An empty poll means the door is idle; with a maintenance scheduler
        attached (:meth:`attach_maintenance`) the dispatcher spends that
        gap on one bounded maintenance tick instead of sleeping again.
        """
        while True:
            group = self.admission.take(timeout=self._IDLE_WAIT)
            if not group:
                if self._closing and self.admission.depth() == 0:
                    return
                self._run_maintenance_tick()
                continue
            self._execute_group(group)

    def _execute_group(self, group: list[_Request]) -> None:
        """Run one dispatch group, completing every request exactly once."""
        if len(group) > 1:
            self._coalesced_groups += 1
            self._coalesced_requests += len(group)
        live: list[_Request] = []
        for request in group:
            if request.token.cancelled:
                self._finish_cancelled(request)
            elif request.deadline.expired:
                self._finish_missed(request, where="queued")
            elif self._should_degrade(request) and self._try_degrade(request):
                pass
            else:
                live.append(request)
        if not live:
            return

        now = self.clock()
        for request in live:
            request.started_at = now
            queue_span = request.queue_span
            if queue_span is not None and not queue_span.ended:
                queue_span.finish()
            self.audit.record(
                "started", request.tenant.name, request.request_id,
                trace_id=request.trace_id,
                queue_seconds=now - request.admitted_at,
                group=len(group),
            )

        # One shared execution span, recorded under the group leader's
        # trace; a coalesced group links every lane to it -- the leader's
        # tree carries per-lane children naming each member's trace, and
        # each non-leader's tree carries an ``execute`` marker naming the
        # shared (leader's) trace, so the join works from either end.
        leader = live[0]
        exec_span = leader.root_span.child(
            "execute", group=len(live), coalesced=len(live) > 1,
        )
        link_spans = []
        if len(live) > 1:
            for lane, request in enumerate(live):
                exec_span.child(
                    "lane", lane=lane, trace=request.trace_id,
                    tenant=request.tenant.name,
                ).finish()
                if request is not leader:
                    link_spans.append(request.root_span.child(
                        "execute", shared=True,
                        shared_trace=leader.trace_id, lane=lane,
                    ))
        checkpoint = self._group_checkpoint(live)
        try:
            with exec_span:
                results = self.service.submit(
                    [request.query for request in live],
                    checkpoint=checkpoint,
                )
        except (DeadlineExceeded, Cancelled):
            # The group checkpoint fires only when no member still wants
            # the answer; complete each by its own terminal cause.
            for request in live:
                if request.token.cancelled:
                    self._finish_cancelled(request)
                else:
                    self._finish_missed(request, where="mid-flight")
        except Exception as error:  # noqa: BLE001 - taxonomy boundary
            for request in live:
                self._finish_failed(request, error)
        else:
            for request, result in zip(live, results):
                if request.token.cancelled:
                    self._finish_cancelled(request)
                elif request.deadline.expired:
                    self._finish_missed(request, where="completed-late")
                else:
                    self._finish_ok(request, result)
        finally:
            for link in link_spans:
                link.finish(exec_span.status)

    @staticmethod
    def _group_checkpoint(live: list[_Request]) -> Callable[[], None]:
        """A checkpoint that fires once *every* group member is dead.

        A shared MS-BFS sweep serves many requests at once, so one expired
        lane must not cancel work its groupmates still need; only when no
        member can use the answer does the sweep stop consuming budget.
        For singleton groups this degenerates to the request's own
        deadline/cancel probe.
        """

        def checkpoint() -> None:
            for request in live:
                if not request.token.cancelled and not request.deadline.expired:
                    return
            if all(request.token.cancelled for request in live):
                raise Cancelled("every request in the group was cancelled")
            raise DeadlineExceeded(
                "every live request in the group exceeded its deadline"
            )

        return checkpoint

    # -- degradation -----------------------------------------------------------

    def _should_degrade(self, request: _Request) -> bool:
        """Whether to serve ``request`` from a view instead of fresh.

        Two triggers.  The door shed load while the request waited: demand
        exceeds capacity, so a fresh sweep would only lengthen the queue
        every waiting request pays for.  Or fresh execution is predicted to
        blow the request's own deadline, from the per-kind
        execution-seconds EMA; with no deadline or no observations yet,
        that predicts a hit (run fresh).
        """
        shed_at = self._shed_at
        if shed_at is not None and shed_at > request.submitted_at:
            return True
        remaining = request.deadline.remaining()
        if remaining is None:
            return False
        ema = self._exec_ema.get(self._kind_of(request.query))
        if ema is None:
            return False
        return remaining < ema

    def _try_degrade(self, request: _Request) -> bool:
        """Serve a matching view's (possibly stale) answer, if allowed.

        Returns ``True`` when a degraded response was delivered.  Requires
        ``degraded_staleness`` to be set, a registered view matching the
        query (same graph; same source for BFS/PageRank), and the view's
        staleness within the budget.
        """
        if self.degraded_staleness is None:
            return False
        query = request.query
        if isinstance(query, BFSQuery):
            kind, match = "khop", {"source": query.source}
        elif isinstance(query, CCQuery):
            kind, match = "cc", {}
        elif isinstance(query, PageRankQuery):
            kind, match = "pagerank", {"source": query.source}
        else:
            return False
        name = self.service.views.find(query.graph, kind, match)
        if name is None:
            return False
        view_result = self.service.views.peek(name)
        if view_result.staleness > self.degraded_staleness:
            return False
        request.root_span.child(
            "degrade", view=name, staleness=view_result.staleness,
        ).finish()
        self._finish_degraded(request, view_result)
        return True

    # -- completion ------------------------------------------------------------

    @staticmethod
    def _kind_of(query: Query) -> str:
        """The EMA bucket for a query (its type name)."""
        return type(query).__name__

    def _observe_exec(self, request: _Request, seconds: float) -> None:
        """Fold one fresh execution time into the per-kind EMA."""
        kind = self._kind_of(request.query)
        previous = self._exec_ema.get(kind)
        self._exec_ema[kind] = (
            seconds if previous is None else 0.8 * previous + 0.2 * seconds
        )
        self._ema_gauge.set(self._exec_ema[kind], kind=kind)

    def _finish(
        self, request: _Request, response: ServerResponse
    ) -> None:
        """Deliver the terminal response to the request's ticket."""
        request.ticket._complete(response)

    def _latencies(self, request: _Request) -> tuple[float, float]:
        """(queue_seconds, total_seconds) for a terminating request."""
        now = self.clock()
        return (
            max(0.0, request.started_at - request.admitted_at),
            max(0.0, now - request.submitted_at),
        )

    def _finish_ok(self, request: _Request, result: QueryResult) -> None:
        """Complete a fresh answer: SLA record, EMA update, audit."""
        queue_seconds, total_seconds = self._latencies(request)
        self._observe_exec(
            request, max(0.0, self.clock() - request.started_at)
        )
        request.tenant.counters.completed += 1
        request.tenant.reservoir.record(total_seconds)
        self._latency_hist.observe(total_seconds, tenant=request.tenant.name)
        self.audit.record(
            "completed", request.tenant.name, request.request_id,
            trace_id=request.trace_id, seconds=total_seconds,
        )
        self._close_trace(
            request, "ok",
            queue_seconds=queue_seconds, total_seconds=total_seconds,
        )
        self._finish(
            request,
            ServerResponse(
                status="ok",
                tenant=request.tenant.name,
                value=result,
                queue_seconds=queue_seconds,
                total_seconds=total_seconds,
                request_id=request.request_id,
                trace_id=request.trace_id,
            ),
        )

    def _finish_degraded(
        self, request: _Request, view_result: ViewResult
    ) -> None:
        """Complete from a stale view: still an answer, flagged degraded."""
        queue_seconds, total_seconds = self._latencies(request)
        request.tenant.counters.degraded += 1
        request.tenant.reservoir.record(total_seconds)
        self._latency_hist.observe(total_seconds, tenant=request.tenant.name)
        self.audit.record(
            "degraded", request.tenant.name, request.request_id,
            trace_id=request.trace_id,
            view=view_result.name, staleness=view_result.staleness,
        )
        self._close_trace(
            request, "ok",
            degraded=True, staleness=view_result.staleness,
            total_seconds=total_seconds,
        )
        self._finish(
            request,
            ServerResponse(
                status="ok",
                tenant=request.tenant.name,
                value=view_result,
                degraded=True,
                staleness=view_result.staleness,
                queue_seconds=queue_seconds,
                total_seconds=total_seconds,
                request_id=request.request_id,
                trace_id=request.trace_id,
            ),
        )

    def _finish_missed(self, request: _Request, where: str) -> None:
        """Complete as a deadline miss (queued, mid-flight or late)."""
        queue_seconds, total_seconds = self._latencies(request)
        request.tenant.counters.deadline_misses += 1
        self.audit.record(
            "deadline_miss", request.tenant.name, request.request_id,
            trace_id=request.trace_id, where=where, seconds=total_seconds,
        )
        error = DeadlineExceeded(
            f"request {request.request_id} exceeded its deadline ({where})"
        )
        self._close_trace(request, "deadline_exceeded", where=where)
        self._finish(
            request,
            ServerResponse(
                status="deadline_exceeded",
                tenant=request.tenant.name,
                error=error,
                retryable=True,
                queue_seconds=queue_seconds,
                total_seconds=total_seconds,
                request_id=request.request_id,
                trace_id=request.trace_id,
            ),
        )

    def _finish_cancelled(self, request: _Request) -> None:
        """Complete as client-cancelled."""
        queue_seconds, total_seconds = self._latencies(request)
        request.tenant.counters.cancelled += 1
        self.audit.record(
            "cancelled", request.tenant.name, request.request_id,
            trace_id=request.trace_id,
        )
        self._close_trace(request, "cancelled")
        self._finish(
            request,
            ServerResponse(
                status="cancelled",
                tenant=request.tenant.name,
                error=Cancelled(
                    f"request {request.request_id} was cancelled"
                ),
                queue_seconds=queue_seconds,
                total_seconds=total_seconds,
                request_id=request.request_id,
                trace_id=request.trace_id,
            ),
        )

    def _finish_failed(self, request: _Request, cause: Exception) -> None:
        """Complete as failed, wrapping the execution error."""
        queue_seconds, total_seconds = self._latencies(request)
        request.tenant.counters.failed += 1
        self.audit.record(
            "failed", request.tenant.name, request.request_id,
            trace_id=request.trace_id, error=repr(cause),
        )
        error = Failed(f"query execution raised: {cause!r}")
        error.__cause__ = cause
        self._close_trace(request, "failed", error=repr(cause))
        self._finish(
            request,
            ServerResponse(
                status="failed",
                tenant=request.tenant.name,
                error=error,
                queue_seconds=queue_seconds,
                total_seconds=total_seconds,
                request_id=request.request_id,
                trace_id=request.trace_id,
            ),
        )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> ServerStats:
        """One snapshot of the whole serving stack's health.

        Per-tenant SLA snapshots (p50/p95/p99 latency, outcome ledgers),
        the front door's aggregate admission/outcome counters, the live
        queue depth, and the underlying service's
        :class:`~repro.service.ServiceStats`.
        """
        tenants = {
            state.name: snapshot_sla(
                state.name, state.counters, state.reservoir
            )
            for state in self.tenants.states()
        }
        totals = {
            field_name: sum(
                getattr(sla.counters, field_name) for sla in tenants.values()
            )
            for field_name in (
                "submitted", "admitted", "completed", "degraded", "shed",
                "rate_limited", "quota_rejected", "deadline_misses",
                "cancelled", "failed",
            )
        }
        return ServerStats(
            tenants=tenants,
            unknown_tenant_rejects=self._unknown_tenant_rejects,
            coalesced_groups=self._coalesced_groups,
            coalesced_requests=self._coalesced_requests,
            queue_depth=self.admission.depth(),
            queue_capacity=self.admission.capacity,
            service=self.service.stats(),
            **totals,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop admitting, drain the queue as shutdown rejections, join.

        Queued-but-undispatched requests complete ``rejected`` with reason
        ``"shutdown"``; dispatcher threads are joined up to ``timeout``
        seconds each.  The underlying service is left open (the front door
        does not own it).  Idempotent.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self.admission.close()
        for request in self.admission.drain():
            request.tenant.counters.admitted -= 1
            self.audit.record(
                "rejected", request.tenant.name, request.request_id,
                trace_id=request.trace_id, reason="shutdown",
            )
            self._close_trace(request, "rejected", reason="shutdown")
            self._finish(
                request,
                ServerResponse(
                    status="rejected",
                    tenant=request.tenant.name,
                    error=Rejected(
                        "front door shut down before dispatch",
                        reason="shutdown",
                    ),
                    total_seconds=self.clock() - request.submitted_at,
                    request_id=request.request_id,
                    trace_id=request.trace_id,
                ),
            )
        for thread in self._dispatchers:
            thread.join(timeout=timeout)

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["FrontDoor", "ServerStats", "Ticket"]
