"""Front-door tests: admission, deadlines, degradation, SLA, audit.

Unit layers (token buckets, admission queues, deadlines, reservoirs, audit
ring) run on injected fake clocks so every rate/deadline decision is
deterministic.  Integration layers drive a real :class:`~repro.server.
FrontDoor` over a real :class:`~repro.service.TraversalService`, using a
gateable service wrapper to freeze the dispatcher at will -- which makes
queue-full shedding, priority eviction, queue-coalescing and shutdown
draining exact assertions instead of timing-dependent ones.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.graph.generators import web_locality_graph
from repro.service import BFSQuery, CCQuery, PageRankQuery, TraversalService
from repro.server import (
    AdmissionController,
    AuditLog,
    CancelToken,
    Cancelled,
    Deadline,
    DeadlineExceeded,
    FrontDoor,
    LatencyReservoir,
    Overloaded,
    Rejected,
    ServerResponse,
    TenantConfig,
    TenantRegistry,
    TokenBucket,
    make_checkpoint,
    snapshot_sla,
)
from repro.server.sla import TenantCounters


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _Entry:
    """Minimal queue entry: the two attributes the controller reads."""

    def __init__(self, name, priority=1, coalesce_key=None):
        self.name = name
        self.priority = priority
        self.coalesce_key = coalesce_key

    def __repr__(self):
        return f"_Entry({self.name})"


# ---------------------------------------------------------------------------
# Token buckets and tenant registry
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_unlimited_bucket_always_admits(self):
        bucket = TokenBucket(rate=None, clock=FakeClock())
        assert all(bucket.try_acquire() for _ in range(1000))
        assert bucket.retry_after() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError, match="capacity"):
            TokenBucket(rate=1.0, capacity=-1.0)


class TestTenantRegistry:
    def test_duplicate_name_rejected(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register(TenantConfig("a"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(TenantConfig("a", rate=5.0))
        assert registry.names() == ["a"]

    def test_quota_burn_down(self):
        registry = TenantRegistry(clock=FakeClock())
        state = registry.register(TenantConfig("a", quota=2))
        assert state.quota_remaining == 2
        assert state.charge_quota() and state.charge_quota()
        assert not state.charge_quota()
        assert state.quota_remaining == 0

    def test_validation(self):
        registry = TenantRegistry(clock=FakeClock())
        with pytest.raises(ValueError, match="priority"):
            registry.register(TenantConfig("a", priority=-1))
        with pytest.raises(ValueError, match="quota"):
            registry.register(TenantConfig("b", quota=-5))


# ---------------------------------------------------------------------------
# Admission controller
# ---------------------------------------------------------------------------

class TestAdmissionController:
    def test_fifo_within_class_priority_across(self):
        queue = AdmissionController(capacity=8)
        for entry in (
            _Entry("bg1", 2), _Entry("fg1", 0), _Entry("bg2", 2),
            _Entry("fg2", 0),
        ):
            assert queue.offer(entry) == (True, None)
        order = [queue.take(timeout=0)[0].name for _ in range(4)]
        assert order == ["fg1", "fg2", "bg1", "bg2"]

    def test_full_queue_refuses_equal_priority(self):
        queue = AdmissionController(capacity=2)
        assert queue.offer(_Entry("a", 1))[0]
        assert queue.offer(_Entry("b", 1))[0]
        admitted, evicted = queue.offer(_Entry("c", 1))
        assert not admitted and evicted is None
        assert queue.depth() == 2

    def test_higher_priority_evicts_newest_lowest(self):
        queue = AdmissionController(capacity=3)
        for entry in (_Entry("bg1", 2), _Entry("bg2", 2), _Entry("fg1", 1)):
            queue.offer(entry)
        admitted, evicted = queue.offer(_Entry("vip", 0))
        assert admitted and evicted.name == "bg2"  # newest of lowest class
        assert queue.depth() == 3
        assert queue.take(timeout=0)[0].name == "vip"

    def test_coalescing_gathers_same_key_across_classes(self):
        queue = AdmissionController(capacity=8, coalesce_width=3)
        for entry in (
            _Entry("b1", 1, coalesce_key="g"),
            _Entry("other", 1),
            _Entry("b2", 2, coalesce_key="g"),
            _Entry("b3", 1, coalesce_key="g"),
            _Entry("b4", 1, coalesce_key="g"),
        ):
            queue.offer(entry)
        group = queue.take(timeout=0)
        # Head plus same-key entries, priority order, capped at width.
        assert [e.name for e in group] == ["b1", "b3", "b4"]
        assert [e.name for e in queue.take(timeout=0)] == ["other"]
        assert [e.name for e in queue.take(timeout=0)] == ["b2"]

    def test_close_refuses_and_drains(self):
        queue = AdmissionController(capacity=4)
        queue.offer(_Entry("a"))
        queue.offer(_Entry("b"))
        queue.close()
        assert queue.offer(_Entry("c")) == (False, None)
        assert [e.name for e in queue.drain()] == ["a", "b"]
        assert queue.depth() == 0
        assert queue.take(timeout=0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionController(capacity=0)
        with pytest.raises(ValueError, match="width"):
            AdmissionController(coalesce_width=0)


# ---------------------------------------------------------------------------
# Deadlines, cancellation, checkpoints
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_expiry_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(2.5)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_no_deadline_never_expires(self):
        deadline = Deadline.after(None, FakeClock())
        assert not deadline.expired
        assert deadline.remaining() is None

    def test_checkpoint_raises_taxonomy_errors(self):
        clock = FakeClock()
        token = CancelToken()
        checkpoint = make_checkpoint(Deadline.after(1.0, clock), token)
        checkpoint()  # healthy: no raise
        clock.advance(1.5)
        with pytest.raises(DeadlineExceeded):
            checkpoint()
        token.cancel()  # cancellation wins over expiry
        with pytest.raises(Cancelled):
            checkpoint()


# ---------------------------------------------------------------------------
# SLA reservoirs and audit log
# ---------------------------------------------------------------------------

class TestSLA:
    def test_reservoir_percentiles_and_ring(self):
        reservoir = LatencyReservoir(capacity=100)
        for value in range(1, 101):
            reservoir.record(value / 100.0)
        assert reservoir.percentile(0.50) == pytest.approx(0.51)
        assert reservoir.percentile(0.99) == pytest.approx(1.00)
        for _ in range(100):
            reservoir.record(5.0)  # overwrite the window
        assert reservoir.percentile(0.50) == 5.0
        assert reservoir.count == 200

    def test_empty_reservoir_reports_zero(self):
        reservoir = LatencyReservoir()
        assert reservoir.percentile(0.99) == 0.0
        with pytest.raises(ValueError):
            reservoir.percentile(1.5)

    def test_snapshot_is_frozen_copy(self):
        counters = TenantCounters(submitted=4, completed=2, degraded=1)
        reservoir = LatencyReservoir()
        reservoir.record(0.2)
        sla = snapshot_sla("t", counters, reservoir)
        counters.completed = 99
        assert sla.counters.completed == 2
        assert sla.goodput_fraction == pytest.approx(3 / 4)
        assert sla.p50 == pytest.approx(0.2)


class TestAuditLog:
    def test_ring_bound_and_filters(self):
        clock = FakeClock()
        log = AuditLog(capacity=3, clock=clock)
        for index in range(5):
            clock.advance(1.0)
            log.record("submitted", f"t{index % 2}", index)
        assert len(log) == 3
        events = log.events()
        assert [e.request_id for e in events] == [2, 3, 4]
        assert [e.seq for e in events] == [3, 4, 5]
        assert [e.request_id for e in log.events(tenant="t0")] == [2, 4]
        assert log.events(event="completed") == []

    def test_sink_tails_events(self):
        seen = []
        log = AuditLog(clock=FakeClock(), sink=seen.append)
        log.record("submitted", "t", 1, kind="BFSQuery")
        assert seen[0].detail == {"kind": "BFSQuery"}
        with pytest.raises(ValueError, match="unknown audit event"):
            log.record("exploded", "t", 2)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class TestErrors:
    def test_retryability_flags(self):
        assert Rejected("x", reason="rate_limited").retryable
        assert Rejected("x", reason="queue_full").retryable
        assert not Rejected("x", reason="unknown_tenant").retryable
        assert not Rejected("x", reason="quota_exhausted").retryable
        assert DeadlineExceeded("x").retryable
        assert Overloaded("x", queue_depth=4, queue_capacity=4).retryable
        with pytest.raises(ValueError, match="reason"):
            Rejected("x", reason="bad_hair")

    def test_response_ok_property(self):
        ok = ServerResponse(status="ok", tenant="t", value=42)
        assert ok.ok and ok.error is None
        rejected = ServerResponse(
            status="rejected", tenant="t", error=Rejected("x", reason="shutdown")
        )
        assert not rejected.ok


# ---------------------------------------------------------------------------
# FrontDoor integration
# ---------------------------------------------------------------------------

class _GatedService:
    """TraversalService wrapper whose execution blocks on a gate event.

    Lets tests freeze the dispatcher mid-execution, making queue state
    (shedding, eviction, coalescing, shutdown draining) deterministic.
    """

    def __init__(self, real: TraversalService) -> None:
        self._real = real
        self.registry = real.registry
        self.views = real.views
        self.gate = threading.Event()
        self.gate.set()

    def submit(self, queries, checkpoint=None):
        assert self.gate.wait(timeout=30), "test gate never opened"
        return self._real.submit(queries, checkpoint=checkpoint)

    def stats(self):
        return self._real.stats()

    def close(self):
        self._real.close()


def _wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` until true (returns False on timeout)."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.002)
    return False


@pytest.fixture()
def serving():
    """A real service with one graph plus a gated wrapper and front door."""
    service = TraversalService()
    graph = web_locality_graph(150, avg_degree=6.0, seed=3)
    service.register_graph("g", graph)
    gated = _GatedService(service)
    door = FrontDoor(gated, queue_capacity=4)
    yield door, gated
    gated.gate.set()
    door.close(timeout=5.0)
    service.close()


class TestFrontDoorAdmission:
    def test_fresh_answers_match_direct_service(self, serving):
        door, gated = serving
        door.register_tenant("t")
        response = door.call("t", BFSQuery("g", source=0), timeout=30)
        assert response.ok and not response.degraded
        direct = gated._real.submit([BFSQuery("g", source=0)])[0]
        np.testing.assert_array_equal(
            response.value.value.levels, direct.value.levels
        )

    def test_unknown_tenant_rejected_not_raised(self, serving):
        door, _ = serving
        response = door.call("ghost", BFSQuery("g", source=0), timeout=30)
        assert response.status == "rejected"
        assert response.error.reason == "unknown_tenant"
        assert response.retryable is False

    def test_malformed_queries_raise_in_caller(self, serving):
        door, _ = serving
        door.register_tenant("t")
        with pytest.raises(KeyError):
            door.submit("t", BFSQuery("nope", source=0))
        with pytest.raises(IndexError):
            door.submit("t", BFSQuery("g", source=10_000))
        with pytest.raises(TypeError):
            door.submit("t", "not a query")

    def test_rate_limit_with_retry_after(self):
        clock = FakeClock()
        service = TraversalService()
        service.register_graph("g", web_locality_graph(60, seed=1))
        door = FrontDoor(service, clock=clock)
        door.register_tenant("slow", rate=1.0, burst=1.0)
        assert door.call("slow", CCQuery("g"), timeout=30).ok
        rejected = door.call("slow", CCQuery("g"), timeout=30)
        assert rejected.status == "rejected"
        assert rejected.error.reason == "rate_limited"
        assert rejected.retryable and rejected.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        assert door.call("slow", CCQuery("g"), timeout=30).ok
        door.close()
        service.close()

    def test_quota_exhaustion_is_terminal(self, serving):
        door, _ = serving
        door.register_tenant("metered", quota=2)
        assert door.call("metered", CCQuery("g"), timeout=30).ok
        assert door.call("metered", CCQuery("g"), timeout=30).ok
        response = door.call("metered", CCQuery("g"), timeout=30)
        assert response.error.reason == "quota_exhausted"
        assert response.retryable is False
        counters = door.stats().tenants["metered"].counters
        assert counters.quota_rejected == 1 and counters.quota_used == 2

    def test_tenant_isolation_under_rate_pressure(self):
        clock = FakeClock()
        service = TraversalService()
        service.register_graph("g", web_locality_graph(60, seed=1))
        door = FrontDoor(service, clock=clock, queue_capacity=64)
        door.register_tenant("greedy", rate=1.0, burst=1.0)
        door.register_tenant("polite")
        outcomes = [
            door.call("greedy", CCQuery("g"), timeout=30).status
            for _ in range(5)
        ]
        assert outcomes.count("rejected") == 4  # bucket drained after 1
        assert all(
            door.call("polite", CCQuery("g"), timeout=30).ok
            for _ in range(5)
        )
        stats = door.stats()
        assert stats.tenants["polite"].counters.rate_limited == 0
        assert stats.tenants["greedy"].counters.rate_limited == 4
        door.close()
        service.close()


class TestFrontDoorOverload:
    def test_queue_full_sheds_with_structured_overload(self, serving):
        door, gated = serving
        door.register_tenant("t")
        gated.gate.clear()
        first = door.submit("t", CCQuery("g"))
        # Wait for the dispatcher to take it, then fill the bounded queue.
        assert _wait_until(lambda: door.admission.depth() == 0)
        queued = [door.submit("t", CCQuery("g")) for _ in range(4)]
        shed = door.submit("t", CCQuery("g"))
        assert shed.done  # rejected synchronously -- no blind wait
        response = shed.response()
        assert response.status == "rejected"
        assert isinstance(response.error, Overloaded)
        assert response.error.queue_capacity == 4
        gated.gate.set()
        assert first.response(timeout=30).ok
        assert all(t.response(timeout=30).ok for t in queued)
        assert door.stats().tenants["t"].counters.shed == 1

    def test_priority_eviction_sheds_background_work(self, serving):
        door, gated = serving
        door.register_tenant("fg", priority=0)
        door.register_tenant("bg", priority=2)
        gated.gate.clear()
        head = door.submit("bg", CCQuery("g"))
        assert _wait_until(lambda: door.admission.depth() == 0)
        background = [door.submit("bg", CCQuery("g")) for _ in range(4)]
        vip = door.submit("fg", CCQuery("g"))
        evicted = background[-1]  # newest lowest-priority entry displaced
        assert evicted.done
        assert isinstance(evicted.response().error, Overloaded)
        gated.gate.set()
        assert vip.response(timeout=30).ok
        assert head.response(timeout=30).ok
        stats = door.stats()
        assert stats.tenants["bg"].counters.shed == 1
        assert stats.tenants["fg"].counters.shed == 0

    def test_queued_bfs_point_queries_coalesce(self, serving):
        door, gated = serving
        door.register_tenant("t")
        gated.gate.clear()
        head = door.submit("t", CCQuery("g"))
        assert _wait_until(lambda: door.admission.depth() == 0)
        points = [door.submit("t", BFSQuery("g", source=i)) for i in range(4)]
        gated.gate.set()
        assert head.response(timeout=30).ok
        assert all(t.response(timeout=30).ok for t in points)
        stats = door.stats()
        assert stats.coalesced_groups == 1
        assert stats.coalesced_requests == 4

    def test_shutdown_drains_queue_as_rejections(self, serving):
        door, gated = serving
        door.register_tenant("t")
        gated.gate.clear()
        running = door.submit("t", CCQuery("g"))
        assert _wait_until(lambda: door.admission.depth() == 0)
        queued = [door.submit("t", CCQuery("g")) for _ in range(3)]
        closer = threading.Thread(target=lambda: door.close(timeout=5.0))
        closer.start()
        for ticket in queued:
            response = ticket.response(timeout=30)
            assert response.status == "rejected"
            assert response.error.reason == "shutdown"
        gated.gate.set()
        closer.join(timeout=30)
        assert running.response(timeout=30).ok
        late = door.submit("t", CCQuery("g"))
        assert late.response(timeout=30).error.reason == "shutdown"


class TestFrontDoorDeadlines:
    def test_expired_in_queue_fast_fails(self, serving):
        door, gated = serving
        door.register_tenant("t")
        gated.gate.clear()
        blocker = door.submit("t", CCQuery("g"))
        assert _wait_until(lambda: door.admission.depth() == 0)
        doomed = door.submit("t", CCQuery("g"), deadline=0.01)
        time.sleep(0.05)
        gated.gate.set()
        assert blocker.response(timeout=30).ok
        response = doomed.response(timeout=30)
        assert response.status == "deadline_exceeded"
        assert response.retryable
        assert door.stats().tenants["t"].counters.deadline_misses == 1

    def test_tenant_default_deadline_applies(self, serving):
        door, gated = serving
        door.register_tenant("impatient", default_deadline=0.01)
        gated.gate.clear()
        blocker = door.submit("impatient", CCQuery("g"))
        assert _wait_until(lambda: door.admission.depth() == 0)
        doomed = door.submit("impatient", CCQuery("g"))
        time.sleep(0.05)
        gated.gate.set()
        blocker.response(timeout=30)
        assert doomed.response(timeout=30).status == "deadline_exceeded"

    def test_mid_flight_checkpoint_aborts_sharded_query(self):
        service = TraversalService()
        service.register_graph(
            "g", web_locality_graph(200, avg_degree=6.0, seed=5), shards=2
        )
        door = FrontDoor(service)
        door.register_tenant("t")
        response = door.call("t", CCQuery("g"), deadline=1e-9, timeout=30)
        assert response.status == "deadline_exceeded"
        door.close()
        service.close()

    def test_cancellation_while_queued(self, serving):
        door, gated = serving
        door.register_tenant("t")
        gated.gate.clear()
        blocker = door.submit("t", CCQuery("g"))
        assert _wait_until(lambda: door.admission.depth() == 0)
        victim = door.submit("t", CCQuery("g"))
        victim.cancel()
        gated.gate.set()
        blocker.response(timeout=30)
        assert victim.response(timeout=30).status == "cancelled"
        assert door.stats().tenants["t"].counters.cancelled == 1


class TestFrontDoorDegradation:
    @pytest.fixture()
    def degradable(self):
        service = TraversalService()
        graph = web_locality_graph(150, avg_degree=6.0, seed=3)
        service.register_graph("g", graph)
        service.register_view("khop0", "g", "khop",
                              params={"source": 0, "depth": 6})
        service.register_view("cc-view", "g", "cc")
        door = FrontDoor(service, degraded_staleness=2)
        door.register_tenant("t")
        yield door, service
        door.close()
        service.close()

    def test_predicted_miss_serves_stale_view(self, degradable):
        door, service = degradable
        door._exec_ema["BFSQuery"] = 100.0  # fresh run predicted to miss
        response = door.call(
            "t", BFSQuery("g", source=0), deadline=1.0, timeout=30
        )
        assert response.ok and response.degraded
        assert response.staleness == 0
        expected = service.views.peek("khop0")
        np.testing.assert_array_equal(
            response.value.value, expected.value
        )
        assert door.stats().tenants["t"].counters.degraded == 1

    def test_no_matching_view_runs_fresh(self, degradable):
        door, _ = degradable
        door._exec_ema["BFSQuery"] = 100.0
        response = door.call(
            "t", BFSQuery("g", source=7), deadline=30.0, timeout=30
        )
        assert response.ok and not response.degraded

    def test_degradation_disabled_runs_fresh(self):
        service = TraversalService()
        service.register_graph("g", web_locality_graph(80, seed=2))
        service.register_view("cc-view", "g", "cc")
        door = FrontDoor(service)  # no degraded_staleness
        door.register_tenant("t")
        door._exec_ema["CCQuery"] = 100.0
        response = door.call("t", CCQuery("g"), deadline=30.0, timeout=30)
        assert response.ok and not response.degraded
        door.close()
        service.close()

    def test_requests_that_waited_through_shedding_serve_stale(self):
        service = TraversalService()
        service.register_graph(
            "g", web_locality_graph(150, avg_degree=6.0, seed=3)
        )
        service.register_view("cc-view", "g", "cc")
        gated = _GatedService(service)
        door = FrontDoor(gated, queue_capacity=2, degraded_staleness=2)
        door.register_tenant("t")
        try:
            gated.gate.clear()
            head = door.submit("t", CCQuery("g"))
            assert _wait_until(lambda: door.admission.depth() == 0)
            queued = [
                door.submit("t", CCQuery("g"), deadline=30.0)
                for _ in range(2)
            ]
            shed = door.submit("t", CCQuery("g"))
            assert shed.response().status == "rejected"
            gated.gate.set()
            # The head was already running when the door shed; the queued
            # requests waited through the overload and get the view, with
            # their budgets nowhere near a predicted miss.
            assert not head.response(timeout=30).degraded
            for ticket in queued:
                response = ticket.response(timeout=30)
                assert response.ok and response.degraded
            # Arrivals after the last shed run fresh again.
            later = door.call("t", CCQuery("g"), deadline=30.0, timeout=30)
            assert later.ok and not later.degraded
        finally:
            gated.gate.set()
            door.close(timeout=5.0)
            service.close()

    def test_cc_and_pagerank_queries_match_their_views(self, degradable):
        door, service = degradable
        door._exec_ema["CCQuery"] = 100.0
        response = door.call("t", CCQuery("g"), deadline=1.0, timeout=30)
        assert response.ok and response.degraded
        assert response.value.kind == "cc"


class TestFrontDoorObservability:
    def test_audit_trail_for_one_request(self, serving):
        door, _ = serving
        door.register_tenant("t")
        ticket = door.submit("t", CCQuery("g"))
        assert ticket.response(timeout=30).ok
        trail = [
            event.event
            for event in door.audit.events()
            if event.request_id == ticket.request_id
        ]
        assert trail == ["submitted", "admitted", "started", "completed"]

    def test_stats_aggregate_and_embed_service_stats(self, serving):
        door, _ = serving
        door.register_tenant("t")
        for source in range(3):
            door.call("t", BFSQuery("g", source=source), timeout=30)
        stats = door.stats()
        assert stats.submitted == 3 and stats.completed == 3
        assert stats.queue_capacity == 4
        assert stats.service.queries_served >= 3
        sla = stats.tenants["t"]
        assert sla.latency_count == 3
        assert sla.p99 >= sla.p50 > 0.0
        assert sla.goodput_fraction == 1.0

    def test_ticket_result_raises_taxonomy_error(self, serving):
        door, _ = serving
        response_ticket = door.submit("nope", CCQuery("g"))
        with pytest.raises(Rejected, match="not registered"):
            response_ticket.result(timeout=30)
        door.register_tenant("t")
        value = door.submit("t", CCQuery("g")).result(timeout=30)
        assert value.kind == "cc"
