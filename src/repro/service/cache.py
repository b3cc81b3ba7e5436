"""LRU cache of decoded node adjacency, keyed by mutation epoch.

Decoding a node's compressed adjacency list is a pure function of the graph
*at one point in time*, yet the seed paid it on every query that touched the
node.  The service keeps one :class:`DecodedAdjacencyCache` per registered
graph, holding each node's live neighbours as a compact ``int32`` array that
native serving (:class:`~repro.traversal.native.NativeSession`) reads, so a
hot node's decode is paid once per graph and epoch, not once per query.  The
simulated engine (:class:`~repro.traversal.gcgt.GCGTEngine`) plugs a cache
of its own into its :meth:`~repro.traversal.gcgt.GCGTEngine.node_plan` hook,
holding structural :class:`~repro.traversal.context.NodePlan` objects; one
cache never mixes the two value types.

Dynamic graphs add a second axis: when an update batch mutates a node, its
cached value must never be served again.  Every entry therefore carries the
node's **mutation epoch** (see :meth:`repro.dynamic.DeltaOverlay.node_epoch`);
a lookup whose epoch differs from the cached one drops the stale value,
counts an *invalidation* and rebuilds.  Static graphs always look up at
epoch 0, which degenerates to the plain LRU behaviour.

The *simulated* decode cost the strategies charge is unaffected by the
cache: plans only describe where the bits are; every strategy still charges
the warp for the decode rounds it would execute on hardware.  What the cache
saves is real host-side Python time -- the quantity the serving benchmarks
measure.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator


def hit_rate(hits: int, misses: int) -> float:
    """Fraction of lookups served from a cache; 1.0 when there were none."""
    total = hits + misses
    if total == 0:
        return 1.0
    return hits / total


@dataclass(frozen=True)
class CacheSnapshot:
    """Point-in-time counter values, used to attribute deltas to one query."""

    hits: int
    misses: int
    evictions: int
    invalidations: int = 0
    #: Cumulative wall-clock nanoseconds spent decoding plans on misses.
    miss_decode_ns: int = 0
    #: Lookups whose ``build`` raised: counted here, not as misses, so
    #: ``hits + misses`` always matches the lookups that returned a plan.
    build_failures: int = 0


class DecodedAdjacencyCache:
    """An LRU mapping node id -> decoded adjacency at one epoch.

    Values are opaque to the cache: live neighbour arrays for native
    serving, :class:`~repro.traversal.context.NodePlan` objects for the
    simulated engine (it satisfies the
    :class:`repro.traversal.gcgt.PlanCache` protocol).  Capacity bounds the
    number of resident entries; a lookup of a cached node refreshes its
    recency, and inserting into a full cache evicts the least recently used
    entry.  Counters distinguish capacity pressure (``evictions``) from
    update churn (``invalidations``):

    * ``evictions`` -- plans displaced to make room, **including** resident
      plans dropped wholesale by :meth:`clear` (e.g. when the registry
      replaces a graph; earlier versions silently under-counted these).
    * ``invalidations`` -- plans dropped because their node mutated: an
      explicit :meth:`invalidate` call or an epoch-mismatched lookup.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[int, tuple[int, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Wall-clock nanoseconds spent in ``build`` on cache misses --
        #: the real host-side decode cost the packed bit-stream engine
        #: attacks, surfaced per query as
        #: :attr:`~repro.service.queries.QueryMetrics.cache_miss_decode_ns`.
        #: Failed builds' time is charged here too: it was really spent.
        self.miss_decode_ns = 0
        #: Lookups whose ``build`` raised.  Counted separately from misses
        #: so ``hits + misses`` always equals the lookups that produced a
        #: plan (earlier versions counted the miss up front, skewing hit
        #: rates and per-query miss attribution when a build failed).
        self.build_failures = 0
        #: Optional :class:`repro.obs.Tracer`: when set (by the service's
        #: telemetry wiring) each miss emits a ``decode_miss`` event on the
        #: calling thread's current span, attributing decode nanoseconds to
        #: the request that paid them.  ``None`` keeps the hot path free of
        #: even a method call.
        self.tracer = None

    # -- PlanCache protocol ---------------------------------------------------

    def lookup(self, node: int, build: Callable[[], Any], epoch: int = 0) -> Any:
        """The value for ``node`` at ``epoch``, building and inserting on a
        miss.

        A resident plan from a *different* epoch is stale -- the node mutated
        since it was decoded -- so it is dropped (counted as an
        invalidation), rebuilt via ``build`` and re-inserted under the new
        epoch.

        A ``build`` that raises counts as a *build failure*, not a miss (no
        plan was produced or inserted, so counting a miss would skew
        ``hits + misses`` against actual lookup outcomes); the time spent in
        the failing ``build`` is still charged to ``miss_decode_ns``, and
        the exception propagates.
        """
        entry = self._plans.get(node)
        if entry is not None:
            cached_epoch, plan = entry
            if cached_epoch == epoch:
                self.hits += 1
                self._plans.move_to_end(node)
                return plan
            del self._plans[node]
            self.invalidations += 1
        began = time.perf_counter_ns()
        try:
            plan = build()
        except BaseException:
            self.miss_decode_ns += time.perf_counter_ns() - began
            self.build_failures += 1
            raise
        elapsed = time.perf_counter_ns() - began
        self.miss_decode_ns += elapsed
        self.misses += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            span = tracer.current()
            if span is not None:
                span.event(
                    "decode_miss", node=node, epoch=epoch, decode_ns=elapsed
                )
        self._plans[node] = (epoch, plan)
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan

    def invalidate(self, node: int) -> bool:
        """Drop the resident plan of ``node``, if any.

        Called by :meth:`repro.service.GraphRegistry.apply_updates` for every
        node an update batch touched.  Epoch-keyed lookups make this optional
        for correctness (a stale epoch can never hit) -- eager invalidation
        just frees the slot immediately.  Returns whether a plan was dropped.
        """
        if node in self._plans:
            del self._plans[node]
            self.invalidations += 1
            return True
        return False

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, node: int) -> bool:
        return node in self._plans

    def cached_nodes(self) -> Iterator[int]:
        """Resident node ids, least recently used first."""
        return iter(self._plans)

    def epoch_of(self, node: int) -> int | None:
        """Epoch the resident plan of ``node`` was built at, or ``None``."""
        entry = self._plans.get(node)
        return None if entry is None else entry[0]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (1.0 when unused)."""
        return hit_rate(self.hits, self.misses)

    def snapshot(self) -> CacheSnapshot:
        """Freeze the counters (for per-query delta attribution)."""
        return CacheSnapshot(
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            self.miss_decode_ns,
            self.build_failures,
        )

    def clear(self) -> None:
        """Drop all resident plans; cumulative counters are kept.

        Every dropped plan counts as an eviction.  This is the fix for a
        metrics bug: when the registry replaced a graph and re-registered
        the same nodes, the plans displaced by the replacement vanished
        without being counted, under-reporting cache churn.
        """
        self.evictions += len(self._plans)
        self._plans.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodedAdjacencyCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


__all__ = ["CacheSnapshot", "DecodedAdjacencyCache", "hit_rate"]
