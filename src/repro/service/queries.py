"""Query and result types of the traversal service.

A query names a registered graph and carries the application-specific
parameters; the service answers with a :class:`QueryResult` bundling the
application's output (:class:`~repro.apps.bfs.BFSResult`,
:class:`~repro.apps.cc.CCResult` or :class:`~repro.apps.bc.BCResult`) with
per-query serving metrics: how much encode/decode work the query actually
caused -- which is how tests verify that the registry and the
decoded-adjacency cache amortize work across a batch -- plus the simulated
traversal cost where a simulator ran (sharded entries only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.apps.bc import BCResult
from repro.apps.bfs import BFSResult
from repro.apps.cc import CCResult
from repro.apps.pagerank import PPRResult
from repro.service.cache import hit_rate


@dataclass(frozen=True)
class BFSQuery:
    """Breadth-first search from ``source`` on the graph named ``graph``."""

    graph: str
    source: int


@dataclass(frozen=True)
class CCQuery:
    """Connected components of the graph named ``graph``.

    The service runs CC on the undirected interpretation of the registered
    graph (symmetrised once and kept resident), as the paper's evaluation
    does.
    """

    graph: str
    max_iterations: int = 64


@dataclass(frozen=True)
class BCQuery:
    """Single-source betweenness centrality from ``source`` on ``graph``."""

    graph: str
    source: int


@dataclass(frozen=True)
class PageRankQuery:
    """Personalized PageRank (forward-push) from ``source`` on ``graph``.

    Runs :func:`~repro.apps.pagerank.personalized_pagerank` over the
    registered graph's resident engine -- or, for sharded registrations,
    over its scatter-gather executor, superstep by superstep -- with the
    graph's current out-degrees supplied automatically.
    """

    graph: str
    source: int
    alpha: float = 0.15
    epsilon: float = 1e-4
    max_iterations: int = 200


#: Any query the service accepts in one :meth:`TraversalService.submit` batch.
Query = Union[BFSQuery, CCQuery, BCQuery, PageRankQuery]


@dataclass(frozen=True)
class QueryMetrics:
    """What serving one query cost, beyond the application's own output.

    Attributes:
        cost: simulated total-work cost of the traversal (same units as
            :meth:`GCGTEngine.cost`).  ``0.0`` means the query was not
            simulated: unsharded entries are served natively, and their
            simulated cost comes from sessions of the entry's
            :class:`~repro.traversal.gcgt.GCGTEngine` (as the paper's
            figure harness runs them).
        elapsed_proxy: cost divided by the device's warp-level parallelism,
            comparable with the benchmark figures' elapsed axis; ``0.0``
            when not simulated, like ``cost``.
        iterations: frontier iterations the application ran.
        cache_hits: decoded-adjacency cache hits this query produced.
        cache_misses: decoded-adjacency cache misses (nodes decoded
            afresh).
        encode_calls: full-graph encode calls triggered while serving this
            query; 0 whenever the graph was already resident (encode-once).
        cache_invalidations: stale entries dropped while serving this
            query (epoch-mismatched lookups after an update batch).
        graph_epoch: the served graph's mutation epoch at answer time (0 for
            never-updated graphs); lets clients correlate answers with the
            update stream.
        cache_miss_decode_ns: wall-clock nanoseconds this query spent
            decoding adjacency on cache misses -- the real host-side cost
            of the packed bit-stream engine, observable per query (0 for a
            fully warm cache).
        shard_fanout: distinct shards this query's supersteps scattered work
            to (0 for queries on unsharded registrations).
        exchange_volume: ``(source, neighbour)`` messages exchanged between
            shard workers and the coordinator while serving this query --
            the scatter-gather traffic of the sharded execution tier (0 for
            unsharded registrations).
        batch_lanes: how many queries shared the lane-packed MS-BFS sweep
            that answered this one (1 for queries served individually).
            Shared sweep work -- cost, cache deltas, exchange volume -- is
            attributed by lane: floats divided evenly, integer counters
            split so they sum back to the sweep's totals.
        batch_lane: this query's lane within its sweep (0 when unbatched).
        memory_transactions: device-memory transactions (cache lines) this
            query's cache-miss decodes read from the compressed stream on
            the native path -- the traffic the compression saves, with no
            warp simulated (0 for a fully warm cache, and on sharded
            entries, whose traffic is part of ``cost``).
    """

    cost: float
    elapsed_proxy: float
    iterations: int
    cache_hits: int
    cache_misses: int
    encode_calls: int
    cache_invalidations: int = 0
    graph_epoch: int = 0
    cache_miss_decode_ns: int = 0
    shard_fanout: int = 0
    exchange_volume: int = 0
    batch_lanes: int = 1
    batch_lane: int = 0
    memory_transactions: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of adjacency lookups served from the cache (1.0 when no lookups)."""
        return hit_rate(self.cache_hits, self.cache_misses)


@dataclass(frozen=True)
class QueryResult:
    """One answered query: the application result plus serving metrics."""

    query: Query
    kind: str  # "bfs" | "cc" | "bc" | "pagerank"
    value: Union[BFSResult, CCResult, BCResult, PPRResult]
    metrics: QueryMetrics


__all__ = [
    "BFSQuery",
    "CCQuery",
    "BCQuery",
    "PageRankQuery",
    "Query",
    "QueryMetrics",
    "QueryResult",
]
