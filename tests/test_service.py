"""Behaviour of the serving layer: registry, LRU cache, batching, speed.

Covers the encode-once contract (verified against the process-wide encode
counter), LRU eviction order and hit/miss accounting, the per-query metrics
surfaced on ``QueryResult.metrics``, cold-vs-warm batches, and the headline
claim: serving a repeated-graph workload through the service is at least
twice as fast as rebuilding a ``GCGTEngine`` per query.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.compression import cgr
from repro.graph.generators import (
    power_law_graph,
    uniform_dense_graph,
    web_locality_graph,
)
from repro.service import (
    BCQuery,
    BFSQuery,
    CCQuery,
    DecodedAdjacencyCache,
    TraversalService,
)
from repro.traversal.gcgt import GCGTConfig, GCGTEngine


@pytest.fixture()
def three_graphs():
    return {
        "social": power_law_graph(150, avg_degree=6.0, hub_count=2, seed=5),
        "web": web_locality_graph(150, avg_degree=8.0, seed=6),
        "brain": uniform_dense_graph(96, degree=12, cluster_size=32, seed=7),
    }


def mixed_batch(names, per_graph=8):
    """A deterministic mixed BFS/CC/BC batch cycling over ``names``."""
    queries = []
    for name in names:
        for i in range(per_graph):
            queries.append(BFSQuery(name, source=i % 5))
            queries.append(BCQuery(name, source=(i + 1) % 5))
        queries.append(CCQuery(name))
    return queries


# ---------------------------------------------------------------------------
# LRU cache unit behaviour
# ---------------------------------------------------------------------------

class TestDecodedAdjacencyCache:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DecodedAdjacencyCache(0)

    def test_hit_miss_counting(self):
        cache = DecodedAdjacencyCache(4)
        built = []

        def build_for(node):
            return lambda: built.append(node) or node * 10

        assert cache.lookup(1, build_for(1)) == 10
        assert cache.lookup(1, build_for(1)) == 10
        assert cache.lookup(2, build_for(2)) == 20
        assert (cache.hits, cache.misses) == (1, 2)
        assert built == [1, 2]  # each node built exactly once
        assert cache.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction_order(self):
        cache = DecodedAdjacencyCache(3)
        for node in (1, 2, 3):
            cache.lookup(node, lambda n=node: n)
        # Refresh 1 so 2 becomes the least recently used entry.
        cache.lookup(1, lambda: -1)
        cache.lookup(4, lambda: 4)  # evicts 2
        assert list(cache.cached_nodes()) == [3, 1, 4]
        assert 2 not in cache and 1 in cache
        assert cache.evictions == 1
        cache.lookup(5, lambda: 5)  # evicts 3
        assert list(cache.cached_nodes()) == [1, 4, 5]
        assert cache.evictions == 2

    def test_refreshed_entry_returns_cached_value_not_rebuilt(self):
        cache = DecodedAdjacencyCache(2)
        cache.lookup(7, lambda: "original")
        assert cache.lookup(7, lambda: "rebuilt") == "original"

    def test_clear_keeps_counters(self):
        cache = DecodedAdjacencyCache(2)
        cache.lookup(1, lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        cache.lookup(1, lambda: 1)
        assert cache.misses == 2

    def test_failed_build_leaves_counters_consistent(self):
        # Regression: a raising build used to count a miss without inserting
        # a plan or charging miss_decode_ns, so hits + misses drifted from
        # actual lookup outcomes.  Failures get their own counter now.
        cache = DecodedAdjacencyCache(4)

        def explode():
            raise RuntimeError("decode failed")

        with pytest.raises(RuntimeError):
            cache.lookup(3, explode)
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.build_failures == 1
        assert cache.miss_decode_ns > 0  # failed build's time is real
        assert 3 not in cache
        assert cache.hit_rate == 1.0  # no plan-producing lookups yet
        assert cache.snapshot().build_failures == 1

        # The node is still buildable afterwards, as an ordinary miss.
        assert cache.lookup(3, lambda: 30) == 30
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.build_failures == 1
        assert cache.lookup(3, lambda: 99) == 30
        assert cache.hits == 1


# ---------------------------------------------------------------------------
# Registry: encode-once semantics
# ---------------------------------------------------------------------------

class TestEncodeOnce:
    def test_reregistering_returns_same_entry_without_encoding(self, three_graphs):
        service = TraversalService()
        before = cgr.encode_call_count()
        first = service.register_graph("web", three_graphs["web"])
        again = service.register_graph("web", three_graphs["web"])
        assert first is again
        assert cgr.encode_call_count() - before == 1

    def test_distinct_configs_are_distinct_entries(self, three_graphs):
        service = TraversalService()
        plain = service.register_graph("web", three_graphs["web"])
        unsegmented = service.register_graph(
            "web", three_graphs["web"], GCGTConfig(residual_segmentation=False)
        )
        assert plain is not unsegmented
        assert plain.cgr.config.residual_segment_bits is not None
        assert unsegmented.cgr.config.residual_segment_bits is None

    def test_unknown_graph_raises_with_known_names(self, three_graphs):
        service = TraversalService()
        service.register_graph("web", three_graphs["web"])
        with pytest.raises(KeyError, match="web"):
            service.submit([BFSQuery("nope", 0)])

    def test_every_query_kind_rejects_bad_sources_uniformly(self, three_graphs):
        # Regression: BFS range-checked its source inside bfs() while the
        # BC/PageRank paths relied on downstream behaviour.  Admission now
        # validates every kind the same way, before any counter moves.
        from repro.service import PageRankQuery

        service = TraversalService()
        service.register_graph("web", three_graphs["web"])
        num_nodes = three_graphs["web"].num_nodes
        for make in (BFSQuery, BCQuery, PageRankQuery):
            for bad_source in (-1, num_nodes):
                before = service.stats()
                with pytest.raises(IndexError, match="out of range"):
                    service.submit([make("web", bad_source)])
                after = service.stats()
                assert after.queries_served == before.queries_served
                assert after.cache_misses == before.cache_misses

    def test_scheduling_only_config_differences_get_distinct_engines(
        self, three_graphs
    ):
        # Regression: these two rungs share an encoding config (both have
        # residual_segmentation=False) but must not share an engine.
        from repro.traversal.gcgt import STRATEGY_LADDER

        service = TraversalService()
        intuitive = service.register_graph(
            "web", three_graphs["web"], STRATEGY_LADDER["Intuitive"]
        )
        warp = service.register_graph(
            "web", three_graphs["web"], STRATEGY_LADDER["Warp-centric"]
        )
        assert intuitive is not warp
        assert intuitive.engine.strategy.name == "Intuitive"
        assert warp.engine.strategy.name == "Warp-centric"

    def test_graph_registered_under_custom_config_is_queryable(self, three_graphs):
        # Regression: queries carry no config, so a single entry under a
        # non-default config must resolve by name alone.
        service = TraversalService()
        service.register_graph(
            "web", three_graphs["web"], GCGTConfig(residual_segmentation=False)
        )
        [result] = service.submit([BFSQuery("web", 0)])
        reference = bfs(GCGTEngine.from_graph(three_graphs["web"]), 0)
        np.testing.assert_array_equal(result.value.levels, reference.levels)

    def test_ambiguous_multi_config_name_raises(self, three_graphs):
        service = TraversalService()
        service.register_graph(
            "web", three_graphs["web"], GCGTConfig(warp_centric=False)
        )
        service.register_graph(
            "web", three_graphs["web"], GCGTConfig(residual_segmentation=False)
        )
        with pytest.raises(KeyError, match="2 configurations"):
            service.submit([BFSQuery("web", 0)])

    def test_large_mixed_batch_encodes_each_graph_once(self, three_graphs):
        """Acceptance: >= 64 mixed queries over 3 graphs, encode-once."""
        service = TraversalService()
        before = cgr.encode_call_count()
        for name, graph in three_graphs.items():
            service.register_graph(name, graph)
        assert cgr.encode_call_count() - before == 3

        queries = mixed_batch(three_graphs, per_graph=11)
        assert len(queries) >= 64
        results = service.submit(queries)
        assert len(results) == len(queries)

        # 3 directed encodings at registration + 3 lazy undirected siblings
        # for CC; the 60+ repeat queries added nothing.
        assert cgr.encode_call_count() - before == 6
        assert service.registry.encode_calls == 6
        assert sum(r.metrics.encode_calls for r in results) == 3  # one per CC
        assert service.stats().queries_served == len(queries)

    def test_csr_is_registered_side_by_side(self, three_graphs):
        entry = TraversalService().register_graph("web", three_graphs["web"])
        assert entry.csr.num_edges == entry.cgr.num_edges == entry.graph.num_edges
        assert entry.csr.neighbors(0).tolist() == entry.cgr.neighbors(0)


# ---------------------------------------------------------------------------
# Per-query cache metrics and cold/warm batches
# ---------------------------------------------------------------------------

class TestCacheBehaviourThroughService:
    def test_cold_then_warm_query_hit_counters(self, three_graphs):
        # Two same-graph BFS queries in ONE batch now share a lane-packed
        # MS-BFS sweep (see tests/test_msbfs.py), so the cold/warm contrast
        # needs two separate batches.
        service = TraversalService()
        service.register_graph("web", three_graphs["web"])
        [cold] = service.submit([BFSQuery("web", 0)])
        [warm] = service.submit([BFSQuery("web", 0)])
        assert cold.metrics.cache_misses > 0
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.cache_hits > 0
        assert warm.metrics.cache_hit_rate == 1.0
        # Served natively: no simulated cost, cold or warm.
        for result in (cold, warm):
            assert result.metrics.cost == result.metrics.elapsed_proxy == 0.0

    def test_cold_then_warm_engine_sessions_cost_the_same(self, three_graphs):
        # On the simulated engine, identical traversals cost the same
        # whether plans were cached or not: the plan cache saves host time,
        # never simulated work.
        cache = DecodedAdjacencyCache()
        engine = GCGTEngine.from_graph(three_graphs["web"], plan_cache=cache)
        cold = engine.new_session()
        bfs(cold, 0)
        misses = cache.misses
        warm = engine.new_session()
        bfs(warm, 0)
        assert misses > 0 and cache.misses == misses
        assert cold.cost() > 0
        assert warm.cost() == cold.cost()

    def test_second_batch_is_fully_warm(self, three_graphs):
        service = TraversalService()
        for name, graph in three_graphs.items():
            service.register_graph(name, graph)
        batch = mixed_batch(three_graphs, per_graph=2)
        service.submit(batch)
        encode_after_first = service.registry.encode_calls

        second = service.submit(batch)
        assert service.registry.encode_calls == encode_after_first
        assert all(r.metrics.encode_calls == 0 for r in second)
        assert all(r.metrics.cache_misses == 0 for r in second)

    def test_tiny_cache_evicts_but_stays_correct(self, three_graphs):
        graph = three_graphs["web"]
        service = TraversalService(cache_capacity=16)
        entry = service.register_graph("web", graph)
        [result] = service.submit([BFSQuery("web", 0)])
        assert entry.plan_cache.evictions > 0
        assert len(entry.plan_cache) <= 16
        reference = bfs(GCGTEngine.from_graph(graph), 0)
        np.testing.assert_array_equal(result.value.levels, reference.levels)

    def test_sessions_do_not_share_metrics(self, three_graphs):
        engine = GCGTEngine.from_graph(
            three_graphs["web"], plan_cache=DecodedAdjacencyCache()
        )
        s1, s2 = engine.new_session(), engine.new_session()
        bfs(s1, 0)
        bfs(s2, 0)
        # Each session's cost is its own, not an accumulation.
        assert s1.cost() > 0
        assert s1.cost() == s2.cost()
        # The engine's default session stayed untouched.
        assert engine.metrics.instruction_rounds == 0

    def test_serving_never_touches_the_simulated_engine(self, three_graphs):
        service = TraversalService()
        entry = service.register_graph("web", three_graphs["web"])
        results = service.submit([
            BFSQuery("web", 0), BFSQuery("web", 3), BCQuery("web", 0),
        ])
        for result in results:
            assert result.metrics.cost == result.metrics.elapsed_proxy == 0.0
        assert entry.engine.metrics.instruction_rounds == 0
        assert len(entry.engine.plan_cache) == 0

    def test_cache_misses_report_compressed_memory_traffic(self, three_graphs):
        graph = three_graphs["web"]
        service = TraversalService()
        service.register_graph("web", graph)
        service.register_graph("split", graph, shards=2,
                               executor_backend="inline")
        [cold] = service.submit([BFSQuery("web", 0)])
        [warm] = service.submit([BFSQuery("web", 0)])
        [sharded] = service.submit([BFSQuery("split", 0)])
        assert cold.metrics.cache_misses > 0
        assert cold.metrics.memory_transactions > 0
        assert warm.metrics.memory_transactions == 0
        assert sharded.metrics.memory_transactions == 0
        service.close()

    def test_batched_memory_traffic_splits_across_lanes(self, three_graphs):
        service = TraversalService()
        entry = service.register_graph("web", three_graphs["web"])
        engine = entry.frontier_engine()
        engine.msbfs([0, 3, 7])
        expected = engine.metrics.memory_transactions
        entry.plan_cache.clear()
        results = service.submit(
            [BFSQuery("web", 0), BFSQuery("web", 3), BFSQuery("web", 7)]
        )
        assert expected > 0
        assert sum(r.metrics.memory_transactions for r in results) == expected

    def test_cache_miss_decode_ns_attributed_per_query(self, three_graphs):
        # Separate batches: one submit batch would share a single MS-BFS
        # sweep and split its decode time across both lanes.
        service = TraversalService()
        entry = service.register_graph("web", three_graphs["web"])
        [cold] = service.submit([BFSQuery("web", 0)])
        [warm] = service.submit([BFSQuery("web", 0)])
        # The cold query decoded plans on its misses and the wall-clock cost
        # of that work is surfaced on its metrics.
        assert cold.metrics.cache_misses > 0
        assert cold.metrics.cache_miss_decode_ns > 0
        # The warm query hit the cache for every plan: no decode time.
        assert warm.metrics.cache_misses == 0
        assert warm.metrics.cache_miss_decode_ns == 0
        # Per-query attribution sums to the cache's cumulative counter, which
        # the aggregate service stats expose as well.
        assert (
            cold.metrics.cache_miss_decode_ns
            == entry.plan_cache.miss_decode_ns
        )
        assert (
            service.stats().cache_miss_decode_ns
            >= cold.metrics.cache_miss_decode_ns
        )


# ---------------------------------------------------------------------------
# Throughput: the point of the serving layer
# ---------------------------------------------------------------------------

def _run_per_query_engines(graphs, queries):
    """The seed's pattern: build a fresh engine (re-encoding) per query."""
    outputs = []
    for query in queries:
        graph = graphs[query.graph]
        if isinstance(query, CCQuery):
            engine = GCGTEngine.from_graph(graph.to_undirected())
            outputs.append(connected_components(engine))
        elif isinstance(query, BCQuery):
            engine = GCGTEngine.from_graph(graph)
            outputs.append(betweenness_centrality(engine, query.source))
        else:
            engine = GCGTEngine.from_graph(graph)
            outputs.append(bfs(engine, query.source))
    return outputs


def test_service_is_faster_than_per_query_engines_and_answers_match(three_graphs):
    """Batched serving beats the from_graph-per-query loop on 64+ queries.

    The tier-1 bar is a loose smoke check so the fast CI matrix never flakes
    on a noisy runner; the strict >= 2x acceptance measurement (best-of-N)
    lives in ``benchmarks/test_service_throughput.py``.
    """
    queries = mixed_batch(three_graphs, per_graph=11)
    assert len(queries) >= 64

    service = TraversalService()
    for name, graph in three_graphs.items():
        service.register_graph(name, graph)

    start = time.perf_counter()
    served = service.submit(queries)
    service_seconds = time.perf_counter() - start

    start = time.perf_counter()
    baseline = _run_per_query_engines(three_graphs, queries)
    baseline_seconds = time.perf_counter() - start

    # Same answers either way.
    for served_result, baseline_result in zip(served, baseline):
        if served_result.kind == "bfs":
            np.testing.assert_array_equal(
                served_result.value.levels, baseline_result.levels
            )
        elif served_result.kind == "cc":
            np.testing.assert_array_equal(
                served_result.value.labels, baseline_result.labels
            )

    speedup = baseline_seconds / service_seconds
    assert speedup >= 1.3, (
        f"service {service_seconds:.2f}s vs per-query {baseline_seconds:.2f}s "
        f"= {speedup:.1f}x; expected a clear amortization win "
        "(strict 2x bar is benchmarks/test_service_throughput.py)"
    )


# ---------------------------------------------------------------------------
# Per-graph compression accounting in ServiceStats
# ---------------------------------------------------------------------------

class TestBitsPerEdgeAccounting:
    def test_stats_report_live_bits_per_registered_graph(self, three_graphs):
        from repro.dynamic import EdgeUpdate

        service = TraversalService()
        for name, graph in three_graphs.items():
            service.register_graph(name, graph)
        stats = service.stats()
        assert set(stats.bits_per_edge) == set(three_graphs)
        for name in three_graphs:
            entry = service.registry.resolve(name)
            expected = entry.overlay.live_bits / entry.overlay.num_edges
            assert stats.bits_per_edge[name] == pytest.approx(expected)
            assert 0 < stats.bits_per_edge[name] < 32

        # Updates append to the overlay side stream: the per-graph figure
        # must track live bits (base + side stream), not the frozen base.
        before = stats.bits_per_edge["social"]
        service.apply_updates(
            "social", [EdgeUpdate.insert(0, 140), EdgeUpdate.insert(0, 141)]
        )
        after = service.stats().bits_per_edge["social"]
        assert after != before
        entry = service.registry.resolve("social")
        assert after == pytest.approx(
            entry.overlay.live_bits / entry.overlay.num_edges
        )

    def test_sharded_entry_sums_bits_across_shards(self, three_graphs):
        service = TraversalService()
        service.register_graph("web", three_graphs["web"], shards=3)
        entry = service.registry.resolve("web")
        stats = service.stats()
        expected = sum(
            overlay.live_bits for overlay in entry.executor.overlays
        ) / entry.num_edges
        assert stats.bits_per_edge["web"] == pytest.approx(expected)
        # The per-shard streams replicate headers, so the aggregate rate is
        # above a single stream's, and still far below uncompressed CSR.
        single = TraversalService()
        single.register_graph("web", three_graphs["web"])
        assert stats.bits_per_edge["web"] > single.stats().bits_per_edge["web"]
        assert stats.bits_per_edge["web"] < 32


# ---------------------------------------------------------------------------
# Duplicate-name registration guard
# ---------------------------------------------------------------------------

class TestDuplicateNameRejection:
    """register() must reject a divergent topology under a taken name
    atomically -- before any entry, cache or executor state is created --
    while keeping same-topology re-registration a cheap no-op."""

    def test_divergent_topology_same_config_raises(self, three_graphs):
        service = TraversalService()
        service.register_graph("web", three_graphs["web"])
        with pytest.raises(ValueError, match="different topology"):
            service.register_graph("web", three_graphs["social"])

    def test_divergent_topology_new_config_raises_before_encoding(
        self, three_graphs
    ):
        service = TraversalService()
        service.register_graph("web", three_graphs["web"])
        entries_before = len(service.registry.entries())
        encodes_before = cgr.encode_call_count()
        with pytest.raises(ValueError, match="different topology"):
            service.register_graph(
                "web",
                three_graphs["social"],
                GCGTConfig(residual_segmentation=False),
            )
        # Atomic: the rejected registration left nothing behind.
        assert len(service.registry.entries()) == entries_before
        assert cgr.encode_call_count() == encodes_before
        assert service.stats().encode_calls == entries_before

    def test_equal_topology_different_instance_is_still_a_noop(
        self, three_graphs
    ):
        """A structurally equal Graph built separately re-registers fine --
        the guard compares topology, not object identity."""
        from repro.graph.graph import Graph

        service = TraversalService()
        graph = three_graphs["web"]
        first = service.register_graph("web", graph)
        clone = Graph([list(graph.neighbors(n)) for n in range(graph.num_nodes)])
        again = service.register_graph("web", clone)
        assert first is again

    def test_rejected_sharded_registration_spawns_no_executor(
        self, three_graphs
    ):
        service = TraversalService()
        service.register_graph("web", three_graphs["web"])
        with pytest.raises(ValueError, match="different topology"):
            service.register_graph(
                "web", three_graphs["brain"], shards=2,
                executor_backend="thread",
            )
        entry = service.registry.resolve("web")
        assert entry.executor is None
        service.close()

    def test_updates_do_not_count_as_divergence(self, three_graphs):
        """Applied update batches mutate the live topology, but re-offering
        the originally registered graph must stay a no-op."""
        from repro.dynamic.updates import EdgeUpdate

        service = TraversalService()
        graph = three_graphs["web"]
        first = service.register_graph("web", graph)
        service.apply_updates("web", [EdgeUpdate.insert(0, 140)])
        assert service.register_graph("web", graph) is first
