"""Sharding subsystem tests.

Three layers of guarantees:

* **Partitioner invariants** (property-based): every edge assigned exactly
  once, boundary tables symmetric on undirected graphs, the greedy
  balancer's loads within its advertised tolerance, determinism.
* **Sharded execution differential**: BFS / CC / PageRank through the
  :class:`~repro.shard.ShardExecutor` agree with the unsharded engine for
  every partitioner x shard count in {1, 2, 4, 7} on the differential-test
  graph families, across the five strategy-ladder rungs, and after
  edge-update sequences routed through the shards.
* **Serving integration**: sharded registrations answer identically to
  unsharded ones through :class:`~repro.service.TraversalService`, with
  shard fan-out / exchange metrics and per-graph compression accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.apps.pagerank import personalized_pagerank
from repro.baselines.cpu import NaiveCPUEngine
from repro.dynamic.updates import EdgeUpdate
from repro.graph.generators import (
    power_law_graph,
    uniform_dense_graph,
    web_locality_graph,
)
from repro.graph.graph import Graph
from repro.service import (
    BCQuery,
    BFSQuery,
    CCQuery,
    DecodedAdjacencyCache,
    PageRankQuery,
    TraversalService,
)
from repro.shard import (
    GraphPartition,
    GreedyEdgeCutPartitioner,
    HashPartitioner,
    RangePartitioner,
    ShardExecutor,
    ShardedCGRGraph,
    get_partitioner,
)
from repro.traversal.gcgt import GCGTEngine, STRATEGY_LADDER

PARTITIONERS = ("hash", "range", "greedy")
SHARD_COUNTS = (1, 2, 4, 7)

#: The differential-test families (matching tests/test_differential.py).
GRAPH_FAMILIES = {
    "power-law": lambda: power_law_graph(
        120, avg_degree=6.0, exponent=2.0, max_degree_fraction=0.25,
        hub_count=2, seed=42,
    ),
    "uniform-dense": lambda: uniform_dense_graph(
        96, degree=12, cluster_size=32, seed=43,
    ),
    "web-locality": lambda: web_locality_graph(120, avg_degree=8.0, seed=44),
}


@pytest.fixture(scope="module")
def family_graphs():
    return {name: build() for name, build in GRAPH_FAMILIES.items()}


@pytest.fixture(scope="module")
def sharded_cache(family_graphs):
    """Memoised sharded encodes: one per (family, partitioner, shards)."""
    cache: dict[tuple, ShardedCGRGraph] = {}

    def build(family: str, partitioner: str, shards: int) -> ShardedCGRGraph:
        key = (family, partitioner, shards)
        if key not in cache:
            cache[key] = ShardedCGRGraph.from_graph(
                family_graphs[family], shards, partitioner=partitioner
            )
        return cache[key]

    return build


# ---------------------------------------------------------------------------
# Partitioner invariants
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw) -> Graph:
    num_nodes = draw(st.integers(min_value=2, max_value=32))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ),
            max_size=120,
        )
    )
    return Graph.from_edges(num_nodes, edges)


class TestPartitionerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        graph=small_graphs(),
        num_shards=st.integers(min_value=1, max_value=7),
        name=st.sampled_from(PARTITIONERS),
    )
    def test_every_edge_assigned_exactly_once(self, graph, num_shards, name):
        partition = get_partitioner(name).partition(graph, num_shards)
        # Nodes: the shard node lists are a disjoint cover of the id space.
        all_nodes = np.concatenate(
            [nodes for nodes in partition.shard_nodes]
            + [np.empty(0, dtype=np.int64)]
        )
        assert sorted(all_nodes.tolist()) == list(range(graph.num_nodes))
        # Edges: each shard stores exactly its owned sources' out-edges, and
        # the union over shards is the original edge set, with no overlap.
        sharded = ShardedCGRGraph.from_graph(
            graph, num_shards, partitioner=name
        )
        seen: set[tuple[int, int]] = set()
        for shard_index, shard in enumerate(sharded.shards):
            for node in range(graph.num_nodes):
                neighbors = shard.neighbors(node)
                if partition.owner(node) != shard_index:
                    assert neighbors == []
                    continue
                for target in neighbors:
                    edge = (node, target)
                    assert edge not in seen
                    seen.add(edge)
        assert seen == set(graph.edges())
        assert int(partition.shard_edge_counts.sum()) == graph.num_edges

    @settings(max_examples=25, deadline=None)
    @given(
        graph=small_graphs(),
        num_shards=st.integers(min_value=1, max_value=7),
        name=st.sampled_from(PARTITIONERS),
    )
    def test_boundary_table_symmetric_for_undirected(
        self, graph, num_shards, name
    ):
        undirected = graph.to_undirected()
        partition = get_partitioner(name).partition(undirected, num_shards)
        boundary = partition.boundary_edge_set()
        assert boundary == {(target, source) for source, target in boundary}
        # Every boundary edge really crosses shards; every crossing edge is
        # in the table.
        for source, target in undirected.edges():
            crosses = partition.owner(source) != partition.owner(target)
            assert ((source, target) in boundary) == crosses

    @settings(max_examples=25, deadline=None)
    @given(
        graph=small_graphs(),
        num_shards=st.integers(min_value=1, max_value=7),
        tolerance=st.sampled_from((0.05, 0.1, 0.3)),
    )
    def test_greedy_loads_within_advertised_tolerance(
        self, graph, num_shards, tolerance
    ):
        balancer = GreedyEdgeCutPartitioner(balance_tolerance=tolerance)
        partition = balancer.partition(graph, num_shards)
        degrees = graph.degrees()
        loads = np.zeros(num_shards, dtype=np.int64)
        for node in range(graph.num_nodes):
            loads[partition.owner(node)] += int(degrees[node]) + 1
        cap = balancer.load_cap(graph, num_shards)
        # One placement can never be split, so a shard may exceed the cap by
        # at most the heaviest single node it was forced to absorb.
        slack = int(degrees.max()) + 1 if graph.num_nodes else 1
        assert loads.max() <= cap + slack

    def test_partitioners_are_deterministic(self, family_graphs):
        graph = family_graphs["power-law"]
        for name in PARTITIONERS:
            first = get_partitioner(name).partition(graph, 4)
            second = get_partitioner(name).partition(graph, 4)
            np.testing.assert_array_equal(first.assignment, second.assignment)

    def test_range_partitioner_produces_contiguous_ranges(self, family_graphs):
        assignment = RangePartitioner().assign(family_graphs["web-locality"], 5)
        # Monotone non-decreasing over node ids == contiguous id ranges.
        assert (np.diff(assignment) >= 0).all()
        assert set(assignment.tolist()) == set(range(5))

    def test_greedy_cut_no_worse_than_hash_on_clustered_graph(
        self, family_graphs
    ):
        graph = family_graphs["uniform-dense"]
        hash_cut = HashPartitioner().partition(graph, 4).edge_cut
        greedy_cut = GreedyEdgeCutPartitioner().partition(graph, 4).edge_cut
        assert greedy_cut <= hash_cut

    def test_validation_errors(self, family_graphs):
        graph = family_graphs["power-law"]
        with pytest.raises(KeyError, match="unknown partitioner"):
            get_partitioner("nope")
        with pytest.raises(ValueError, match="num_shards"):
            HashPartitioner().partition(graph, 0)
        with pytest.raises(ValueError, match="balance_tolerance"):
            GreedyEdgeCutPartitioner(balance_tolerance=-0.1)
        with pytest.raises(ValueError, match="assignment"):
            GraphPartition.from_assignment(
                graph, np.zeros(3, dtype=np.int64), 2
            )

    def test_boundary_counts_sum_to_edge_cut(self, family_graphs):
        partition = HashPartitioner().partition(family_graphs["power-law"], 3)
        assert sum(partition.boundary_counts().values()) == partition.edge_cut


# ---------------------------------------------------------------------------
# Sharded encode: the CGRGraph read contract
# ---------------------------------------------------------------------------

class TestShardedCGRGraph:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_adjacency_contract_matches_source_graph(
        self, partitioner, family_graphs, sharded_cache
    ):
        for family, graph in family_graphs.items():
            sharded = sharded_cache(family, partitioner, 4)
            assert sharded.num_nodes == graph.num_nodes
            assert sharded.num_edges == graph.num_edges
            assert sharded.decode_all() == graph.adjacency()
            for node in range(0, graph.num_nodes, 17):
                assert sharded.neighbors(node) == graph.neighbors(node)
                assert sharded.degree(node) == graph.out_degree(node)
            assert list(sharded.iter_adjacency()) == graph.adjacency()

    def test_statistics_aggregate_across_shards(self, family_graphs):
        graph = family_graphs["web-locality"]
        sharded = ShardedCGRGraph.from_graph(graph, 3)
        assert sharded.total_bits == sum(s.total_bits for s in sharded.shards)
        assert sharded.bits_per_edge == pytest.approx(
            sharded.total_bits / graph.num_edges
        )
        assert sharded.compression_rate == pytest.approx(
            32 / sharded.bits_per_edge
        )
        assert sharded.size_in_bytes() == sum(
            s.size_in_bytes() for s in sharded.shards
        )

    def test_out_of_range_nodes_raise(self, family_graphs):
        sharded = ShardedCGRGraph.from_graph(family_graphs["power-law"], 2)
        with pytest.raises(IndexError):
            sharded.neighbors(sharded.num_nodes)
        with pytest.raises(IndexError):
            sharded.owner(-1)


# ---------------------------------------------------------------------------
# Superstep execution: bit-identical to the unsharded engine
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def references(family_graphs):
    """Unsharded answers, computed once per family."""
    refs = {}
    for name, graph in family_graphs.items():
        engine = GCGTEngine.from_graph(graph)
        undirected = graph.to_undirected()
        refs[name] = {
            "bfs": {s: bfs(engine, s) for s in (0, 57)},
            "cc": connected_components(
                GCGTEngine.from_graph(undirected)
            ).labels,
            "ppr": personalized_pagerank(
                NaiveCPUEngine(graph), 3, epsilon=1e-4, degrees=graph.degrees()
            ),
            "undirected": undirected,
        }
    return refs


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("family", list(GRAPH_FAMILIES))
class TestShardedDifferential:
    """Every partitioner x shard count x family: exact agreement."""

    def test_bfs_levels_and_iterations_match(
        self, family, partitioner, family_graphs, references, sharded_cache
    ):
        for shards in SHARD_COUNTS:
            executor = ShardExecutor(sharded_cache(family, partitioner, shards))
            for source in (0, 57):
                expected = references[family]["bfs"][source]
                # Superstep-native BFS with shard-side admission...
                native = executor.bfs(source)
                np.testing.assert_array_equal(native.levels, expected.levels)
                assert native.iterations == expected.iterations
                # ...and the generic canonical-order expand path.
                generic = bfs(executor, source)
                np.testing.assert_array_equal(generic.levels, expected.levels)
                assert generic.iterations == expected.iterations

    def test_cc_labels_match(
        self, family, partitioner, references, sharded_cache
    ):
        undirected = references[family]["undirected"]
        for shards in SHARD_COUNTS:
            sharded = ShardedCGRGraph.from_graph(
                undirected, shards, partitioner=partitioner
            )
            result = connected_components(ShardExecutor(sharded))
            np.testing.assert_array_equal(result.labels, references[family]["cc"])

    def test_pagerank_bit_identical_across_shard_counts(
        self, family, partitioner, family_graphs, references, sharded_cache
    ):
        """Float-exact: the canonical gather order fixes the accumulation
        order, so estimates are bit-identical to the canonical unsharded
        run (realised by the Naive CPU engine) for every shard count."""
        graph = family_graphs[family]
        expected = references[family]["ppr"]
        for shards in SHARD_COUNTS:
            executor = ShardExecutor(sharded_cache(family, partitioner, shards))
            result = personalized_pagerank(
                executor, 3, epsilon=1e-4, degrees=graph.degrees()
            )
            assert np.array_equal(result.estimates, expected.estimates)
            assert np.array_equal(result.residuals, expected.residuals)
            assert result.iterations == expected.iterations
            assert result.pushes == expected.pushes


@pytest.mark.parametrize("rung", list(STRATEGY_LADDER))
def test_every_ladder_rung_agrees_when_sharded(rung, family_graphs):
    """Scheduling optimizations never change sharded answers either."""
    graph = family_graphs["power-law"]
    config = STRATEGY_LADDER[rung]
    engine = GCGTEngine.from_graph(graph, config=config)
    sharded = ShardedCGRGraph.from_graph(
        graph, 3, config=config.effective_cgr_config()
    )
    executor = ShardExecutor(sharded, config=config)
    np.testing.assert_array_equal(
        executor.bfs(0).levels, bfs(engine, 0).levels
    )
    np.testing.assert_array_equal(
        bfs(executor, 57).levels, bfs(engine, 57).levels
    )
    undirected = graph.to_undirected()
    np.testing.assert_array_equal(
        connected_components(
            ShardExecutor(
                ShardedCGRGraph.from_graph(
                    undirected, 3, config=config.effective_cgr_config()
                ),
                config=config,
            )
        ).labels,
        connected_components(
            GCGTEngine.from_graph(undirected, config=config)
        ).labels,
    )


def test_filter_call_sequence_is_canonical(family_graphs):
    """The generic expand replays filters in exactly the canonical order
    (frontier order, neighbours ascending), duplicates included -- the
    property every bit-identical guarantee above rests on."""
    graph = family_graphs["power-law"]
    frontier = [3, 3, 57, 0]
    calls_sharded: list[tuple[int, int]] = []
    calls_naive: list[tuple[int, int]] = []
    executor = ShardExecutor(ShardedCGRGraph.from_graph(graph, 4))

    executor.expand(
        frontier, lambda s, n: calls_sharded.append((s, n)) or False
    )
    NaiveCPUEngine(graph).expand(
        frontier, lambda s, n: calls_naive.append((s, n)) or False
    )
    assert calls_sharded == calls_naive


# ---------------------------------------------------------------------------
# Updates routed through shards
# ---------------------------------------------------------------------------

def _scripted_batches(graph: Graph, seed: int) -> list[list[EdgeUpdate]]:
    """A deterministic mixed insert/delete sequence over ``graph``'s id space."""
    rng = np.random.default_rng(seed)
    num_nodes = graph.num_nodes
    batches = []
    for _ in range(3):
        batch = []
        for _ in range(25):
            source = int(rng.integers(num_nodes))
            target = int(rng.integers(num_nodes))
            kind = "insert" if rng.random() < 0.6 else "delete"
            batch.append(EdgeUpdate(kind, source, target))
        batches.append(batch)
    return batches


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_update_sequences_keep_sharded_answers_exact(
    partitioner, shards, family_graphs
):
    """After every batch, sharded answers equal a from-scratch unsharded
    encode of the mutated graph -- for every partitioner and shard count."""
    graph = family_graphs["power-law"]
    executor = ShardExecutor(
        ShardedCGRGraph.from_graph(graph, shards, partitioner=partitioner)
    )
    current = graph
    for batch in _scripted_batches(graph, seed=shards):
        stats = executor.apply_updates(batch)
        current = current.with_edge_updates(stats.applied)
        assert executor.num_edges == current.num_edges
        fresh = GCGTEngine.from_graph(current)
        np.testing.assert_array_equal(
            executor.bfs(0).levels, bfs(fresh, 0).levels
        )
    assert executor.adjacency() == current.adjacency()
    assert executor.epoch > 0


def test_update_validation_is_all_or_nothing(family_graphs):
    executor = ShardExecutor(
        ShardedCGRGraph.from_graph(family_graphs["power-law"], 3)
    )
    edges_before = executor.num_edges
    with pytest.raises(ValueError, match="out of range"):
        executor.apply_updates(
            [EdgeUpdate.insert(0, 5), EdgeUpdate.insert(1, 10_000)]
        )
    assert executor.num_edges == edges_before
    assert executor.epoch == 0


# ---------------------------------------------------------------------------
# Executor behaviour: backends, counters, lifecycle
# ---------------------------------------------------------------------------

class TestExecutorMechanics:
    def test_exchange_counters_and_critical_path(self, family_graphs):
        graph = family_graphs["power-law"]
        executor = ShardExecutor(ShardedCGRGraph.from_graph(graph, 4))
        executor.bfs(0)
        counters = executor.counters()
        assert counters.supersteps > 0
        assert counters.exchange_volume > 0
        assert counters.boundary_messages > 0
        assert sum(counters.shard_touches) >= counters.supersteps
        assert counters.cost > 0
        # The critical path models one worker per shard: it must sit
        # between perfectly parallel and fully serial execution.
        assert executor.critical_cost <= executor.cost()
        assert 1.0 <= executor.parallel_speedup <= executor.num_shards
        assert executor.critical_elapsed_proxy() <= executor.elapsed_proxy()

    def test_thread_backend_matches_inline(self, family_graphs):
        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 3)
        reference = ShardExecutor(sharded).bfs(0)
        with ShardExecutor(sharded, backend="thread") as executor:
            result = executor.bfs(0)
            np.testing.assert_array_equal(result.levels, reference.levels)
            generic = bfs(executor, 0)
            np.testing.assert_array_equal(generic.levels, reference.levels)

    def test_process_backend_matches_inline_and_absorbs_updates(
        self, family_graphs
    ):
        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        reference = ShardExecutor(sharded)
        with ShardExecutor(sharded, backend="process") as executor:
            np.testing.assert_array_equal(
                executor.bfs(0).levels, reference.bfs(0).levels
            )
            batch = [EdgeUpdate.insert(0, 90), EdgeUpdate.delete(0, graph.neighbors(0)[0])]
            executor.apply_updates(batch)
            reference.apply_updates(batch)
            np.testing.assert_array_equal(
                executor.bfs(0).levels, reference.bfs(0).levels
            )
            assert executor.num_edges == reference.num_edges
            assert executor.live_bits() == reference.live_bits()
            assert executor.epoch > 0

    def test_closed_executor_refuses_work(self, family_graphs):
        executor = ShardExecutor(
            ShardedCGRGraph.from_graph(family_graphs["power-law"], 2)
        )
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.bfs(0)
        with pytest.raises(RuntimeError, match="closed"):
            executor.expand([0], lambda s, n: False)
        with pytest.raises(RuntimeError, match="closed"):
            executor.apply_updates([EdgeUpdate.insert(0, 1)])

    def test_validation(self, family_graphs):
        sharded = ShardedCGRGraph.from_graph(family_graphs["power-law"], 2)
        with pytest.raises(ValueError, match="backend"):
            ShardExecutor(sharded, backend="gpu-cluster")
        executor = ShardExecutor(sharded)
        with pytest.raises(IndexError):
            executor.bfs(10_000)
        assert executor.expand([], lambda s, n: True) == []
        assert executor.counters().supersteps == 0

    def test_live_bits_grow_with_overlay_side_stream(self, family_graphs):
        graph = family_graphs["power-law"]
        executor = ShardExecutor(ShardedCGRGraph.from_graph(graph, 3))
        before = executor.live_bits()
        executor.apply_updates([EdgeUpdate.insert(0, 90)])
        # The insert run lands in one shard's side stream; aggregate
        # accounting must see it.
        executor.bfs(0)
        assert executor.live_bits() > before


# ---------------------------------------------------------------------------
# Serving integration
# ---------------------------------------------------------------------------

class TestShardedService:
    @pytest.fixture()
    def services(self, family_graphs):
        graph = family_graphs["power-law"]
        plain = TraversalService()
        plain.register_graph("g", graph)
        sharded = TraversalService()
        sharded.register_graph("g", graph, shards=4, partitioner="greedy")
        return plain, sharded

    def test_mixed_batch_matches_unsharded_service(self, services):
        plain, sharded = services
        queries = [
            BFSQuery("g", 0),
            CCQuery("g"),
            BCQuery("g", 57),
            PageRankQuery("g", 3),
            BFSQuery("g", 57),
        ]
        expected = plain.submit(queries)
        observed = sharded.submit(queries)
        np.testing.assert_array_equal(
            observed[0].value.levels, expected[0].value.levels
        )
        np.testing.assert_array_equal(
            observed[1].value.labels, expected[1].value.labels
        )
        np.testing.assert_array_equal(
            observed[2].value.distances, expected[2].value.distances
        )
        # Both paths expand in canonical order: float answers are exact.
        np.testing.assert_array_equal(
            observed[2].value.delta, expected[2].value.delta
        )
        np.testing.assert_array_equal(
            observed[3].value.estimates, expected[3].value.estimates
        )
        np.testing.assert_array_equal(
            observed[4].value.levels, expected[4].value.levels
        )

    def test_shard_metrics_attributed_per_query(self, services):
        _, sharded = services
        first, second = sharded.submit([BFSQuery("g", 0), BFSQuery("g", 0)])
        for result in (first, second):
            assert result.metrics.shard_fanout >= 2
            assert result.metrics.exchange_volume > 0
            assert result.metrics.cost > 0
        # Unsharded registrations report zeros, and are served natively:
        # no simulated cost.
        plain, _ = services
        [result] = plain.submit([BFSQuery("g", 0)])
        assert result.metrics.shard_fanout == 0
        assert result.metrics.exchange_volume == 0
        assert result.metrics.cost == result.metrics.elapsed_proxy == 0.0

    def test_updates_route_through_shards_and_mirror_to_cc_sibling(
        self, services, family_graphs
    ):
        plain, sharded = services
        graph = family_graphs["power-law"]
        # Materialise both CC siblings first, so mirroring is exercised.
        plain.submit([CCQuery("g")])
        sharded.submit([CCQuery("g")])
        batches = _scripted_batches(graph, seed=99)
        for batch in batches:
            expected_stats = plain.apply_updates("g", batch)
            observed_stats = sharded.apply_updates("g", batch)
            assert observed_stats.inserted == expected_stats.inserted
            assert observed_stats.deleted == expected_stats.deleted
            expected = plain.submit([BFSQuery("g", 0), CCQuery("g")])
            observed = sharded.submit([BFSQuery("g", 0), CCQuery("g")])
            np.testing.assert_array_equal(
                observed[0].value.levels, expected[0].value.levels
            )
            np.testing.assert_array_equal(
                observed[1].value.labels, expected[1].value.labels
            )
        assert sharded.stats().update_batches == len(batches)
        [result] = sharded.submit([BFSQuery("g", 0)])
        assert result.metrics.graph_epoch > 0

    def test_stats_report_sharding_and_compression(self, services):
        _, sharded = services
        sharded.submit([BFSQuery("g", 0), CCQuery("g")])
        stats = sharded.stats()
        entry = sharded.registry.resolve("g")
        assert entry.is_sharded and entry.shards == 4
        assert stats.bits_per_edge["g"] == pytest.approx(entry.bits_per_edge)
        assert "g#undirected" not in stats.bits_per_edge
        assert stats.exchange_volume > 0
        # One encode per shard, directed + undirected sibling.
        assert stats.encode_calls == 8
        # Inline shard engines keep real plan caches; queries must hit them.
        assert stats.cache_hits + stats.cache_misses > 0

    def test_replace_preserves_sharding_spec(self, services, family_graphs):
        _, sharded = services
        mutated = family_graphs["power-law"].with_edge_updates(
            [EdgeUpdate.insert(0, 90)]
        )
        entry = sharded.replace_graph("g", mutated)
        assert entry.is_sharded and entry.shards == 4
        [result] = sharded.submit([BFSQuery("g", 0)])
        np.testing.assert_array_equal(
            result.value.levels, bfs(GCGTEngine.from_graph(mutated), 0).levels
        )

    def test_pagerank_query_on_unsharded_service(self, family_graphs):
        graph = family_graphs["web-locality"]
        service = TraversalService()
        service.register_graph("w", graph)
        [result] = service.submit([PageRankQuery("w", 5, epsilon=1e-5)])
        # The service expands in canonical order, as the naive CPU engine
        # does, so the estimates agree bit for bit.
        expected = personalized_pagerank(
            NaiveCPUEngine(graph), 5, epsilon=1e-5, degrees=graph.degrees(),
        )
        np.testing.assert_array_equal(
            result.value.estimates, expected.estimates
        )
        assert result.kind == "pagerank"
        assert result.metrics.cost == result.metrics.elapsed_proxy == 0.0

    def test_pagerank_simulated_cost_on_engine_session(self, family_graphs):
        # Simulated cost lives on the GCGT engine, which the paper's
        # figures drive directly; the served query above reports none.
        graph = family_graphs["web-locality"]
        engine = GCGTEngine.from_graph(
            graph, plan_cache=DecodedAdjacencyCache()
        )
        session = engine.new_session()
        personalized_pagerank(
            session, 5, epsilon=1e-5, degrees=graph.degrees()
        )
        assert session.cost() > 0
        assert engine.device.elapsed_proxy(session.metrics) > 0


# ---------------------------------------------------------------------------
# Regression coverage for review findings
# ---------------------------------------------------------------------------

class TestShardedLifecycleAndConfig:
    def test_replace_keeps_sharded_cache_counters_monotonic(
        self, family_graphs
    ):
        """Replacing a sharded entry must not reset aggregate cache stats
        (the unsharded path keeps its cache object; the sharded path carries
        the counters into the fresh per-shard caches)."""
        graph = family_graphs["power-law"]
        service = TraversalService()
        service.register_graph("g", graph, shards=3)
        service.submit([BFSQuery("g", 0)])
        before = service.stats()
        assert before.cache_misses > 0
        service.replace_graph("g", graph)
        after = service.stats()
        assert after.cache_hits >= before.cache_hits
        assert after.cache_misses >= before.cache_misses
        # The replaced caches' resident plans surface as evictions.
        assert after.cache_evictions > before.cache_evictions

    def test_process_workers_honour_compaction_policy(self, family_graphs):
        """The process backend must ship the executor's compaction policy to
        its workers, matching the inline backend's behaviour."""
        from repro.dynamic.compaction import CompactionPolicy

        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        policy = CompactionPolicy(min_delta=1, degree_fraction=0.0)
        batch = [EdgeUpdate.insert(0, target) for target in (90, 91, 92)]
        inline = ShardExecutor(sharded, compaction_policy=policy)
        inline_stats = inline.apply_updates(batch)
        assert inline_stats.compactions > 0
        with ShardExecutor(
            sharded, backend="process", compaction_policy=policy
        ) as executor:
            process_stats = executor.apply_updates(batch)
            assert process_stats.compactions == inline_stats.compactions
            np.testing.assert_array_equal(
                executor.bfs(0).levels, inline.bfs(0).levels
            )

    def test_service_close_shuts_sharded_executors(self, family_graphs):
        graph = family_graphs["power-law"]
        with TraversalService() as service:
            service.register_graph("g", graph, shards=2)
            service.submit([CCQuery("g")])  # materialise the sharded sibling
            entry = service.registry.resolve("g")
        assert entry.executor._closed
        assert entry.undirected is not None
        assert entry.undirected.executor._closed
        with pytest.raises(RuntimeError, match="closed"):
            entry.executor.bfs(0)

    def test_stats_survive_close_on_process_backend(self, family_graphs):
        """Monitoring keeps working after shutdown: bits_per_edge reports the
        last live-bit snapshot instead of submitting to dead worker pools."""
        graph = family_graphs["power-law"]
        with TraversalService() as service:
            service.register_graph(
                "g", graph, shards=2, executor_backend="process"
            )
            service.apply_updates("g", [EdgeUpdate.insert(0, 90)])
            live = service.stats().bits_per_edge["g"]
        after_close = service.stats().bits_per_edge["g"]
        assert after_close == pytest.approx(live)

    def test_epoch_counts_effective_batches_on_every_backend(
        self, family_graphs
    ):
        """graph_epoch means 'effective update batches absorbed' whatever the
        backend -- one multi-shard batch bumps it once, not once per shard."""
        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 3)
        multi_shard_batch = [
            EdgeUpdate.insert(0, 90),
            EdgeUpdate.insert(40, 2),
            EdgeUpdate.insert(80, 5),
        ]
        inline = ShardExecutor(sharded)
        assert len(inline.partition.split_frontier([0, 40, 80])) > 1
        with ShardExecutor(sharded, backend="process") as process:
            for executor in (inline, process):
                executor.apply_updates(multi_shard_batch)
                assert executor.epoch == 1
                # Ineffective batches leave the epoch alone.
                executor.apply_updates([EdgeUpdate.insert(0, 90)])
                assert executor.epoch == 1
                executor.apply_updates([EdgeUpdate.delete(0, 90)])
                assert executor.epoch == 2


# ---------------------------------------------------------------------------
# Robustness: worker failure, bounded shutdown, cancellation checkpoints
# ---------------------------------------------------------------------------

class TestExecutorRobustness:
    """The executor must fail fast and shut down promptly when workers die,
    and honour cooperative cancellation between supersteps -- the contracts
    the front door (:mod:`repro.server`) builds its deadlines on."""

    def test_dead_worker_fails_fast_with_shard_named(self, family_graphs):
        """SIGKILLing a shard's worker process must surface as a
        ShardWorkerError naming the failure, not a hang or a bare
        BrokenProcessPool several calls later."""
        import os
        import signal

        from repro.shard import ShardWorkerError

        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        with ShardExecutor(sharded, backend="process") as executor:
            executor.bfs(0)  # workers warm and known-good
            victim_pool = executor._process_pools[0]
            for process in victim_pool._processes.values():
                os.kill(process.pid, signal.SIGKILL)
            with pytest.raises(ShardWorkerError, match="worker process died"):
                executor.bfs(0)

    def test_dead_worker_fails_updates_too(self, family_graphs):
        import os
        import signal

        from repro.shard import ShardWorkerError

        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        with ShardExecutor(sharded, backend="process") as executor:
            for pool in executor._process_pools:
                for process in pool._processes.values():
                    os.kill(process.pid, signal.SIGKILL)
            with pytest.raises(ShardWorkerError):
                executor.apply_updates([EdgeUpdate.insert(0, 1)])

    def test_close_with_timeout_returns_promptly_after_worker_death(
        self, family_graphs
    ):
        """close(timeout=...) must not hang on already-dead workers."""
        import os
        import signal
        import time

        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        executor = ShardExecutor(sharded, backend="process")
        for pool in executor._process_pools:
            for process in pool._processes.values():
                os.kill(process.pid, signal.SIGKILL)
        started = time.monotonic()
        executor.close(timeout=5.0)
        assert time.monotonic() - started < 5.0
        with pytest.raises(RuntimeError, match="closed"):
            executor.bfs(0)

    def test_close_timeout_on_healthy_pool_still_joins_cleanly(
        self, family_graphs
    ):
        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        executor = ShardExecutor(sharded, backend="process")
        executor.bfs(0)
        executor.close(timeout=10.0)
        executor.close(timeout=10.0)  # idempotent

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_checkpoint_polled_between_supersteps(self, family_graphs, backend):
        """An installed checkpoint runs once per superstep and its exception
        aborts the traversal between supersteps, leaving counters consistent."""

        class Abort(Exception):
            pass

        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        with ShardExecutor(sharded, backend=backend) as executor:
            calls = {"n": 0}

            def checkpoint():
                calls["n"] += 1
                if calls["n"] > 2:
                    raise Abort()

            executor.checkpoint = checkpoint
            with pytest.raises(Abort):
                executor.bfs(0)
            # Exactly the supersteps before the abort ran: poll count is
            # one ahead of the executed supersteps.
            assert executor.counters().supersteps == 2
            executor.checkpoint = None
            result = executor.bfs(0)
            assert result.levels[0] == 0

    def test_checkpoint_polls_msbfs_and_gather(self, family_graphs):
        class Abort(Exception):
            pass

        def tripwire():
            raise Abort()

        graph = family_graphs["uniform-dense"]
        sharded = ShardedCGRGraph.from_graph(graph, 2)
        with ShardExecutor(sharded) as executor:
            executor.checkpoint = tripwire
            with pytest.raises(Abort):
                executor.msbfs([0, 1, 2])
            with pytest.raises(Abort):
                executor.gather_adjacency([0, 1])
            with pytest.raises(Abort):
                executor.expand([0], lambda s, n: False)
            executor.checkpoint = None
            assert executor.msbfs([0]).lane_levels[0, 0] == 0

    def test_service_submit_checkpoint_between_queries(self, family_graphs):
        """TraversalService.submit polls the checkpoint between queries and
        installs it on sharded executors for the duration of each query."""

        class Abort(Exception):
            pass

        graph = family_graphs["uniform-dense"]
        service = TraversalService()
        service.register_graph("g", graph, shards=2)
        calls = {"n": 0}

        def checkpoint():
            calls["n"] += 1
            if calls["n"] > 4:
                raise Abort()

        with pytest.raises(Abort):
            service.submit(
                [CCQuery("g"), CCQuery("g"), CCQuery("g")],
                checkpoint=checkpoint,
            )
        # The hook is uninstalled afterwards; plain submits run clean.
        entry = service.registry.resolve("g")
        assert entry.executor.checkpoint is None
        results = service.submit([BFSQuery("g", source=0)])
        assert results[0].value.levels[0] == 0
        service.close()
