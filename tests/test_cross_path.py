"""One answer per (graph, epoch, query), whatever path serves it.

The unsharded service (native execution), the sharded service at 1, 2 and
4 inline shards (scatter-gather supersteps) and the naive CPU engine all
expand frontier nodes in order and neighbours in ascending order, so every
answer -- float-valued PageRank and BC included -- must agree bit for bit,
before and after an update batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.cc import connected_components
from repro.apps.pagerank import personalized_pagerank
from repro.baselines.cpu import NaiveCPUEngine
from repro.dynamic.updates import EdgeUpdate
from repro.service import (
    BCQuery,
    BFSQuery,
    CCQuery,
    PageRankQuery,
    TraversalService,
)
from test_differential import GRAPH_FAMILIES

SOURCES = (0, 57)
SHARD_COUNTS = (1, 2, 4)


def _updates(graph) -> list[EdgeUpdate]:
    """A deterministic batch touching hubs: inserts plus real deletions."""
    batch = [EdgeUpdate.insert(0, 90), EdgeUpdate.insert(57, 3)]
    for node in (0, 1, 57):
        neighbors = graph.neighbors(node)
        if neighbors:
            batch.append(EdgeUpdate.delete(node, neighbors[0]))
    return batch


def _answers(service: TraversalService) -> dict:
    """Every query kind, once individually and once as an MS-BFS group."""
    single = {}
    for source in SOURCES:
        [bfs_result] = service.submit([BFSQuery("g", source)])
        [ppr] = service.submit([PageRankQuery("g", source)])
        [bc] = service.submit([BCQuery("g", source)])
        single[source] = (bfs_result.value, ppr.value, bc.value)
    grouped = service.submit([BFSQuery("g", source) for source in SOURCES])
    assert all(result.metrics.batch_lanes == len(SOURCES) for result in grouped)
    [cc] = service.submit([CCQuery("g")])
    return {
        "single": single,
        "grouped": [result.value for result in grouped],
        "cc": cc.value.labels,
    }


def _naive_answers(graph) -> dict:
    single = {}
    for source in SOURCES:
        single[source] = (
            bfs(NaiveCPUEngine(graph), source),
            personalized_pagerank(
                NaiveCPUEngine(graph), source, degrees=graph.degrees()
            ),
            betweenness_centrality(NaiveCPUEngine(graph), source),
        )
    return {
        "single": single,
        "grouped": [single[source][0] for source in SOURCES],
        "cc": connected_components(
            NaiveCPUEngine(graph.to_undirected())
        ).labels,
    }


def _assert_identical(observed: dict, expected: dict) -> None:
    for source in SOURCES:
        got_bfs, got_ppr, got_bc = observed["single"][source]
        want_bfs, want_ppr, want_bc = expected["single"][source]
        np.testing.assert_array_equal(got_bfs.levels, want_bfs.levels)
        assert got_bfs.iterations == want_bfs.iterations
        np.testing.assert_array_equal(got_ppr.estimates, want_ppr.estimates)
        np.testing.assert_array_equal(got_ppr.residuals, want_ppr.residuals)
        assert got_ppr.iterations == want_ppr.iterations
        assert got_ppr.pushes == want_ppr.pushes
        np.testing.assert_array_equal(got_bc.distances, want_bc.distances)
        np.testing.assert_array_equal(got_bc.sigma, want_bc.sigma)
        np.testing.assert_array_equal(got_bc.delta, want_bc.delta)
    for got, want in zip(observed["grouped"], expected["grouped"]):
        np.testing.assert_array_equal(got.levels, want.levels)
        assert got.iterations == want.iterations
    np.testing.assert_array_equal(observed["cc"], expected["cc"])


@pytest.mark.parametrize("updated", [False, True], ids=["static", "updated"])
@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_every_path_gives_the_same_answer(family, updated):
    graph = GRAPH_FAMILIES[family]()
    services = {"unsharded": TraversalService()}
    services["unsharded"].register_graph("g", graph)
    for shards in SHARD_COUNTS:
        service = TraversalService()
        service.register_graph("g", graph, shards=shards)
        services[f"{shards}-shard"] = service
    try:
        if updated:
            batch = _updates(graph)
            for service in services.values():
                service.apply_updates("g", batch)
            graph = graph.with_edge_updates(batch)
        expected = _naive_answers(graph)
        for name, service in services.items():
            assert service.registry.resolve("g").graph == graph, name
            _assert_identical(_answers(service), expected)
    finally:
        for service in services.values():
            service.close()
