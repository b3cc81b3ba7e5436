"""Tests for the personalized PageRank extension (Section 6)."""

import numpy as np
import pytest

from repro.apps.pagerank import personalized_pagerank, reference_pagerank
from repro.baselines.cpu import NaiveCPUEngine
from repro.baselines.gpucsr import GPUCSREngine
from repro.graph.graph import Graph
from repro.traversal.gcgt import GCGTEngine


@pytest.fixture
def strongly_connected_graph() -> Graph:
    """A small graph with no dangling nodes (every node has out-edges)."""
    n = 24
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, (i + 7) % n))
        edges.append((i, (i * 3 + 1) % n))
    return Graph.from_edges(n, edges)


class TestPersonalizedPageRank:
    @pytest.mark.parametrize("builder", [GCGTEngine.from_graph, GPUCSREngine.from_graph])
    def test_close_to_power_iteration_reference(self, strongly_connected_graph, builder):
        graph = strongly_connected_graph
        engine = builder(graph)
        result = personalized_pagerank(
            engine, source=0, epsilon=1e-7, degrees=graph.degrees()
        )
        reference = reference_pagerank(graph.adjacency(), source=0)
        assert np.allclose(result.estimates, reference, atol=2e-3)

    def test_source_has_largest_estimate(self, strongly_connected_graph):
        engine = GCGTEngine.from_graph(strongly_connected_graph)
        result = personalized_pagerank(
            engine, source=5, epsilon=1e-6, degrees=strongly_connected_graph.degrees()
        )
        assert result.top_nodes(1) == [5]
        assert result.pushes > 0

    def test_mass_is_conserved_up_to_truncation(self, strongly_connected_graph):
        graph = strongly_connected_graph
        engine = GCGTEngine.from_graph(graph)
        result = personalized_pagerank(engine, source=0, epsilon=1e-6, degrees=graph.degrees())
        total = result.estimates.sum() + result.residuals.sum()
        assert total == pytest.approx(1.0, abs=1e-6)
        assert result.estimates.sum() <= 1.0 + 1e-9

    def test_residuals_below_threshold_at_termination(self, strongly_connected_graph):
        graph = strongly_connected_graph
        engine = GCGTEngine.from_graph(graph)
        epsilon = 1e-5
        result = personalized_pagerank(engine, source=0, epsilon=epsilon, degrees=graph.degrees())
        thresholds = epsilon * np.maximum(1.0, graph.degrees())
        assert np.all(result.residuals <= thresholds + 1e-12)

    def test_works_without_precomputed_degrees(self, strongly_connected_graph):
        engine = GCGTEngine.from_graph(strongly_connected_graph)
        result = personalized_pagerank(engine, source=0, epsilon=1e-3)
        assert result.estimates[0] > 0

    def test_measured_degrees_do_not_leak_across_engines(self):
        """Regression: degrees measured without ``degrees=`` were cached
        per ``id(engine)`` for the life of the process, so a later engine
        over another graph that reused a freed id got stale degrees."""
        graphs = [
            Graph([[1, 2, 3], [0], [0], [0]]),
            Graph([[1], [2, 3], [0], [0]]),
        ]
        expected = [
            personalized_pagerank(
                NaiveCPUEngine(graph), 0, epsilon=1e-6, degrees=graph.degrees()
            ).estimates
            for graph in graphs
        ]
        wrong = 0
        for call in range(50):
            index = call % 2
            # A fresh engine per call, dropped straight after: CPython
            # readily hands the next one the same id.
            result = personalized_pagerank(
                NaiveCPUEngine(graphs[index]), 0, epsilon=1e-6
            )
            wrong += not np.array_equal(result.estimates, expected[index])
        assert wrong == 0

    def test_gcgt_and_csr_engines_agree(self, strongly_connected_graph):
        graph = strongly_connected_graph
        gcgt = personalized_pagerank(
            GCGTEngine.from_graph(graph), 0, epsilon=1e-6, degrees=graph.degrees()
        )
        csr = personalized_pagerank(
            GPUCSREngine.from_graph(graph), 0, epsilon=1e-6, degrees=graph.degrees()
        )
        assert np.allclose(gcgt.estimates, csr.estimates)

    def test_parameter_validation(self, strongly_connected_graph):
        engine = GCGTEngine.from_graph(strongly_connected_graph)
        with pytest.raises(ValueError):
            personalized_pagerank(engine, 0, alpha=1.5)
        with pytest.raises(ValueError):
            personalized_pagerank(engine, 0, epsilon=0.0)
        with pytest.raises(IndexError):
            personalized_pagerank(engine, 999)
