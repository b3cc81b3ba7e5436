"""Answer checks against the program's reference implementations.

BFS and CC answers must equal the sequential oracles bit for bit.  A
personalized PageRank query must agree with the naive CPU engine's push to
float rounding (the two expand neighbours in different orders); a view's
approximate PageRank must lie within its residual certificate of it.
"""

from __future__ import annotations

import numpy as np

from repro.apps.bfs import reference_bfs_levels
from repro.apps.cc import reference_components
from repro.apps.pagerank import personalized_pagerank
from repro.baselines.cpu import NaiveCPUEngine
from repro.graph.graph import Graph

#: L1 tolerance between two float64 pushes of the same PPR, summed over a
#: few thousand entries that each differ by at most a few ulps.
PPR_TOLERANCE = 1e-9


class StaticOracle:
    """Reference answers for one fixed graph, computed once per input."""

    def __init__(self, graph: Graph, epsilon: float) -> None:
        self.graph = graph
        self.epsilon = epsilon
        self._adjacency = graph.adjacency()
        self._components = None
        self._levels: dict[int, np.ndarray] = {}
        self._ppr: dict[int, object] = {}

    def levels(self, source: int) -> np.ndarray:
        if source not in self._levels:
            self._levels[source] = reference_bfs_levels(self._adjacency, source)
        return self._levels[source]

    def components(self) -> np.ndarray:
        if self._components is None:
            self._components = reference_components(self._adjacency)
        return self._components

    def ppr(self, source: int):
        if source not in self._ppr:
            self._ppr[source] = personalized_pagerank(
                NaiveCPUEngine(self.graph), source,
                epsilon=self.epsilon, degrees=self.graph.degrees(),
            )
        return self._ppr[source]

    def check(self, kind: str, source: int, value) -> bool:
        """Whether a fresh query answer is right."""
        if kind == "bfs":
            return np.array_equal(value.levels, self.levels(source))
        if kind == "cc":
            return self.check_components(value.labels)
        if kind == "ppr":
            reference = self.ppr(source)
            return (
                np.abs(value.estimates - reference.estimates).sum()
                <= PPR_TOLERANCE
                and np.abs(value.residuals - reference.residuals).sum()
                <= PPR_TOLERANCE
            )
        raise ValueError(f"unknown read kind {kind!r}")

    def check_components(self, labels) -> bool:
        return np.array_equal(labels, self.components())

    def check_ppr_certificate(self, source: int, value) -> bool:
        """Both pushes are within their residual mass of the true PPR."""
        reference = self.ppr(source)
        gap = float(np.abs(value.estimates - reference.estimates).sum())
        bound = (
            value.error_bound
            + float(np.abs(reference.residuals).sum())
            + PPR_TOLERANCE
        )
        return gap <= bound
