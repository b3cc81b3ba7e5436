"""Breadth-first search on the frontier pipeline.

BFS is the primary workload of the paper's evaluation (Figure 8): starting
from a source node, each iteration labels the unvisited neighbours of the
frontier with the next level and carries them forward.  The filter callback
is the BFS-specific piece of Figure 7(b): admit a neighbour exactly once,
when it is first discovered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.pipeline import FrontierEngine, run_frontier_pipeline

#: Level value of nodes the traversal never reached.
UNREACHED = -1


@dataclass
class BFSResult:
    """Output of one BFS run."""

    source: int
    levels: np.ndarray
    iterations: int

    @property
    def visited_count(self) -> int:
        """Number of nodes reached from the source (including the source)."""
        return int((self.levels != UNREACHED).sum())

    @property
    def max_level(self) -> int:
        """Depth of the BFS tree (0 when only the source was reached)."""
        reached = self.levels[self.levels != UNREACHED]
        return int(reached.max()) if len(reached) else 0

    def level_of(self, node: int) -> int:
        """The discovery level of ``node`` (``UNREACHED`` when unvisited).

        Raises :class:`IndexError` for out-of-range ids, including negative
        ones -- a negative id is a caller bug, not a request for Python's
        from-the-end indexing.
        """
        if not 0 <= node < len(self.levels):
            raise IndexError(
                f"node {node} out of range [0, {len(self.levels)})"
            )
        return int(self.levels[node])


def bfs(engine: FrontierEngine, source: int) -> BFSResult:
    """Run BFS from ``source`` on any frontier engine.

    An engine that hands out whole decoded neighbour arrays
    (``neighbor_arrays``, the native serving engine) runs it as a one-lane
    array sweep of :func:`~repro.traversal.msbfs.msbfs`; levels and
    iterations are the same as the expand pipeline's below.
    """
    num_nodes = engine.num_nodes
    if not 0 <= source < num_nodes:
        raise IndexError(f"source {source} out of range [0, {num_nodes})")
    if hasattr(engine, "neighbor_arrays"):
        # Imported here: the traversal package builds on this module.
        from repro.traversal.msbfs import msbfs

        sweep = msbfs(engine, [source])
        return BFSResult(
            source=source,
            levels=sweep.lane_levels[0],
            iterations=sweep.lane_iterations[0],
        )
    levels = np.full(num_nodes, UNREACHED, dtype=np.int64)
    levels[source] = 0
    current_level = 0

    def make_filter(level: int):
        def admit_unvisited(parent: int, neighbor: int) -> bool:
            if levels[neighbor] == UNREACHED:
                levels[neighbor] = level
                return True
            return False

        return admit_unvisited

    frontier = [source]
    iterations = 0
    while frontier:
        current_level += 1
        frontier = engine.expand(frontier, make_filter(current_level))
        iterations += 1
    return BFSResult(source=source, levels=levels, iterations=iterations)


def reference_bfs_levels(adjacency: list[list[int]], source: int) -> np.ndarray:
    """Plain sequential BFS used by the tests as ground truth."""
    from collections import deque

    levels = np.full(len(adjacency), UNREACHED, dtype=np.int64)
    levels[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if levels[neighbor] == UNREACHED:
                levels[neighbor] = levels[node] + 1
                queue.append(neighbor)
    return levels


__all__ = ["BFSResult", "bfs", "reference_bfs_levels", "UNREACHED", "run_frontier_pipeline"]
