"""Native frontier execution: decode and filter with no SIMT simulation.

The simulated engine (:class:`~repro.traversal.gcgt.GCGTEngine`) charges
every decoded bit to a modelled warp; that is what the paper's figures
measure, and what a served answer does not need.  :class:`NativeSession`
answers the same frontier applications directly over the compressed graph:

* each frontier node's live neighbour list is decoded once per node epoch
  into a compact ``int32`` array
  (:meth:`~repro.dynamic.DeltaOverlay.live_neighbors`) and kept in the
  entry's epoch-keyed :class:`~repro.service.cache.DecodedAdjacencyCache`,
  so an update batch invalidates exactly the nodes it mutated;
* :meth:`NativeSession.expand` visits frontier nodes in order and each
  node's live neighbours in ascending order -- the canonical order of the
  naive CPU engine and of the sharded gather -- so every application runs
  unchanged and float-valued answers (PageRank, BC) are identical on every
  path, bit for bit;
* a cache miss also records the device-memory read of the node's
  compressed bit ranges (:meth:`~repro.gpu.memory.DeviceMemory.
  access_bit_ranges`, coalesced per cache line within the session), so a
  query reports the compressed traffic its decodes fetched
  (:attr:`NativeSession.metrics`) without simulating a warp;
* :meth:`NativeSession.bfs` and :meth:`NativeSession.msbfs` are the same
  entry points as :meth:`~repro.shard.executor.ShardExecutor.bfs` /
  :meth:`~repro.shard.executor.ShardExecutor.msbfs`, so the service calls
  one method on either engine.  Both run
  :func:`~repro.traversal.msbfs.msbfs`'s array sweep over
  :meth:`NativeSession.neighbor_arrays` (concatenate, mask the unvisited,
  ``np.unique``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.apps.bfs import BFSResult, bfs
from repro.gpu.memory import CACHE_LINE_BYTES, DeviceMemory
from repro.gpu.metrics import KernelMetrics
from repro.traversal.msbfs import MSBFSResult, msbfs

if TYPE_CHECKING:  # the dynamic and service layers build on this package
    from repro.dynamic.overlay import DeltaOverlay
    from repro.service.cache import DecodedAdjacencyCache


class NativeSession:
    """A per-query frontier engine over a resident delta overlay.

    ``cache`` holds the overlay's decoded neighbour arrays keyed by each
    node's mutation epoch, and counts hits, misses and decode time.
    ``metrics`` counts the device-memory traffic of this session's cache
    misses (``memory_transactions`` / ``memory_words``); nothing else is
    simulated.  The session holds no other state, so one per query is free.
    """

    def __init__(
        self,
        overlay: DeltaOverlay,
        cache: DecodedAdjacencyCache,
        cache_line_bytes: int = CACHE_LINE_BYTES,
    ) -> None:
        self.overlay = overlay
        self.cache = cache
        self.metrics = KernelMetrics()
        self.memory = DeviceMemory(
            self.metrics, cache_line_bytes=cache_line_bytes
        )

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the resident graph."""
        return self.overlay.num_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """The live sorted neighbours of ``node``, from the cache when warm."""
        return self.cache.lookup(
            node, lambda: self._decode(node), self.overlay.node_epoch(node)
        )

    def _decode(self, node: int) -> np.ndarray:
        neighbors = self.overlay.live_neighbors(node)
        self.memory.access_bit_ranges(self.overlay.node_bit_ranges(node))
        return neighbors

    def neighbor_arrays(self, frontier: np.ndarray) -> list[np.ndarray]:
        """Each frontier node's live sorted neighbours, in frontier order."""
        return [self.neighbors(node) for node in frontier.tolist()]

    def expand(
        self, frontier: Sequence[int], filter_fn: Callable[[int, int], bool]
    ) -> list[int]:
        """One expansion step in canonical order (see the module docstring)."""
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in self.neighbors(node).tolist():
                if filter_fn(node, neighbor):
                    next_frontier.append(neighbor)
        return next_frontier

    def bfs(self, source: int) -> BFSResult:
        """BFS from ``source``; levels and iterations equal
        :func:`~repro.apps.bfs.bfs` on any frontier engine."""
        return bfs(self, source)

    def msbfs(self, sources: Sequence[int]) -> MSBFSResult:
        """Up to :data:`~repro.traversal.msbfs.LANE_WIDTH` BFS searches in
        one lane-packed sweep; every lane equals a sequential BFS."""
        return msbfs(self, sources)


__all__ = ["NativeSession"]
