"""Bit-parallel multi-source BFS (MS-BFS) on the packed-word substrate.

Point queries -- distance, reachability, k-hop neighbourhoods -- arrive from
*many different sources* over the *same* resident graph.  Running one full
BFS per source decodes every adjacency list once per query; MS-BFS (Then et
al., "The More the Merrier: Efficient Multi-Source BFS", VLDB 2015) packs up
to 64 concurrent searches into one ``uint64`` **lane mask per node** so a
single frontier sweep -- and a single structural decode of each adjacency
list through the existing :class:`~repro.traversal.context.NodePlan` /
:class:`~repro.service.cache.DecodedAdjacencyCache` path -- advances all 64
searches at once:

* ``seen[v]`` -- which lanes (sources) have already discovered ``v``;
* ``frontier[v]`` -- which lanes hold ``v`` in the current frontier;
* one sweep ORs every frontier node's mask into its neighbours, and the
  lanes newly set in ``next[w] & ~seen[w]`` are exactly the searches that
  discover ``w`` at this depth.

The sweep itself runs through the engine's ordinary
``expand(frontier, filter_fn)`` pipeline, so the warp-level cost model, the
strategy ladder and the decoded-plan cache all apply unchanged: the filter
callback is the lane-aware admission of Figure 7(b), admitting a node into
the next frontier exactly once per sweep however many lanes reach it.  An
engine that holds decoded neighbour arrays (native serving, see
:mod:`repro.traversal.native`) runs the same sweep as array operations over
them instead, one lane being a single BFS.  BFS levels are
distance-determined, so every lane's extracted
:class:`~repro.apps.bfs.BFSResult` is bit-identical to a sequential
:func:`~repro.apps.bfs.bfs` from the same source -- the differential suite
in ``tests/test_msbfs.py`` pins this across graph families, strategy rungs
and shard counts.

Word width is the natural boundary: masks stay single machine words, which
is the same 64-bit packing the compression engine's
:mod:`~repro.compression.bitarray` words use.  Batches wider than
:data:`LANE_WIDTH` are the caller's concern (the service spills them into
consecutive sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.apps.bfs import BFSResult, UNREACHED
from repro.apps.pipeline import FrontierEngine

#: Concurrent searches one sweep carries: one lane per bit of a uint64 mask.
LANE_WIDTH = 64


@dataclass
class MSBFSResult:
    """Output of one lane-packed multi-source BFS sweep.

    Attributes:
        sources: the batch's source nodes, lane ``i`` serving ``sources[i]``.
        lane_levels: discovery levels, shape ``(len(sources), num_nodes)``;
            row ``i`` is bit-identical to ``bfs(engine, sources[i]).levels``.
        lane_iterations: per-lane frontier iteration counts, each equal to
            the sequential ``bfs()`` iteration count from that source.
        sweeps: shared frontier sweeps the packed traversal executed -- the
            whole batch's cost is proportional to this, not to the sum of
            ``lane_iterations``.
    """

    sources: tuple[int, ...]
    lane_levels: np.ndarray
    lane_iterations: tuple[int, ...]
    sweeps: int

    @property
    def num_lanes(self) -> int:
        """Number of packed searches (== ``len(sources)``)."""
        return len(self.sources)

    def result_for(self, lane: int) -> BFSResult:
        """Extract lane ``lane``'s answer as an independent :class:`BFSResult`.

        The returned object is bit-identical (levels, iterations, source) to
        a sequential :func:`~repro.apps.bfs.bfs` from the lane's source and
        owns its levels array, so callers can mutate results independently.
        """
        if not 0 <= lane < self.num_lanes:
            raise IndexError(
                f"lane {lane} out of range [0, {self.num_lanes})"
            )
        return BFSResult(
            source=self.sources[lane],
            levels=self.lane_levels[lane].copy(),
            iterations=self.lane_iterations[lane],
        )

    def results(self) -> list[BFSResult]:
        """Every lane's answer, in lane (submission) order."""
        return [self.result_for(lane) for lane in range(self.num_lanes)]


def lane_iterations_from_levels(levels: np.ndarray) -> tuple[int, ...]:
    """Per-lane sequential-BFS iteration counts from a lane-level matrix.

    A sequential BFS expands one frontier per level, including the final
    expansion of the deepest frontier that comes back empty, so its
    iteration count is ``deepest level + 1`` -- the source alone still costs
    one iteration.  Shared helper of the in-process sweep and the sharded
    superstep path, so both report iteration counts bit-identical to
    :func:`~repro.apps.bfs.bfs`.
    """
    reached = levels != UNREACHED
    deepest = np.where(reached, levels, 0).max(axis=1)
    return tuple(int(depth) + 1 for depth in deepest)


def validate_sources(sources: Sequence[int], num_nodes: int) -> tuple[int, ...]:
    """Range-check a source batch; returns it as a tuple of plain ints.

    Raises :class:`ValueError` for an empty batch and :class:`IndexError`
    for any out-of-range source (matching :func:`~repro.apps.bfs.bfs`, which
    refuses bad sources before touching any traversal state).  Duplicates
    are fine -- each occupies its own lane.
    """
    batch = tuple(int(source) for source in sources)
    if not batch:
        raise ValueError("MS-BFS needs at least one source")
    for source in batch:
        if not 0 <= source < num_nodes:
            raise IndexError(
                f"source {source} out of range [0, {num_nodes})"
            )
    return batch


def msbfs(engine: FrontierEngine, sources: Sequence[int]) -> MSBFSResult:
    """Run up to :data:`LANE_WIDTH` BFS searches in one lane-packed sweep.

    ``engine`` is any frontier engine -- a resident
    :class:`~repro.traversal.gcgt.GCGTEngine`, a per-query
    :class:`~repro.traversal.gcgt.TraversalSession` (so the sweep's
    simulated cost accumulates per batch), or a
    :class:`~repro.shard.executor.ShardExecutor` through its generic
    canonical-order ``expand`` (the executor's own
    :meth:`~repro.shard.executor.ShardExecutor.msbfs` is the
    superstep-native path and exchanges lane masks instead).

    Each adjacency list the union frontier touches is decoded **once per
    sweep** for all packed searches; the per-pair filter work is pure word
    arithmetic on the lane masks.  An engine that hands out whole decoded
    neighbour arrays (``neighbor_arrays``, as the native serving engine
    :class:`~repro.traversal.native.NativeSession` does) runs the same sweep
    as array operations instead (:func:`_array_sweep`).  Raises
    :class:`ValueError` for an empty or over-wide batch and
    :class:`IndexError` for out-of-range sources.
    """
    num_nodes = engine.num_nodes
    batch = validate_sources(sources, num_nodes)
    if len(batch) > LANE_WIDTH:
        raise ValueError(
            f"{len(batch)} sources exceed the {LANE_WIDTH}-lane word width; "
            "split the batch into sweeps"
        )
    neighbor_arrays = getattr(engine, "neighbor_arrays", None)
    if neighbor_arrays is not None:
        return _array_sweep(neighbor_arrays, num_nodes, batch)
    lanes = len(batch)

    # Per-node lane masks as plain Python ints: the filter below runs once
    # per decoded (source, neighbour) pair, where int word ops beat numpy
    # scalar boxing.  Levels live in one (lanes, num_nodes) matrix so lane
    # extraction is a row copy.
    seen = [0] * num_nodes
    frontier_mask = [0] * num_nodes
    next_mask = [0] * num_nodes
    lane_levels = np.full((lanes, num_nodes), UNREACHED, dtype=np.int64)
    for lane, source in enumerate(batch):
        bit = 1 << lane
        seen[source] |= bit
        frontier_mask[source] |= bit
        lane_levels[lane, source] = 0

    # The union frontier, each node once, in first-discovery order.
    frontier = list(dict.fromkeys(batch))
    sweeps = 0
    depth = 0

    def admit_new_lanes(parent: int, neighbor: int) -> bool:
        """Lane-aware admission: OR the parent's mask in, admit on first gain."""
        gained = frontier_mask[parent] & ~seen[neighbor]
        if not gained:
            return False
        first_gain = next_mask[neighbor] == 0
        seen[neighbor] |= gained
        next_mask[neighbor] |= gained
        return first_gain

    while frontier:
        depth += 1
        advanced = engine.expand(frontier, admit_new_lanes)
        sweeps += 1
        for node in frontier:
            frontier_mask[node] = 0
        for node in advanced:
            mask = next_mask[node]
            frontier_mask[node] = mask
            next_mask[node] = 0
            while mask:
                low = mask & -mask
                lane_levels[low.bit_length() - 1, node] = depth
                mask ^= low
        frontier = advanced

    return MSBFSResult(
        sources=batch,
        lane_levels=lane_levels,
        lane_iterations=lane_iterations_from_levels(lane_levels),
        sweeps=sweeps,
    )


def _array_sweep(
    neighbor_arrays: Callable[[np.ndarray], list[np.ndarray]],
    num_nodes: int,
    batch: tuple[int, ...],
) -> MSBFSResult:
    """The lane-packed sweep over whole neighbour arrays.

    ``neighbor_arrays(frontier)`` returns each frontier node's live sorted
    neighbours.  A single lane is a plain level-synchronous BFS
    (concatenate, keep the unvisited, ``np.unique``).  Wider batches OR each
    frontier node's ``uint64`` lane mask into its neighbours with
    ``np.bitwise_or.at``; the lanes a node gains are exactly the searches
    that discover it at this depth.  This mirrors the sharded executor's
    superstep sweeps, and levels are distance-determined, so every lane
    equals :func:`msbfs` on any other engine.
    """
    lanes = len(batch)
    lane_levels = np.full((lanes, num_nodes), UNREACHED, dtype=np.int64)
    lane_levels[np.arange(lanes), batch] = 0
    frontier = np.unique(np.asarray(batch, dtype=np.int64))
    depth = 0
    if lanes == 1:
        levels = lane_levels[0]
        while len(frontier):
            depth += 1
            candidates = np.unique(np.concatenate(neighbor_arrays(frontier)))
            frontier = candidates[levels[candidates] == UNREACHED]
            levels[frontier] = depth
    else:
        lane_bits = np.uint64(1) << np.arange(lanes, dtype=np.uint64)
        seen = np.zeros(num_nodes, dtype=np.uint64)
        np.bitwise_or.at(seen, np.asarray(batch, dtype=np.int64), lane_bits)
        masks = seen[frontier]
        while len(frontier):
            depth += 1
            lists = neighbor_arrays(frontier)
            counts = np.fromiter(
                map(len, lists), dtype=np.int64, count=len(lists)
            )
            targets, inverse = np.unique(
                np.concatenate(lists), return_inverse=True
            )
            reached = np.zeros(len(targets), dtype=np.uint64)
            np.bitwise_or.at(reached, inverse, np.repeat(masks, counts))
            gained = reached & ~seen[targets]
            keep = gained != 0
            frontier, masks = targets[keep], gained[keep]
            seen[frontier] |= masks
            lane, position = np.nonzero(
                (masks[None, :] & lane_bits[:, None]) != 0
            )
            lane_levels[lane, frontier[position]] = depth
    return MSBFSResult(
        sources=batch,
        lane_levels=lane_levels,
        lane_iterations=lane_iterations_from_levels(lane_levels),
        sweeps=depth,
    )


__all__ = [
    "LANE_WIDTH",
    "MSBFSResult",
    "lane_iterations_from_levels",
    "msbfs",
    "validate_sources",
]
