"""Parallel scatter-gather execution over sharded CGR graphs.

:class:`ShardExecutor` turns a :class:`~repro.shard.sharded.ShardedCGRGraph`
into a :class:`~repro.apps.pipeline.FrontierEngine`: every ``expand`` call is
one **superstep** of a bulk-synchronous computation.

* **Scatter** -- the frontier is routed to owning shards
  (:meth:`~repro.shard.partition.GraphPartition.split_frontier`) and each
  shard expands its share through its own resident
  :class:`~repro.traversal.gcgt.GCGTEngine`, concurrently across shards,
  collecting the decoded ``(source, neighbour)`` pairs.  This is where the
  expensive work -- compressed-adjacency decode and the simulated warp
  traversal -- parallelises.
* **Gather** -- the collected neighbour lists are replayed through the
  application's filter callback in *canonical order* (frontier order, then
  ascending neighbour id), on the coordinator.  Canonical replay decouples
  results from the sharding: the same float additions in the same order and
  the same admissions for **every** shard count and partitioner, whatever
  the scatter concurrency did.  Integer-valued answers (BFS levels, CC
  labels) equal the warp-scheduled unsharded engine bit for bit; float
  accumulations (PageRank, BC) equal the canonical-order unsharded
  expansion -- the Naive CPU reference -- float for float, and agree with
  the warp-scheduled engine to addition-order ulps.
* **Frontier exchange** -- admitted neighbours form the next frontier; at
  the next superstep they are routed to *their* owners, so a neighbour on a
  different shard than its discoverer is exactly one exchanged message.
  The executor counts the exchange volume and the per-superstep shard
  fan-out, surfaced per query as
  :attr:`~repro.service.queries.QueryMetrics.shard_fanout` /
  :attr:`~repro.service.queries.QueryMetrics.exchange_volume`.

Each shard's resident state -- engine, overlay, plan cache and traversal
scratch -- lives in one ``_ShardWorker``, whose methods are the shard side
of every superstep.  Two backends decide where the workers live, and
``ShardExecutor._on_shards`` is the only code that knows which:

* ``"inline"`` (default) -- the coordinator holds every worker and runs
  the touched shards in turn; no concurrency overhead, deterministic, the
  serving default.
* ``"process"`` -- one single-worker process pool per shard, whose
  initializer encodes the shard and builds its worker there; the worker
  stays resident and absorbs update batches in place, so supersteps only
  ship frontier ids in and neighbour lists out, and shards escape the
  interpreter lock.

Every shard reads through its own :class:`~repro.dynamic.DeltaOverlay`, so
:meth:`ShardExecutor.apply_updates` routes an update batch to owner shards
and absorbs it without re-encoding anything, mirroring the single-graph
dynamic path.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.bfs import BFSResult, UNREACHED
from repro.obs.trace import NOOP_TRACER, NULL_SPAN
from repro.compression.cgr import CGRGraph, UNCOMPRESSED_BITS_PER_EDGE
from repro.dynamic.compaction import CompactionPolicy
from repro.dynamic.overlay import DeltaOverlay
from repro.dynamic.updates import EdgeUpdate, UpdateStats, coerce_updates
from repro.gpu.device import GPUDevice
from repro.gpu.metrics import KernelMetrics
from repro.service.cache import DecodedAdjacencyCache
from repro.shard.sharded import ShardedCGRGraph
from repro.traversal.gcgt import GCGTConfig, GCGTEngine
from repro.traversal.msbfs import (
    LANE_WIDTH,
    MSBFSResult,
    lane_iterations_from_levels,
    validate_sources,
)

#: Supported execution backends.
BACKENDS = ("inline", "process")


def check_backend(backend: str) -> None:
    """Raise :class:`ValueError` unless ``backend`` is one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


class ShardWorkerError(RuntimeError):
    """A shard's worker process died mid-operation (process backend).

    Raised instead of the opaque :class:`~concurrent.futures.process.
    BrokenProcessPool` wherever the executor dispatches to workers, so a
    crashed worker (OOM-killed, segfaulted, interpreter torn down) fails the
    in-flight superstep **fast and loud** with the shard named, rather than
    hanging the coordinator or surfacing as an unrelated pool error several
    calls later.  The executor cannot continue after this -- its worker held
    the shard's only resident engine state -- so the owning registration
    must be rebuilt (re-register or restore the graph).
    """



@dataclass(frozen=True)
class ShardCounters:
    """Point-in-time executor counters (for per-query delta attribution).

    Attributes:
        supersteps: ``expand`` calls executed so far.
        exchange_volume: total scattered ``(source, neighbour)`` messages
            gathered back to the coordinator.
        boundary_messages: the subset of the exchange whose neighbour lives
            on a different shard than its source -- true cross-shard traffic.
        shard_touches: scatter tasks dispatched to each shard so far.
        cost: simulated total-work cost accumulated across shard engines.
        elapsed_proxy: cost divided by the device's warp-level parallelism.
    """

    supersteps: int
    exchange_volume: int
    boundary_messages: int
    shard_touches: tuple[int, ...]
    cost: float
    elapsed_proxy: float


class _ShardWorker:
    """One shard's resident state and the shard side of every superstep.

    Owns the shard's :class:`~repro.dynamic.DeltaOverlay`, its
    :class:`~repro.service.cache.DecodedAdjacencyCache`, the
    :class:`~repro.traversal.gcgt.GCGTEngine` reading through both, and the
    scratch arrays of the in-progress BFS / MS-BFS.  The inline backend
    holds one per shard in the coordinator; on the process backend each
    shard's worker process builds one at start-up
    (:func:`_process_worker_init`).  Either way :class:`ShardExecutor`
    reaches a worker only through :meth:`ShardExecutor._on_shards`.
    """

    def __init__(
        self,
        overlay: DeltaOverlay,
        device: GPUDevice,
        config: GCGTConfig,
        plan_cache: DecodedAdjacencyCache,
    ) -> None:
        self.overlay = overlay
        self.plan_cache = plan_cache
        self.engine = GCGTEngine(
            overlay, device=device, config=config, plan_cache=plan_cache
        )
        self._levels: np.ndarray | None = None
        self._seen: np.ndarray | None = None
        self._lane_levels: np.ndarray | None = None

    def expand_collect(
        self, nodes: list[int]
    ) -> tuple[dict[int, list[int]], KernelMetrics]:
        """Scatter: expand ``nodes``, collect the neighbours per source.

        The collecting filter admits nothing (frontier management happens at
        the gather), so the expansion charges exactly the decode/traversal
        work the shard's engine would do anyway.  Tombstone suppression of
        the shard's overlay still runs ahead of the collector, so deleted
        edges never leave the shard.
        """
        unique = list(dict.fromkeys(nodes))
        collected: dict[int, set[int]] = {node: set() for node in unique}

        def collect(source: int, neighbor: int) -> bool:
            collected[source].add(neighbor)
            return False

        session = self.engine.new_session()
        session.expand(unique, collect)
        return (
            {node: sorted(neighbors) for node, neighbors in collected.items()},
            session.metrics,
        )

    def bfs_reset(self) -> None:
        """Start a fresh BFS: clear the per-node level array."""
        self._levels = np.full(
            self.overlay.num_nodes, UNREACHED, dtype=np.int64
        )

    def bfs_step(
        self, candidates: np.ndarray, level: int
    ) -> tuple[np.ndarray, int, KernelMetrics | None]:
        """One BFS superstep: admit shard-side, expand, emit candidates.

        ``candidates`` are globally deduplicated node ids owned by this shard
        that some shard discovered last superstep.  Unvisited ones are
        admitted at ``level`` and expanded through the shard engine; the
        returned array holds the deduplicated neighbour ids to exchange,
        with targets this shard already knows are visited filtered out
        locally (they are owned here, so no other shard needs them).

        Running the admission *inside* the shard is what makes sharded BFS
        scale: the exchange carries at most one message per discovered
        node, not one per decoded edge, and the coordinator never replays
        the filter.  Levels are distance-determined, so the result is
        bit-identical to the frontier-order admission of the unsharded
        engine.
        """
        levels = self._levels
        admitted = candidates[levels[candidates] == UNREACHED]
        levels[admitted] = level
        if len(admitted) == 0:
            return np.empty(0, dtype=np.int64), 0, None

        out: list[int] = []

        def collect(source: int, neighbor: int) -> bool:
            out.append(neighbor)
            return False

        session = self.engine.new_session()
        session.expand([int(node) for node in admitted], collect)
        if not out:
            return np.empty(0, dtype=np.int64), len(admitted), session.metrics
        targets = np.unique(np.asarray(out, dtype=np.int64))
        # Owned-and-visited targets can be pruned here; remote targets are
        # the owning shard's call next superstep.
        targets = targets[levels[targets] == UNREACHED]
        return targets, len(admitted), session.metrics

    def bfs_levels(self) -> np.ndarray:
        """The level array (authoritative for this shard's owned nodes)."""
        return self._levels

    def msbfs_reset(self, lanes: int) -> None:
        """Start a fresh MS-BFS: clear the lane masks and level matrix."""
        self._seen = np.zeros(self.overlay.num_nodes, dtype=np.uint64)
        self._lane_levels = np.full(
            (lanes, self.overlay.num_nodes), UNREACHED, dtype=np.int64
        )

    def msbfs_step(
        self, nodes: np.ndarray, masks: np.ndarray, depth: int
    ) -> tuple[np.ndarray, np.ndarray, int, KernelMetrics | None]:
        """One MS-BFS superstep: admit lanes shard-side, expand, emit masks.

        The lane-packed analogue of :meth:`bfs_step`: ``nodes``/``masks``
        are globally merged candidate ids owned by this shard with the
        uint64 lane masks that discovered them last superstep.  Lanes this
        shard has not yet seen for a node are admitted at ``depth`` and
        recorded per lane; admitted nodes are expanded **once** through the
        shard engine -- one adjacency decode serves every packed search --
        and each decoded neighbour accumulates the union of its
        discoverers' admitted masks.  Locally-owned lanes already seen are
        pruned before the exchange, so a message carries only lanes its
        target might still need.

        Levels are distance-determined per lane, so the merged result is
        bit-identical to 64 sequential ``bfs()`` runs, whatever the
        sharding.
        """
        seen = self._seen
        gained = masks & ~seen[nodes]
        live = gained != 0
        admitted = nodes[live]
        admitted_masks = gained[live]
        if len(admitted) == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
                0,
                None,
            )
        seen[admitted] |= admitted_masks
        lane_levels = self._lane_levels
        for lane in range(lane_levels.shape[0]):
            hit = admitted[(admitted_masks & np.uint64(1 << lane)) != 0]
            if len(hit):
                lane_levels[lane, hit] = depth

        mask_of = {
            int(node): int(mask)
            for node, mask in zip(admitted, admitted_masks)
        }
        out: dict[int, int] = {}

        def collect(source: int, neighbor: int) -> bool:
            out[neighbor] = out.get(neighbor, 0) | mask_of[source]
            return False

        session = self.engine.new_session()
        session.expand([int(node) for node in admitted], collect)
        if not out:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
                len(admitted),
                session.metrics,
            )
        targets = np.fromiter(out.keys(), dtype=np.int64, count=len(out))
        target_masks = np.fromiter(
            out.values(), dtype=np.uint64, count=len(out)
        )
        order = np.argsort(targets)
        targets = targets[order]
        target_masks = target_masks[order]
        # Lanes this shard already levelled can be pruned here; remote
        # targets carry local zeros in ``seen``, so their masks pass through
        # untouched.
        target_masks = target_masks & ~seen[targets]
        keep = target_masks != 0
        return targets[keep], target_masks[keep], len(admitted), session.metrics

    def msbfs_levels(self) -> np.ndarray:
        """The lane-level matrix (authoritative for owned node columns)."""
        return self._lane_levels

    def apply(self, batch: list[EdgeUpdate]) -> UpdateStats:
        """Absorb an update sub-batch and drop the touched nodes' plans."""
        stats = self.overlay.apply(batch)
        for node in stats.touched_nodes:
            self.plan_cache.invalidate(node)
        return stats

    def live_bits(self) -> int:
        """Live bits of the shard overlay (side stream included)."""
        return self.overlay.live_bits

    def neighbors(self, nodes: list[int]) -> list[list[int]]:
        """Each node's merged live adjacency, read off the overlay (no
        simulated kernel runs)."""
        return [self.overlay.neighbors(node) for node in nodes]


# ---------------------------------------------------------------------------
# Process-backend entry points (module level so they pickle).
# ---------------------------------------------------------------------------

#: The worker process's shard, built once by :func:`_process_worker_init`.
_WORKER: _ShardWorker | None = None


def _process_worker_init(
    adjacency: list[list[int]],
    config: GCGTConfig,
    cache_capacity: int,
    device: GPUDevice,
    compaction_policy: CompactionPolicy,
) -> None:
    """Pool initializer: encode the shard and build its resident worker.

    The executor's device and compaction policy are shipped along so the
    worker's cost metrics and compaction behaviour match what the inline
    backend produces from the same arguments.
    """
    global _WORKER
    cgr = CGRGraph.from_adjacency(adjacency, config.effective_cgr_config())
    _WORKER = _ShardWorker(
        DeltaOverlay(cgr, policy=compaction_policy),
        device,
        config,
        DecodedAdjacencyCache(cache_capacity),
    )


def _process_worker_call(method: str, *args):
    """Run ``method(*args)`` on the worker process's resident shard."""
    return getattr(_WORKER, method)(*args)


class ShardExecutor:
    """Superstep scatter-gather engine over the shards of one graph.

    Satisfies the :class:`~repro.apps.pipeline.FrontierEngine` protocol, so
    every application in :mod:`repro.apps` -- BFS, connected components,
    personalized PageRank, betweenness centrality -- runs on it unchanged,
    with results bit-identical to the unsharded canonical-order run.

    Args:
        sharded: the partitioned, per-shard-encoded graph.
        backend: ``"inline"`` or ``"process"`` (see module doc).
        device: simulated device shared by the shard engines (defaults to a
            fresh :class:`~repro.gpu.GPUDevice`).
        config: engine configuration applied to every shard (its encoding
            part must match how ``sharded`` was encoded).
        cache_capacity: per-shard decoded-plan cache capacity.
        compaction_policy: per-shard overlay compaction policy.
        overlays: pre-built per-shard delta overlays to adopt instead of
            wrapping fresh ones around the shard encodes -- the restore path
            of the persistent store (:mod:`repro.store`), which rebuilds
            overlays with their snapshotted side streams, extents and
            pending deltas.  Each overlay must wrap the corresponding shard
            of ``sharded``; only the ``inline`` backend can adopt overlays
            (process workers build their own state).
        initial_epoch: coordinator mutation epoch to start from (a restored
            executor resumes at the snapshot's epoch, so
            :attr:`~repro.service.queries.QueryMetrics.graph_epoch` stays
            monotone across a save/restore cycle).
    """

    def __init__(
        self,
        sharded: ShardedCGRGraph,
        backend: str = "inline",
        device: GPUDevice | None = None,
        config: GCGTConfig | None = None,
        cache_capacity: int = 4096,
        compaction_policy: CompactionPolicy | None = None,
        overlays: list[DeltaOverlay] | None = None,
        initial_epoch: int = 0,
    ) -> None:
        check_backend(backend)
        if overlays is not None:
            if backend == "process":
                raise ValueError(
                    "restored overlays require the 'inline' backend; "
                    "process workers build their own state"
                )
            if len(overlays) != sharded.num_shards:
                raise ValueError(
                    f"got {len(overlays)} overlays for "
                    f"{sharded.num_shards} shards"
                )
            for index, overlay in enumerate(overlays):
                if overlay.base is not sharded.shards[index]:
                    raise ValueError(
                        f"overlay {index} does not wrap shard {index}'s "
                        "encode; overlays must be built over the sharded "
                        "graph's own streams"
                    )
        self.sharded = sharded
        self.partition = sharded.partition
        self.backend = backend
        self.device = device or GPUDevice()
        self.config = config or GCGTConfig()
        self.cache_capacity = cache_capacity
        self.compaction_policy = compaction_policy or CompactionPolicy()
        self._num_edges = sharded.num_edges
        self._closed = False
        #: Per-shard base generation: bumped by :meth:`rebase_shard` every
        #: time a shard's overlay is folded into a fresh base encode, and
        #: seeded from the manifest on restore.  Snapshot base file names
        #: derive from it (``shard-<i>-gen-<g>.cgr``).
        self.base_generations = [0] * sharded.num_shards

        # Cumulative exchange / work counters (see ShardCounters).
        self.supersteps = 0
        self.exchange_volume = 0
        self.boundary_messages = 0
        self.shard_touches = [0] * sharded.num_shards
        #: Coordinator-side mutation epoch: advances once per effective
        #: update batch, whatever the backend, so
        #: :attr:`~repro.service.queries.QueryMetrics.graph_epoch` means the
        #: same thing for every sharded registration.  (Per-shard overlays
        #: keep their own finer-grained epochs for plan-cache keying.)
        self._epoch = initial_epoch
        #: Last observed aggregate live bits (see :meth:`live_bits`).
        self._final_live_bits = sharded.total_bits
        #: Simulated critical-path cost: per superstep, the *maximum* of the
        #: participating shards' costs (shards run concurrently, the barrier
        #: waits for the slowest), summed over supersteps.  ``cost() /
        #: critical_cost`` is the parallel speedup one worker per shard
        #: achieves under the device cost model -- the same modelling step
        #: the CPU baselines apply (work divided by threads), needed because
        #: wall-clock scaling additionally depends on the host's core count.
        self.critical_cost = 0.0
        self.kernel_metrics = KernelMetrics()
        #: Cooperative cancellation hook: when set, polled once per
        #: superstep (every backend) at the top of each
        #: :meth:`expand`/:meth:`bfs`/:meth:`msbfs` iteration and before
        #: :meth:`gather_adjacency` scatters.  Raising from it (e.g. a
        #: deadline or cancel probe, see :mod:`repro.server.deadline`)
        #: aborts the traversal between supersteps -- no partial superstep,
        #: no torn shard state; counters reflect exactly the supersteps
        #: that ran.  Installed per query by
        #: :meth:`~repro.service.TraversalService.submit`.
        self.checkpoint: Callable[[], None] | None = None
        #: Tracing hook, same installation pattern as :attr:`checkpoint`:
        #: the service's telemetry wiring replaces the no-op tracer, after
        #: which every superstep of :meth:`expand`/:meth:`bfs`/:meth:`msbfs`
        #: opens one ``superstep`` span (nested under the calling request's
        #: span tree) carrying per-shard device costs and the step's
        #: critical-path cost.  The default records nothing and allocates
        #: nothing.
        self.tracer = NOOP_TRACER

        #: Inline backend: every shard's worker, in shard order.
        self._workers: list[_ShardWorker] = []
        #: Process backend: one single-worker pool per shard.
        self._process_pools: list[ProcessPoolExecutor] = []
        if backend == "process":
            for shard in range(sharded.num_shards):
                self._process_pools.append(ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_process_worker_init,
                    initargs=(
                        sharded.shard_adjacency(shard),
                        self.config,
                        cache_capacity,
                        self.device,
                        self.compaction_policy,
                    ),
                ))
        else:
            for index, shard_cgr in enumerate(sharded.shards):
                if overlays is not None:
                    overlay = overlays[index]
                else:
                    overlay = DeltaOverlay(
                        shard_cgr, policy=self.compaction_policy
                    )
                self._workers.append(_ShardWorker(
                    overlay, self.device, self.config,
                    DecodedAdjacencyCache(cache_capacity),
                ))
            if overlays is not None:
                # Restored overlays may carry update state the base encodes
                # predate; the live edge count is theirs, not the streams'.
                self._num_edges = sum(o.num_edges for o in overlays)
        # Reach every worker once now, so process start-up cost never leaks
        # into superstep timings and start-up errors surface here.  A shard
        # that fails to start takes the already-started pools down with it.
        try:
            self._refresh_live_bits()
        except BaseException:
            self.close()
            raise

    # -- graph facts (FrontierEngine surface + registry needs) ----------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the sharded graph (global id space)."""
        return self.sharded.num_nodes

    @property
    def num_edges(self) -> int:
        """Live edge count across all shards (tracks applied updates)."""
        return self._num_edges

    @property
    def num_shards(self) -> int:
        """Number of shards the executor fans out over."""
        return self.sharded.num_shards

    @property
    def epoch(self) -> int:
        """Mutation epoch: effective update batches absorbed, any backend."""
        return self._epoch

    @property
    def engines(self) -> list[GCGTEngine]:
        """Per-shard engines (inline backend; empty on process)."""
        return [worker.engine for worker in self._workers]

    @property
    def overlays(self) -> list[DeltaOverlay]:
        """Per-shard delta overlays (inline backend; empty on process)."""
        return [worker.overlay for worker in self._workers]

    @property
    def plan_caches(self) -> list[DecodedAdjacencyCache]:
        """Per-shard decoded-plan caches (inline backend; empty on process)."""
        return [worker.plan_cache for worker in self._workers]

    def live_bits(self) -> int:
        """Live compressed bits across shards (base + overlay side streams).

        After :meth:`close`, reports the last value observed while the
        workers were alive (refreshed on every read and at close), so
        monitoring paths like :meth:`~repro.service.TraversalService.stats`
        keep working once process pools are gone.
        """
        if not self._closed:
            self._refresh_live_bits()
        return self._final_live_bits

    def _refresh_live_bits(self) -> None:
        """Re-read every worker's live-bit count."""
        self._final_live_bits = sum(self._on_all("live_bits").values())

    @property
    def bits_per_edge(self) -> float:
        """Aggregate live bits per edge, overlay side streams included."""
        if self._num_edges == 0:
            return float("nan")
        return self.live_bits() / self._num_edges

    @property
    def compression_rate(self) -> float:
        """The paper's metric over aggregate live bits: 32 / bits-per-edge."""
        if self._num_edges == 0:
            return float("nan")
        return UNCOMPRESSED_BITS_PER_EDGE / self.bits_per_edge

    # -- dispatch, accounting and cancellation plumbing ------------------------

    def _on_shards(self, method: str, args_by_shard: dict[int, tuple]) -> dict:
        """Run ``_ShardWorker.<method>(*args)`` on each listed shard.

        The one place that knows where a shard's worker lives.  Inline
        workers run in turn; process workers get every call submitted before
        any result is awaited, so the shards run concurrently.  Results come
        back keyed by shard, in ``args_by_shard`` order.

        A :class:`~concurrent.futures.process.BrokenProcessPool` means the
        shard's worker process is gone along with its resident engine; it is
        re-raised as :class:`ShardWorkerError` naming the shard, so the
        caller sees an actionable diagnosis instead of a generic pool error
        (or, worse, a coordinator wedged on a pool that will never answer).
        """
        if self.backend == "inline":
            return {
                shard: getattr(self._workers[shard], method)(*args)
                for shard, args in args_by_shard.items()
            }
        futures = {}
        results = {}
        shard = None
        try:
            for shard, args in args_by_shard.items():
                futures[shard] = self._process_pools[shard].submit(
                    _process_worker_call, method, *args
                )
            for shard, future in futures.items():
                results[shard] = future.result()
        except BrokenProcessPool as error:
            raise ShardWorkerError(
                f"shard {shard} worker process died mid-operation "
                f"({error}); the shard's resident state is lost -- "
                "re-register or restore the graph to rebuild it"
            ) from error
        return results

    def _on_all(self, method: str, *args) -> dict:
        """Run ``method(*args)`` on every shard (see :meth:`_on_shards`)."""
        return self._on_shards(method, dict.fromkeys(range(self.num_shards), args))

    def _gather_owned(self, method: str, shape: tuple[int, ...]) -> np.ndarray:
        """Merge per-shard level arrays, each authoritative for its owned
        nodes (the last axis indexes nodes)."""
        merged = np.full(shape, UNREACHED, dtype=np.int64)
        per_shard = self._on_all(method)
        for shard, owned in enumerate(self.partition.shard_nodes):
            merged[..., owned] = per_shard[shard][..., owned]
        return merged

    def _charge(
        self, metrics_by_shard: dict, span=NULL_SPAN, **annotations
    ) -> None:
        """Account one superstep's per-shard kernel metrics.

        Every shard's work joins the total; only the slowest shard is
        charged to the critical path.  A recording ``span`` is annotated
        with the shards, their costs, the step's critical cost and
        ``annotations``.
        """
        costs: dict[int, float] = {}
        for shard, metrics in metrics_by_shard.items():
            if metrics is not None:
                self.kernel_metrics.merge(metrics)
                costs[shard] = self.device.cost(metrics)
        step = max(costs.values(), default=0.0)
        self.critical_cost += step
        if span.recording:
            span.annotate(
                shards=sorted(metrics_by_shard),
                shard_costs=costs,
                critical_cost=step,
                **annotations,
            )

    def _poll_checkpoint(self) -> None:
        """Run the installed cancellation checkpoint, if any (see
        :attr:`checkpoint`)."""
        checkpoint = self.checkpoint
        if checkpoint is not None:
            checkpoint()

    # -- supersteps ------------------------------------------------------------

    def expand(self, frontier, filter_fn) -> list[int]:
        """One superstep: scatter the frontier, gather in canonical order.

        Semantically identical to
        :meth:`repro.traversal.gcgt.TraversalSession.expand` -- the filter
        sees every live ``(source, neighbour)`` pair exactly once per
        frontier occurrence of the source, sources in frontier order and
        neighbours ascending -- so any frontier application runs unchanged.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self._poll_checkpoint()
        frontier = list(frontier)
        if not frontier:
            return []
        groups = self.partition.split_frontier(frontier)
        self.supersteps += 1
        for shard in groups:
            self.shard_touches[shard] += 1
        with self.tracer.span(
            "superstep", op="expand", frontier=len(frontier)
        ) as span:
            results = self._on_shards(
                "expand_collect",
                {shard: (nodes,) for shard, nodes in groups.items()},
            )
            self._charge(
                {shard: metrics for shard, (_, metrics) in results.items()},
                span,
            )

            assignment = self.partition.assignment
            next_frontier: list[int] = []
            for node in frontier:
                shard = int(assignment[node])
                neighbors = results[shard][0][node]
                if not neighbors:
                    continue
                self.exchange_volume += len(neighbors)
                owners = assignment[np.asarray(neighbors, dtype=np.int64)]
                self.boundary_messages += int((owners != shard).sum())
                for neighbor in neighbors:
                    if filter_fn(node, neighbor):
                        next_frontier.append(neighbor)
            return next_frontier

    # -- superstep-native BFS and MS-BFS ---------------------------------------

    def _sweep(
        self,
        method: str,
        nodes: np.ndarray,
        masks: np.ndarray | None,
        op: str,
        depth_name: str,
        **span_attributes,
    ) -> int:
        """Run shard-side-admission supersteps until no candidates remain.

        ``nodes`` are the first superstep's sorted candidate ids, with their
        lane ``masks`` for MS-BFS (``None`` for BFS).  Each superstep routes
        the candidates to their owners and calls the owners' worker
        ``method`` with them and the superstep depth; the worker admits what
        it has not seen, expands it, and returns its deduplicated targets
        (and their masks), the admitted count and its kernel metrics.  The
        targets -- masks OR'd per node -- are the next superstep's
        candidates.  Returns how many supersteps admitted anything.
        """
        assignment = self.partition.assignment
        depth = active = 0
        while True:
            self._poll_checkpoint()
            self.supersteps += 1
            owners = assignment[nodes]
            args: dict[int, tuple] = {}
            for shard in map(int, np.unique(owners)):
                selected = owners == shard
                owned = nodes[selected]
                if masks is None:
                    args[shard] = (owned, depth)
                else:
                    args[shard] = (owned, masks[selected], depth)
                self.shard_touches[shard] += 1
                self.exchange_volume += len(owned)
            with self.tracer.span(
                "superstep", op=op, **{depth_name: depth}, **span_attributes
            ) as span:
                results = self._on_shards(method, args)
                gathered = []
                for shard, result in results.items():
                    targets = result[0]
                    if len(targets):
                        gathered.append(result[:-2])
                        self.exchange_volume += len(targets)
                        self.boundary_messages += int(
                            (assignment[targets] != shard).sum()
                        )
                admitted = sum(result[-2] for result in results.values())
                self._charge(
                    {shard: result[-1] for shard, result in results.items()},
                    span,
                    admitted=admitted,
                )
            if admitted:
                active += 1
            if not gathered:
                return active
            depth += 1
            nodes, inverse = np.unique(
                np.concatenate([found[0] for found in gathered]),
                return_inverse=True,
            )
            if masks is not None:
                masks = np.zeros(len(nodes), dtype=np.uint64)
                np.bitwise_or.at(
                    masks, inverse,
                    np.concatenate([found[1] for found in gathered]),
                )

    def bfs(self, source: int) -> BFSResult:
        """Sharded BFS with shard-side admission and candidate exchange.

        Unlike the generic :meth:`expand` path (which ships every decoded
        edge to the coordinator so arbitrary filters replay in canonical
        order), BFS admission is distance-determined, so each shard admits
        and levels its own nodes locally and the frontier exchange carries
        only deduplicated *discovered node ids* -- the message volume is
        bounded by nodes per level, not edges.  This is the path the
        shard-throughput benchmark gates; levels, iterations and visited
        counts are bit-identical to ``bfs(engine, source)`` on the
        unsharded engine.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if not 0 <= source < self.num_nodes:
            raise IndexError(
                f"source {source} out of range [0, {self.num_nodes})"
            )
        self._on_all("bfs_reset")
        iterations = self._sweep(
            "bfs_step", np.asarray([source], dtype=np.int64), None,
            op="bfs", depth_name="level",
        )
        return BFSResult(
            source=source,
            levels=self._gather_owned("bfs_levels", (self.num_nodes,)),
            iterations=iterations,
        )

    def msbfs(self, sources) -> MSBFSResult:
        """Sharded lane-packed MS-BFS: one candidate exchange serves 64 lanes.

        The superstep-native analogue of
        :func:`repro.traversal.msbfs.msbfs`: each shard keeps a ``uint64``
        lane mask per owned node, admits newly-gained lanes locally, and
        expands every admitted node **once per superstep** for all packed
        searches.  The frontier exchange carries ``(node id, lane mask)``
        pairs -- still bounded by discovered nodes per level, not by lanes
        times nodes, because messages for the same target are OR-merged at
        the coordinator before routing.  Per-lane levels and iteration
        counts are bit-identical to sequential :meth:`bfs` per source.

        Raises :class:`ValueError` for an empty or over-wide batch and
        :class:`IndexError` for out-of-range sources.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        batch = validate_sources(sources, self.num_nodes)
        if len(batch) > LANE_WIDTH:
            raise ValueError(
                f"{len(batch)} sources exceed the {LANE_WIDTH}-lane word "
                "width; split the batch into sweeps"
            )
        lanes = len(batch)
        self._on_all("msbfs_reset", lanes)

        # Duplicate sources collapse to one candidate with an OR'd mask.
        source_masks: dict[int, int] = {}
        for lane, source in enumerate(batch):
            source_masks[source] = source_masks.get(source, 0) | (1 << lane)
        nodes = np.fromiter(
            sorted(source_masks), dtype=np.int64, count=len(source_masks)
        )
        masks = np.asarray(
            [source_masks[int(node)] for node in nodes], dtype=np.uint64
        )
        sweeps = self._sweep(
            "msbfs_step", nodes, masks,
            op="msbfs", depth_name="depth", lanes=lanes,
        )
        lane_levels = self._gather_owned(
            "msbfs_levels", (lanes, self.num_nodes)
        )
        return MSBFSResult(
            sources=batch,
            lane_levels=lane_levels,
            lane_iterations=lane_iterations_from_levels(lane_levels),
            sweeps=sweeps,
        )

    # -- work accounting -------------------------------------------------------

    def cost(self) -> float:
        """Simulated total-work cost accumulated across every shard engine."""
        return self.device.cost(self.kernel_metrics)

    def elapsed_proxy(self) -> float:
        """Accumulated cost divided by the device's warp-level parallelism."""
        return self.device.elapsed_proxy(self.kernel_metrics)

    def critical_elapsed_proxy(self) -> float:
        """Superstep critical-path cost over the device's warp parallelism.

        The parallel analogue of :meth:`elapsed_proxy`: per superstep only
        the slowest shard is charged, modelling one worker per shard.
        """
        return self.critical_cost / max(1, self.device.concurrent_warps)

    @property
    def parallel_speedup(self) -> float:
        """Modelled speedup of shard-parallel execution over serial execution:
        total accumulated work divided by the superstep critical path (1.0
        while no work has run)."""
        if self.critical_cost <= 0:
            return 1.0
        return self.cost() / self.critical_cost

    def counters(self) -> ShardCounters:
        """Freeze the exchange counters (for per-query delta attribution)."""
        return ShardCounters(
            supersteps=self.supersteps,
            exchange_volume=self.exchange_volume,
            boundary_messages=self.boundary_messages,
            shard_touches=tuple(self.shard_touches),
            cost=self.cost(),
            elapsed_proxy=self.elapsed_proxy(),
        )

    # -- updates ---------------------------------------------------------------

    def apply_updates(self, updates) -> UpdateStats:
        """Route an edge-update batch to owner shards and absorb it.

        Each update lands on the shard owning its *source* node (where the
        edge is stored), applied through that shard's delta overlay -- no
        shard is ever re-encoded.  Relative order of updates to the same
        source is preserved (they share a shard), which is all the batch
        semantics depend on: updates to different sources commute.  The
        whole batch is range-validated before any shard mutates, so a
        rejected batch is all-or-nothing, exactly like the single-graph
        overlay.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        batch = coerce_updates(updates)
        num_nodes = self.num_nodes
        for update in batch:
            for node in (update.source, update.target):
                if not 0 <= node < num_nodes:
                    raise ValueError(
                        f"node {node} out of range [0, {num_nodes})"
                    )
        sub_batches: dict[int, list[EdgeUpdate]] = {}
        assignment = self.partition.assignment
        for update in batch:
            sub_batches.setdefault(
                int(assignment[update.source]), []
            ).append(update)

        total = UpdateStats()
        results = self._on_shards(
            "apply",
            {shard: (sub_batch,) for shard, sub_batch in sub_batches.items()},
        )
        for stats in results.values():
            total.merge(stats)
        if total.changed:
            self._epoch += 1
        self._num_edges += total.inserted - total.deleted
        return total

    def rebase_shard(self, shard: int) -> dict:
        """Fold one shard's overlay into a fresh base encode (new generation).

        The shard's merged live adjacency -- base plus side-stream inserts,
        tombstones dropped -- is re-encoded into a new frozen CGR, a fresh
        empty overlay is wrapped around it, and the shard's engine is stood
        up again over the new overlay.  Topology, answers and the live edge
        count are unchanged; what changes is the storage layout: the side
        stream's garbage bits are reclaimed and the next snapshot writes a
        ``shard-<i>-gen-<g>.cgr`` base instead of re-listing the old one.

        The new overlay starts at ``old epoch + 1`` (a rebase is a mutation
        of the shard's bit-level state, and per-epoch delta file names must
        never be reused for different content) and carries the old overlay's
        cumulative counters so service stats stay monotone.  The shard's
        plan-cache *object* is kept and cleared (resident plans drop as
        evictions), mirroring :meth:`GraphRegistry.replace`.

        Only the ``inline`` backend can rebase (process workers' overlay
        state lives out of reach, exactly like snapshot).
        Returns a summary dict: shard, new ``generation``, reclaimed
        ``garbage_bits`` and the new overlay ``epoch``.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if self.backend == "process":
            raise RuntimeError(
                "cannot rebase a process-backed sharded entry: per-shard "
                "overlay state lives in worker processes; use the 'inline' "
                "backend for lifecycle maintenance"
            )
        if not 0 <= shard < self.num_shards:
            raise IndexError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        old = self._workers[shard].overlay
        reclaimed = old.garbage_bits
        merged = [old.neighbors(node) for node in range(old.num_nodes)]
        cgr = CGRGraph.from_adjacency(
            merged, self.config.effective_cgr_config()
        )
        overlay = DeltaOverlay(cgr, policy=self.compaction_policy)
        overlay.epoch = old.epoch + 1
        overlay.updates_applied = old.updates_applied
        overlay.updates_ignored = old.updates_ignored
        overlay.compactions = old.compactions
        cache = self._workers[shard].plan_cache
        cache.clear()
        self._workers[shard] = _ShardWorker(
            overlay, self.device, self.config, cache
        )
        self.sharded.shards[shard] = cgr
        self.base_generations[shard] += 1
        # The coordinator epoch names sharded snapshot delta files
        # (shard-<i>-epoch-<E>.delta); a rebase changes the bit-level state
        # those files capture, so the epoch must advance or a later snapshot
        # would rewrite an already-published epoch's delta with new content.
        self._epoch += 1
        return {
            "shard": shard,
            "generation": self.base_generations[shard],
            "garbage_bits": reclaimed,
            "epoch": overlay.epoch,
        }

    # -- materialisation -------------------------------------------------------

    def gather_adjacency(self, nodes) -> dict[int, list[int]]:
        """Decode the live adjacency of ``nodes``, routed to owner shards.

        One scatter: the requested ids are split by owner
        (:meth:`~repro.shard.partition.GraphPartition.split_frontier`), each
        touched shard decodes its share through its resident engine --
        tombstones suppressed, side-stream inserts merged -- and the sorted
        neighbour lists are gathered back, keyed by node id.  This is the
        repair-read path of the incremental views (:mod:`repro.views`):
        component-scoped recompute and frontier re-sweeps fetch exactly the
        adjacency they touch, shard-parallel, without materialising the
        whole graph.  Counts as one superstep in the exchange ledger.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self._poll_checkpoint()
        node_list = [int(node) for node in nodes]
        if not node_list:
            return {}
        num_nodes = self.num_nodes
        for node in node_list:
            if not 0 <= node < num_nodes:
                raise IndexError(
                    f"node {node} out of range [0, {num_nodes})"
                )
        groups = self.partition.split_frontier(node_list)
        self.supersteps += 1
        for shard in groups:
            self.shard_touches[shard] += 1
        results = self._on_shards(
            "expand_collect",
            {shard: (shard_nodes,) for shard, shard_nodes in groups.items()},
        )
        self._charge(
            {shard: metrics for shard, (_, metrics) in results.items()}
        )
        merged: dict[int, list[int]] = {}
        for collected, _ in results.values():
            for node, neighbors in collected.items():
                merged[node] = neighbors
                self.exchange_volume += len(neighbors)
        return merged

    def adjacency(self) -> list[list[int]]:
        """Every node's merged live adjacency (updates applied), node order.

        Each shard reads its owned nodes straight off its overlay; no
        simulated kernel runs and no counter moves.
        """
        owned = {
            shard: ([int(node) for node in nodes],)
            for shard, nodes in enumerate(self.partition.shard_nodes)
        }
        merged: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for shard, lists in self._on_shards("neighbors", owned).items():
            for node, neighbors in zip(owned[shard][0], lists):
                merged[node] = neighbors
        return merged

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout: float | None = None) -> None:
        """Shut worker pools down; the executor cannot expand afterwards.

        Size/compression introspection stays available: the workers'
        live-bit count is read one last time before the pools go away.

        ``timeout`` bounds the shutdown, in seconds shared across every
        worker: process workers still alive when their slice of the budget
        runs out are terminated instead of joined, so a wedged or
        already-dead worker cannot hang the owning service's shutdown
        (``None`` preserves the unbounded graceful join).
        """
        if self._closed:
            return
        try:
            self._refresh_live_bits()
        except ShardWorkerError:  # a dead worker keeps the last value
            pass
        self._closed = True
        if timeout is None:
            for pool in self._process_pools:
                pool.shutdown(wait=True)
            return
        deadline = time.monotonic() + timeout
        workers = []
        for pool in self._process_pools:
            # The pool API has no timed join, so grab the worker processes
            # (private attribute, but the stdlib keeps it stable) before
            # shutdown clears them, then join each against the budget.
            workers.extend((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False)
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.is_alive():  # pragma: no cover - wedged worker
                worker.terminate()
                worker.join(timeout=1.0)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardExecutor(shards={self.num_shards}, backend={self.backend!r}, "
            f"supersteps={self.supersteps}, exchange={self.exchange_volume})"
        )


__all__ = ["BACKENDS", "ShardCounters", "ShardExecutor", "ShardWorkerError"]
