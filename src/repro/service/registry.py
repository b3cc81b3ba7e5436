"""The graph registry: named graphs encoded once, served through delta overlays.

Registering a graph pays the expensive host-side work exactly once: the CGR
encode (the frozen base the dynamic overlay wraps), the CSR build (the
uncompressed side-by-side form baselines and exact-answer paths read), and
the engine construction that loads the graph into simulated device memory.
Entries are keyed by ``(name, GCGTConfig)`` -- the full engine configuration,
not just the encoding part, so two ladder rungs that share an encoding but
schedule differently get their own engines -- and the same (name, config)
pair is never encoded twice.

Each entry reads the graph through a
:class:`~repro.dynamic.DeltaOverlay`, which is what lets
:meth:`GraphRegistry.apply_updates` absorb edge insertions/deletions in time
proportional to the batch: the frozen base is never re-encoded; inserts land
in the overlay's side stream, deletions become tombstones, and per-node
compaction folds oversized deltas back into CGR form.  Every touched node's
cached neighbour array is invalidated by epoch, so queries after a batch see
the mutated graph while untouched nodes stay warm.

Unsharded entries are served natively (:class:`~repro.traversal.native.
NativeSession` over the overlay and the entry's decoded-adjacency cache);
each also keeps a simulated :class:`~repro.traversal.gcgt.GCGTEngine`, with a
plan cache of its own, which the paper's figure harness drives directly.

Connected components runs on the undirected interpretation of a graph, so the
registry also keeps a lazily-built undirected sibling per entry, again encoded
at most once; update batches are mirrored onto it (respecting reverse directed
edges) whenever it exists.

Registering with ``shards=N`` makes the entry **sharded**: the graph is split
by a :mod:`repro.shard` partitioner, each shard encoded independently, and
queries served through a :class:`~repro.shard.executor.ShardExecutor` whose
supersteps scatter the frontier across per-shard engines.  Update batches are
routed to owner shards' delta overlays, undirected siblings inherit the
sharding spec, and per-shard decoded-plan caches take the place of the single
entry cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compression.cgr import CGRGraph
from repro.dynamic.compaction import CompactionPolicy
from repro.dynamic.overlay import DeltaOverlay
from repro.dynamic.updates import (
    DeltaRecord,
    EdgeUpdate,
    UpdateStats,
    coerce_updates,
)
from repro.gpu.device import GPUDevice
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.traversal.gcgt import GCGTConfig, GCGTEngine
from repro.traversal.native import NativeSession

from repro.service.cache import CacheSnapshot, DecodedAdjacencyCache

if TYPE_CHECKING:  # imported lazily at run time to avoid a package cycle
    from repro.shard.executor import ShardExecutor
    from repro.shard.partition import Partitioner
    from repro.shard.sharded import ShardedCGRGraph

#: Registry key: graph name plus the full engine configuration.
RegistryKey = tuple[str, GCGTConfig]


@dataclass
class RegisteredGraph:
    """One resident graph: raw container, encodings, overlay, engine, cache.

    Attributes:
        name: the name queries address the graph by.
        graph: the uncompressed container, kept in sync with applied updates
            (it is the from-scratch reference the differential tests encode).
        config: the full engine configuration this entry was built with.
        cgr: the frozen base encode (``None`` for sharded entries, whose
            per-shard bases live inside ``sharded``).
        overlay: the delta overlay queries read through (``None`` for
            sharded entries, which keep one overlay per shard).
        engine: the simulated SIMT engine over the overlay, with its own
            plan cache: not on the serving path, which is native; the
            paper's figure harness runs its sessions for modelled cost
            (``None`` for sharded entries, served through ``executor``).
        plan_cache: the per-entry decoded-adjacency LRU native serving reads
            through, holding one live neighbour array per node and epoch
            (``None`` for sharded entries, which keep one cache per shard).
        sharded: the per-shard encode of a sharded entry, else ``None``.
        executor: the scatter-gather superstep engine of a sharded entry.
        shards: the registered shard count (``None`` for unsharded entries).
        partitioner: the partitioner spec a sharded entry was split with
            (propagated to undirected siblings and ``replace``).
    """

    name: str
    graph: Graph
    config: GCGTConfig
    cgr: CGRGraph | None
    overlay: DeltaOverlay | None
    engine: GCGTEngine | None
    plan_cache: DecodedAdjacencyCache | None
    sharded: "ShardedCGRGraph | None" = field(default=None, repr=False)
    executor: "ShardExecutor | None" = field(default=None, repr=False)
    shards: int | None = None
    partitioner: "Partitioner | str | None" = field(default=None, repr=False)
    #: Base-encode generation of an unsharded entry: bumped every time
    #: :meth:`GraphRegistry.rebase` folds the overlay into a fresh base
    #: (sharded entries keep one generation per shard on the executor).
    #: Snapshot base file names derive from it (``base-gen-<g>.cgr``).
    base_generation: int = 0
    #: The symmetrised sibling used by CC queries, built on first use.
    undirected: "RegisteredGraph | None" = field(default=None, repr=False)
    #: Lazily (re)built CSR; dropped whenever an update batch lands.
    _csr: CSRGraph | None = field(default=None, repr=False)
    #: The graph exactly as first registered, before any update batch --
    #: what duplicate-name registration offers are compared against, so an
    #: idempotent re-register of the original snapshot stays a no-op even
    #: after updates have moved ``graph`` on (``None`` only on entries
    #: built by internal paths that never face registration offers).
    registered_graph: Graph | None = field(default=None, repr=False)

    @property
    def csr(self) -> CSRGraph:
        """The uncompressed CSR form, rebuilt on demand after updates."""
        if self._csr is None:
            self._csr = CSRGraph.from_graph(self.graph)
        return self._csr

    @property
    def is_sharded(self) -> bool:
        """Whether queries on this entry run through the shard executor."""
        return self.executor is not None

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the resident graph."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Live edge count (tracks applied updates)."""
        if self.executor is not None:
            return self.executor.num_edges
        assert self.overlay is not None
        return self.overlay.num_edges

    @property
    def epoch(self) -> int:
        """The entry's mutation epoch (0 until the first update batch)."""
        if self.executor is not None:
            return self.executor.epoch
        assert self.overlay is not None
        return self.overlay.epoch

    @property
    def compression_rate(self) -> float:
        """Compression rate over the entry's live bits (shards aggregated)."""
        if self.executor is not None:
            return self.executor.compression_rate
        assert self.overlay is not None
        return self.overlay.compression_rate

    @property
    def bits_per_edge(self) -> float:
        """Live bits per edge: frozen base plus overlay side streams, summed
        across shards for sharded entries."""
        if self.executor is not None:
            return self.executor.bits_per_edge
        assert self.overlay is not None
        return self.overlay.bits_per_edge

    def frontier_engine(self):
        """The engine this entry's queries run on: the shard executor, or a
        fresh :class:`~repro.traversal.native.NativeSession` over the
        overlay and the entry's decoded-adjacency cache."""
        if self.executor is not None:
            return self.executor
        return NativeSession(
            self.overlay, self.plan_cache, self.engine.device.cache_line_bytes
        )

    def all_plan_caches(self) -> list[DecodedAdjacencyCache]:
        """Every decoded-adjacency cache backing this entry (one per shard for
        sharded entries; empty on the process backend, whose caches live in
        worker processes)."""
        if self.executor is not None:
            return list(self.executor.plan_caches)
        assert self.plan_cache is not None
        return [self.plan_cache]

    def all_overlays(self) -> list[DeltaOverlay]:
        """Every delta overlay backing this entry (one per shard when sharded;
        empty on the process backend)."""
        if self.executor is not None:
            return list(self.executor.overlays)
        assert self.overlay is not None
        return [self.overlay]

    def cache_counters(self) -> CacheSnapshot:
        """Aggregate cache counters across the entry's plan caches."""
        caches = self.all_plan_caches()
        return CacheSnapshot(
            hits=sum(c.hits for c in caches),
            misses=sum(c.misses for c in caches),
            evictions=sum(c.evictions for c in caches),
            invalidations=sum(c.invalidations for c in caches),
            miss_decode_ns=sum(c.miss_decode_ns for c in caches),
            build_failures=sum(c.build_failures for c in caches),
        )


def simulated_engine(
    overlay: DeltaOverlay,
    device: GPUDevice,
    config: GCGTConfig,
    cache_capacity: int,
) -> GCGTEngine:
    """The simulated engine of an unsharded entry, with a plan cache of its
    own so native neighbour arrays and :class:`NodePlan` objects never share
    one cache."""
    return GCGTEngine(
        overlay, device=device, config=config,
        plan_cache=DecodedAdjacencyCache(cache_capacity),
    )


class GraphRegistry:
    """Named graphs resident in (simulated) device memory, encoded once."""

    def __init__(
        self,
        device: GPUDevice | None = None,
        default_config: GCGTConfig | None = None,
        cache_capacity: int = 4096,
        compaction_policy: CompactionPolicy | None = None,
    ) -> None:
        self.device = device or GPUDevice()
        self.default_config = default_config or GCGTConfig()
        self.cache_capacity = cache_capacity
        self.compaction_policy = compaction_policy or CompactionPolicy()
        self._entries: dict[RegistryKey, RegisteredGraph] = {}
        #: Total CGR encode calls this registry performed (directed and
        #: undirected variants); flat across repeated registrations/queries
        #: and across update batches (overlays never trigger a full encode).
        self.encode_calls = 0
        #: Update-ingest counters (aggregated across apply_updates calls).
        self.update_batches = 0
        self.edges_inserted = 0
        self.edges_deleted = 0
        #: Per-name logical update epochs: effective batches applied to the
        #: name (compaction never moves these, unlike overlay epochs).
        self._logical_epochs: dict[str, int] = {}
        #: Delta-stream subscribers, called with one
        #: :class:`~repro.dynamic.DeltaRecord` per effective batch.
        self._subscribers: list = []

    # -- delta stream ----------------------------------------------------------

    def subscribe(self, callback) -> None:
        """Register a delta-stream consumer.

        ``callback`` receives one :class:`~repro.dynamic.DeltaRecord` per
        *effective* :meth:`apply_updates` batch (empty and all-no-op batches
        emit nothing), after every resident entry has absorbed the batch --
        so a subscriber reading the registry sees post-batch state.  This is
        how the :class:`~repro.views.ViewManager` maintains materialized
        views, and the hook a future CDC exporter tails.
        """
        self._subscribers.append(callback)

    def logical_epoch(self, name: str) -> int:
        """Effective update batches ever applied to ``name`` (0 initially)."""
        return self._logical_epochs.get(name, 0)

    # -- registration ---------------------------------------------------------

    def register(
        self,
        name: str,
        graph: Graph,
        config: GCGTConfig | None = None,
        shards: int | None = None,
        partitioner: "Partitioner | str | None" = None,
        executor_backend: str = "inline",
    ) -> RegisteredGraph:
        """Make ``graph`` resident under ``name``; a no-op when already there.

        Re-registering the same ``(name, config)`` with the **same
        topology** returns the existing entry without re-encoding, even
        from a different :class:`Graph` instance -- the registry is the
        source of truth for resident graphs.  Offering a *different*
        topology under an already-registered name raises
        :class:`ValueError` **before any entry, cache or executor state is
        created**, whatever the configuration: same-name entries must
        never serve divergent graphs, and silently returning the resident
        entry would hide the caller's data loss (use :meth:`replace` to
        swap a resident graph for new data).  The sharding spec is
        likewise fixed at first registration.

        With ``shards`` set (> 1, or 1 to force the sharded code path), the
        graph is split by ``partitioner`` (a :class:`~repro.shard.partition.
        Partitioner`, a registered name like ``"hash"``/``"range"``/
        ``"greedy"``, or ``None`` for the hash default), each shard is
        encoded independently, and the entry serves queries through a
        :class:`~repro.shard.executor.ShardExecutor` on
        ``executor_backend`` (``"inline"``, ``"thread"`` or ``"process"``).
        """
        config = config or self.default_config
        key = (name, config)
        entry = self._entries.get(key)
        if entry is not None:
            self._reject_divergent(name, entry, graph)
            return entry
        # A new configuration under an existing name must agree on the
        # topology too -- checked against the first-registered sibling
        # before _encode, so a rejected registration leaves no state.
        for (existing_name, _), existing in self._entries.items():
            if existing_name == name:
                self._reject_divergent(name, existing, graph)
                break
        entry = self._encode(
            name, graph, config,
            shards=shards, partitioner=partitioner,
            executor_backend=executor_backend,
        )
        entry.registered_graph = graph
        self._entries[key] = entry
        return entry

    @staticmethod
    def _reject_divergent(
        name: str, entry: RegisteredGraph, graph: Graph
    ) -> None:
        """Raise :class:`ValueError` when ``graph`` matches neither the
        originally registered topology of ``name`` nor its current live
        topology -- so idempotent re-registration of the original snapshot
        stays a no-op even after update batches have moved the entry on."""
        original = entry.registered_graph
        if original is not None and (graph is original or graph == original):
            return
        if graph is entry.graph or graph == entry.graph:
            return
        raise ValueError(
            f"graph name {name!r} is already registered with a different "
            f"topology ({entry.graph.num_nodes} nodes / "
            f"{entry.graph.num_edges} edges resident vs {graph.num_nodes} "
            f"nodes / {graph.num_edges} edges offered); use replace() to "
            "swap the resident graph or register under a new name"
        )

    def replace(
        self,
        name: str,
        graph: Graph,
        config: GCGTConfig | None = None,
    ) -> RegisteredGraph:
        """Swap the resident graph under ``name`` for ``graph``.

        Unlike :meth:`register` this always re-encodes.  With ``config``
        omitted, **every** entry registered under ``name`` is replaced (one
        re-encode per configuration), so same-name entries can never serve
        divergent topologies; pass ``config`` to target a single entry
        explicitly.  Each replaced entry's plan cache **object** is kept
        (its cumulative counters survive, and the plans it still holds are
        dropped as evictions -- see
        :meth:`~repro.service.cache.DecodedAdjacencyCache.clear`); undirected
        siblings are discarded and lazily rebuilt from the new graph on the
        next CC query.  A sharded entry is replaced by a sharded entry with
        the same shard count and partitioner (its previous executor is shut
        down).  Returns the replaced entry (the first-registered one when
        several configurations were replaced).
        """
        if config is not None:
            keys = [(name, config)]
        else:
            keys = [key for key in self._entries if key[0] == name]
            if not keys:
                keys = [(name, self.default_config)]
        for key in keys:
            previous = self._entries.get(key)
            plan_cache = None
            shards = partitioner = None
            executor_backend = "inline"
            if previous is not None:
                plan_cache = previous.plan_cache
                if plan_cache is not None:
                    plan_cache.clear()
                shards = previous.shards
                partitioner = previous.partitioner
                if previous.executor is not None:
                    executor_backend = previous.executor.backend
                    previous.executor.close()
                if previous.undirected is not None and previous.undirected.executor is not None:
                    previous.undirected.executor.close()
            replacement = self._encode(
                name, graph, key[1], plan_cache=plan_cache,
                shards=shards, partitioner=partitioner,
                executor_backend=executor_backend,
            )
            replacement.registered_graph = graph
            if previous is not None and previous.executor is not None:
                self._carry_cache_counters(previous, replacement)
            self._entries[key] = replacement
        return self._entries[keys[0]]

    @staticmethod
    def _carry_cache_counters(
        previous: RegisteredGraph, replacement: RegisteredGraph
    ) -> None:
        """Fold a replaced sharded entry's cache counters into its successor.

        Unsharded replacement keeps the cache *object* (counters survive,
        resident plans drop as evictions via ``clear``); a sharded
        replacement builds fresh per-shard caches, so the cumulative
        counters are carried over explicitly -- resident plans counted as
        evictions -- keeping :meth:`TraversalService.stats` monotonic
        across replacements either way.
        """
        for old, new in zip(
            previous.all_plan_caches(), replacement.all_plan_caches()
        ):
            new.hits += old.hits
            new.misses += old.misses
            new.evictions += old.evictions + len(old)
            new.invalidations += old.invalidations
            new.miss_decode_ns += old.miss_decode_ns

    def _encode(
        self,
        name: str,
        graph: Graph,
        config: GCGTConfig,
        plan_cache: DecodedAdjacencyCache | None = None,
        shards: int | None = None,
        partitioner: "Partitioner | str | None" = None,
        executor_backend: str = "inline",
    ) -> RegisteredGraph:
        """Pay the one-time encode + residency cost for one graph."""
        if shards is not None:
            return self._encode_sharded(
                name, graph, config, shards, partitioner, executor_backend
            )
        cgr = CGRGraph.from_adjacency(graph.adjacency(), config.effective_cgr_config())
        overlay = DeltaOverlay(cgr, policy=self.compaction_policy)
        if plan_cache is None:
            plan_cache = DecodedAdjacencyCache(self.cache_capacity)
        self.encode_calls += 1
        return RegisteredGraph(
            name=name,
            graph=graph,
            config=config,
            cgr=cgr,
            overlay=overlay,
            engine=simulated_engine(
                overlay, self.device, config, self.cache_capacity
            ),
            plan_cache=plan_cache,
            _csr=CSRGraph.from_graph(graph),
        )

    def _encode_sharded(
        self,
        name: str,
        graph: Graph,
        config: GCGTConfig,
        shards: int,
        partitioner: "Partitioner | str | None",
        executor_backend: str,
    ) -> RegisteredGraph:
        """Partition, encode every shard, and stand the superstep executor up.

        Counts one encode call per shard: that is the real host-side encode
        work performed, and it keeps the encode-once contract observable --
        repeated queries never move the counter.
        """
        # Imported here: repro.shard builds on the service cache module, so a
        # top-level import would be circular.
        from repro.shard.executor import ShardExecutor
        from repro.shard.sharded import ShardedCGRGraph

        sharded = ShardedCGRGraph.from_graph(
            graph, shards, partitioner=partitioner,
            config=config.effective_cgr_config(),
        )
        executor = ShardExecutor(
            sharded,
            backend=executor_backend,
            device=self.device,
            config=config,
            cache_capacity=self.cache_capacity,
            compaction_policy=self.compaction_policy,
        )
        self.encode_calls += sharded.num_shards
        return RegisteredGraph(
            name=name,
            graph=graph,
            config=config,
            cgr=None,
            overlay=None,
            engine=None,
            plan_cache=None,
            sharded=sharded,
            executor=executor,
            shards=shards,
            partitioner=partitioner,
            _csr=CSRGraph.from_graph(graph),
        )

    # -- updates --------------------------------------------------------------

    def apply_updates(self, name: str, updates) -> UpdateStats:
        """Absorb an edge-update batch into every entry registered as ``name``.

        The batch (a sequence of :class:`~repro.dynamic.EdgeUpdate` or
        ``(kind, source, target)`` triples, applied in order) lands in each
        entry's overlay -- no full re-encode -- and is mirrored onto the
        lazily-built undirected sibling when one exists, respecting reverse
        directed edges (deleting ``u -> v`` only removes the undirected edge
        when ``v -> u`` is also absent).  Touched nodes' cached plans are
        invalidated; untouched plans stay warm.  Raises :class:`KeyError`
        for unknown names.

        An empty batch is a true no-op: no epoch moves, no cache entry is
        invalidated, no counter changes and no view maintenance runs.

        Returns the effective :class:`~repro.dynamic.UpdateStats` of one
        representative entry (all same-name entries hold the same topology,
        so their applied sets coincide; compactions are summed across
        entries because they depend on each entry's encoding).
        """
        batch = coerce_updates(updates)
        keys = [key for key in self._entries if key[0] == name]
        if not keys:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"graph {name!r} is not registered; registered names: {known}"
            )
        if not batch:
            return UpdateStats()
        total: UpdateStats | None = None
        for key in keys:
            entry = self._entries[key]
            stats = self._apply_to_entry(entry, batch)
            if total is None:
                total = stats
            else:
                total.compactions += stats.compactions
        assert total is not None
        self.update_batches += 1
        self.edges_inserted += total.inserted
        self.edges_deleted += total.deleted
        if total.changed:
            self._notify(name, self._entries[keys[0]], total)
        return total

    def _notify(
        self, name: str, representative: RegisteredGraph, total: UpdateStats
    ) -> None:
        """Advance the logical epoch and broadcast one effective batch."""
        self._logical_epochs[name] = self.logical_epoch(name) + 1
        if not self._subscribers:
            return
        record = DeltaRecord(
            name=name,
            epoch=self._logical_epochs[name],
            graph_epoch=representative.epoch,
            applied=tuple(total.applied),
            mirror_applied=tuple(
                self._mirror_batch(total.applied, representative.graph)
            ),
            touched_nodes=frozenset(total.touched_nodes),
        )
        for subscriber in self._subscribers:
            subscriber(record)

    def _apply_to_entry(
        self, entry: RegisteredGraph, batch: list[EdgeUpdate]
    ) -> UpdateStats:
        """One entry's share of a batch: overlay, container, sibling, cache.

        Sharded entries route the batch through their executor, which splits
        it by owner shard, applies each sub-batch to that shard's overlay and
        invalidates the touched nodes in that shard's plan cache.
        """
        if entry.executor is not None:
            stats = entry.executor.apply_updates(batch)
        else:
            assert entry.overlay is not None and entry.plan_cache is not None
            stats = entry.overlay.apply(batch)
            for node in stats.touched_nodes:
                entry.plan_cache.invalidate(node)
        if stats.changed:
            entry.graph = entry.graph.with_edge_updates(stats.applied)
            entry._csr = None
        if entry.undirected is not None and stats.changed:
            mirror = self._mirror_batch(stats.applied, entry.graph)
            sibling = entry.undirected
            if sibling.executor is not None:
                mirror_stats = sibling.executor.apply_updates(mirror)
            else:
                assert sibling.overlay is not None and sibling.plan_cache is not None
                mirror_stats = sibling.overlay.apply(mirror)
                for node in mirror_stats.touched_nodes:
                    sibling.plan_cache.invalidate(node)
            if mirror_stats.changed:
                entry.undirected.graph = entry.undirected.graph.with_edge_updates(
                    mirror_stats.applied
                )
                entry.undirected._csr = None
            stats.compactions += mirror_stats.compactions
        return stats

    @staticmethod
    def _mirror_batch(
        applied: list[EdgeUpdate], directed_after: Graph
    ) -> list[EdgeUpdate]:
        """Translate applied directed updates for the undirected sibling.

        Inserts always materialise both directions (idempotent when the
        undirected edge already exists).  A delete removes both directions
        only when the *post-batch* directed graph holds neither direction --
        if the reverse edge survives, the undirected edge must too.
        """
        mirror: list[EdgeUpdate] = []
        for update in applied:
            if update.kind == "insert":
                mirror.append(update)
                mirror.append(update.reversed)
            else:
                if not directed_after.has_edge(update.target, update.source):
                    mirror.append(update)
                    mirror.append(update.reversed)
        return mirror

    # -- overlay-to-base compaction (rebase) -----------------------------------

    def rebase(
        self,
        name: str,
        config: GCGTConfig | None = None,
        shard: int | None = None,
    ) -> list[dict]:
        """Fold overlay state back into fresh frozen base encode(s).

        The maintenance counterpart of per-node compaction: where
        :meth:`~repro.dynamic.DeltaOverlay.compact` folds one node's delta
        into the overlay's side stream, a rebase re-encodes the *entire*
        merged adjacency into a new immutable base and wraps a fresh, empty
        overlay around it -- reclaiming every garbage bit and restoring
        first-encode locality.  Topology and query answers are unchanged;
        the entry's base generation advances, so the next snapshot writes a
        new ``base-gen-<g>.cgr`` while epochs already published keep their
        old base files (retention GC collects them once unreachable).

        For sharded entries one shard is rebased per call when ``shard`` is
        given (the incremental form the maintenance scheduler uses, keeping
        each pause bounded by the largest shard), or every shard in turn
        when omitted.  The entry's overlay/engine swap is atomic under the
        caller's lock (the service serialises mutations); overlay epochs
        advance so snapshot delta names never collide, and cumulative
        counters carry over so :meth:`TraversalService.stats` stays
        monotone.  Counts one encode call per rebased base.  Undirected CC
        siblings keep their own overlays and are untouched here: they are
        derived state, cheap to keep (per-node compaction still folds their
        deltas) and rebuilt from the primary on replace/restore anyway.

        Returns one summary dict per rebased base (``generation``,
        ``garbage_bits`` reclaimed, new ``epoch``; sharded summaries name
        their ``shard``).  Raises :class:`KeyError` for unknown names and
        :class:`RuntimeError` for process-backed sharded entries.
        """
        entry = self.resolve(name, config)
        if entry.executor is not None:
            shards = [shard] if shard is not None else range(entry.executor.num_shards)
            reports = []
            for index in shards:
                reports.append(entry.executor.rebase_shard(index))
                self.encode_calls += 1
            return reports
        assert entry.overlay is not None and entry.plan_cache is not None
        old = entry.overlay
        reclaimed = old.garbage_bits
        merged = [old.neighbors(node) for node in range(old.num_nodes)]
        cgr = CGRGraph.from_adjacency(
            merged, entry.config.effective_cgr_config()
        )
        overlay = DeltaOverlay(cgr, policy=self.compaction_policy)
        overlay.epoch = old.epoch + 1
        overlay.updates_applied = old.updates_applied
        overlay.updates_ignored = old.updates_ignored
        overlay.compactions = old.compactions
        entry.plan_cache.clear()
        entry.cgr = cgr
        entry.overlay = overlay
        entry.engine = simulated_engine(
            overlay, self.device, entry.config, self.cache_capacity
        )
        entry.base_generation += 1
        self.encode_calls += 1
        return [{
            "shard": None,
            "generation": entry.base_generation,
            "garbage_bits": reclaimed,
            "epoch": overlay.epoch,
        }]

    # -- persistence ----------------------------------------------------------

    def snapshot(
        self,
        name: str,
        directory,
        config: GCGTConfig | None = None,
    ):
        """Persist the entry serving ``name`` into a snapshot directory.

        Writes (or, on later epochs, reuses) the immutable base graph
        file(s), a delta file capturing the entry's current overlay state
        bit for bit, and an Iceberg-style manifest (see
        :mod:`repro.store.snapshot` and ``docs/FORMAT.md``).  The entry is
        resolved like :meth:`resolve`; undirected CC siblings are derived
        state and are rebuilt lazily after a restore.  The manifest records
        the name's current logical epoch, which is where a CDC follower
        restored from this snapshot resumes the change stream.  Returns the
        manifest path.  Sharded entries must run on the ``inline`` or
        ``thread`` backend (process workers' overlay state is not
        capturable).
        """
        from repro.store.snapshot import write_snapshot

        return write_snapshot(
            self.resolve(name, config), directory,
            logical_epoch=self.logical_epoch(name),
        )

    def restore(
        self,
        location,
        executor_backend: str = "inline",
    ) -> RegisteredGraph:
        """Load a snapshot back into this registry -- zero re-encoding.

        ``location`` is a snapshot directory (its ``manifest.json`` is read)
        or an explicit manifest path (pass an epoch-tagged manifest for time
        travel).  The base payload is wrapped as-is
        (:func:`repro.store.read_graph_file`), the overlay's side stream,
        extents and pending deltas are restored exactly, and the entry is
        registered under its snapshotted name and configuration --
        ``encode_calls`` does not move, which is the whole point.  Raises
        :class:`~repro.store.StoreError` if that ``(name, config)`` key is
        already resident (use a fresh registry, or :meth:`replace` for new
        data).
        """
        from repro.store.format import StoreError
        from repro.store.snapshot import (
            engine_config_from_dict,
            read_manifest,
            resolve_manifest_path,
            restore_entry,
        )

        # Check the key against the manifest *before* loading anything, so a
        # conflicting restore never builds (and leaks) engines or executors.
        manifest_path = resolve_manifest_path(location)
        manifest = read_manifest(manifest_path)
        key = (manifest["name"], engine_config_from_dict(manifest["engine_config"]))
        if key in self._entries:
            raise StoreError(
                f"graph {manifest['name']!r} is already registered under the "
                "snapshot's configuration; restore into a fresh registry or "
                "use replace() for new data"
            )
        entry = restore_entry(
            manifest_path,
            device=self.device,
            cache_capacity=self.cache_capacity,
            compaction_policy=self.compaction_policy,
            executor_backend=executor_backend,
            manifest=manifest,
        )
        self._entries[key] = entry
        # Resume the name's logical clock at the snapshot's position so a
        # restored primary's future CDC records continue the stream the
        # snapshot cut (never moving the clock backwards if an entry for
        # the name already advanced it).
        self._logical_epochs[key[0]] = max(
            self.logical_epoch(key[0]), manifest["logical_epoch"]
        )
        return entry

    # -- lookup ---------------------------------------------------------------

    def resolve(self, name: str, config: GCGTConfig | None = None) -> RegisteredGraph:
        """The resident entry serving queries against ``name``.

        An exact ``(name, config)`` match wins (``config`` defaulting to the
        registry default); otherwise a graph registered under exactly one
        configuration resolves by name alone, so registering with a custom
        config and then querying it just works.  Several configurations with
        no exact match is ambiguous and raises :class:`KeyError`.
        """
        exact = self._entries.get((name, config or self.default_config))
        if exact is not None:
            return exact
        matches = [
            entry for (entry_name, _), entry in self._entries.items()
            if entry_name == name
        ]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise KeyError(
                f"graph {name!r} is registered under {len(matches)} "
                "configurations and none matches the requested one; "
                "pass the configuration explicitly"
            )
        known = ", ".join(self.names()) or "<none>"
        raise KeyError(
            f"graph {name!r} is not registered; registered names: {known}"
        )

    def undirected_variant(self, entry: RegisteredGraph) -> RegisteredGraph:
        """The symmetrised sibling of ``entry``, encoded on first use only.

        The sibling symmetrises the entry's *current* graph, so a sibling
        first requested after update batches starts from the mutated
        topology; later batches are mirrored onto it incrementally.
        """
        if entry.undirected is None:
            backend = "inline"
            if entry.executor is not None:
                backend = entry.executor.backend
            entry.undirected = self._encode(
                f"{entry.name}#undirected",
                entry.graph.to_undirected(),
                entry.config,
                shards=entry.shards,
                partitioner=entry.partitioner,
                executor_backend=backend,
            )
        return entry.undirected

    # -- introspection --------------------------------------------------------

    def names(self) -> list[str]:
        """Registered graph names (without their configuration keys), sorted."""
        return sorted({name for name, _ in self._entries})

    def primary_entries(self) -> list[RegisteredGraph]:
        """Directly registered entries (no undirected siblings), in
        registration order."""
        return list(self._entries.values())

    def entries(self) -> list[RegisteredGraph]:
        """Every resident entry, including lazily-built undirected siblings."""
        result = []
        for entry in self._entries.values():
            result.append(entry)
            if entry.undirected is not None:
                result.append(entry.undirected)
        return result

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return any(entry_name == name for entry_name, _ in self._entries)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut down every sharded entry's executor (worker pools included).

        Long-lived hosts using the ``"process"`` backend should call this
        (or use :class:`~repro.service.TraversalService` as a context
        manager) when done serving; otherwise each sharded registration's
        single-worker pools -- and the lazily built undirected siblings' --
        outlive their usefulness.  Unsharded entries are unaffected; sharded
        entries refuse further queries once closed.
        """
        for entry in self.entries():
            if entry.executor is not None:
                entry.executor.close()


__all__ = ["GraphRegistry", "RegisteredGraph", "RegistryKey", "simulated_engine"]
