"""Epoch snapshots: manifests tying base graph files to per-epoch deltas.

A snapshot directory is an Iceberg-style layout: **immutable base files**
(the frozen CGR encode, written once and shared by every snapshot of the
graph), **per-epoch delta files** (one per overlay, cheap, written at every
snapshot), and small JSON **manifests** naming which files make up each
snapshot.  ``manifest.json`` always points at the latest snapshot; an
epoch-tagged copy (``manifest-epoch-<E>.json``) is kept per snapshot, so
older epochs remain restorable for as long as their delta files exist::

    snapshots/uk/
      manifest.json               <- current pointer (= latest epoch copy)
      manifest-epoch-0.json
      manifest-epoch-3.json
      base.cgr                    <- written once, reused by every epoch
      epoch-0.delta
      epoch-3.delta

Sharded entries keep one base graph file and one delta file **per shard**
(``shard-<i>.cgr`` / ``shard-<i>-epoch-<E>.delta``) plus a partition file,
all sharing the one manifest.

:func:`write_snapshot` captures a live
:class:`~repro.service.registry.RegisteredGraph`;
:func:`restore_entry` rebuilds one from disk -- zero re-encoding, identical
bit-level state, so a restored service answers queries bit-identically to
the service that wrote the snapshot.  The registry fronts both
(:meth:`~repro.service.GraphRegistry.snapshot` /
:meth:`~repro.service.GraphRegistry.restore`), as does the service
(:meth:`~repro.service.TraversalService.save_graph` /
:meth:`~repro.service.TraversalService.load_graph`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.compression.cgr import CGRConfig
from repro.dynamic.compaction import CompactionPolicy
from repro.dynamic.overlay import DeltaOverlay
from repro.gpu.device import GPUDevice
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.service.cache import DecodedAdjacencyCache
from repro.service.registry import RegisteredGraph, simulated_engine
from repro.traversal.gcgt import GCGTConfig

from repro.store.files import (
    graph_fingerprint,
    read_delta_file,
    read_graph_file,
    read_graph_meta,
    read_partition_file,
    write_delta_file,
    write_graph_file,
    write_partition_file,
)
from repro.store.format import StoreError, StoreFormatError
from repro.store.io import publish_text

if TYPE_CHECKING:  # imported lazily at run time (registry <-> shard layering)
    from repro.shard.executor import ShardExecutor

#: Revision of the manifest schema (independent of the binary file version).
#: Revision 2 adds lifecycle fields: ``logical_epoch`` (the registry's
#: count of effective update batches, which CDC followers resume from) and
#: ``base_generation`` (per base file, bumped by overlay-to-base
#: compaction so rebased epochs get fresh immutable base files).
MANIFEST_VERSION = 2

#: Manifest revisions this reader understands.  Revision-1 manifests
#: (pre-lifecycle) load with ``logical_epoch`` 0 and generation-0 bases.
SUPPORTED_MANIFEST_VERSIONS = (1, 2)

#: The ``kind`` field every manifest must carry.
MANIFEST_KIND = "cgr-snapshot"

#: File names inside a snapshot directory.
MANIFEST_NAME = "manifest.json"
PARTITION_NAME = "partition.bin"


def base_file_name(generation: int, shard: int | None = None) -> str:
    """The immutable base file name for one base generation.

    Generation 0 keeps the original names (``base.cgr`` /
    ``shard-<i>.cgr``); every overlay-to-base compaction bumps the
    generation and writes a fresh ``…-gen-<g>.cgr`` alongside, leaving
    earlier generations in place for the epochs that still reference them
    (retention GC deletes a generation once no manifest or tag reaches it).
    """
    stem = "base" if shard is None else f"shard-{shard}"
    if generation == 0:
        return f"{stem}.cgr"
    return f"{stem}-gen-{generation}.cgr"


def delta_file_name(epoch: int, shard: int | None = None) -> str:
    """The per-epoch delta file name (``epoch-<E>.delta`` and friends)."""
    if shard is None:
        return f"epoch-{epoch}.delta"
    return f"shard-{shard}-epoch-{epoch}.delta"


def engine_config_to_dict(config: GCGTConfig) -> dict:
    """JSON-safe form of a :class:`~repro.traversal.gcgt.GCGTConfig`."""
    return {
        "two_phase": config.two_phase,
        "task_stealing": config.task_stealing,
        "warp_centric": config.warp_centric,
        "residual_segmentation": config.residual_segmentation,
        "long_residual_threshold": config.long_residual_threshold,
        "cgr": config.cgr.to_dict(),
    }


def engine_config_from_dict(data: dict) -> GCGTConfig:
    """Rebuild a :class:`~repro.traversal.gcgt.GCGTConfig` from manifest JSON."""
    return GCGTConfig(
        two_phase=data["two_phase"],
        task_stealing=data["task_stealing"],
        warp_centric=data["warp_centric"],
        residual_segmentation=data["residual_segmentation"],
        long_residual_threshold=data["long_residual_threshold"],
        cgr=CGRConfig.from_dict(data["cgr"]),
    )


#: Fields every manifest must carry; the sharded ones are checked when
#: ``sharded`` is true.
_MANIFEST_REQUIRED = (
    "name", "epoch", "num_nodes", "num_edges", "engine_config",
    "sharded", "base_files", "delta_files",
)
_MANIFEST_REQUIRED_SHARDED = ("shards", "partition_file")


def read_manifest(path: str | Path) -> dict:
    """Load and validate a snapshot manifest (schema + required fields)."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise StoreFormatError(f"{path}: manifest is not valid JSON: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != MANIFEST_KIND:
        raise StoreFormatError(
            f"{path}: not a snapshot manifest (kind must be {MANIFEST_KIND!r})"
        )
    if manifest.get("manifest_version") not in SUPPORTED_MANIFEST_VERSIONS:
        raise StoreFormatError(
            f"{path}: manifest version {manifest.get('manifest_version')!r} "
            f"is not supported (expected one of {SUPPORTED_MANIFEST_VERSIONS})"
        )
    required = _MANIFEST_REQUIRED
    if manifest.get("sharded"):
        required = required + _MANIFEST_REQUIRED_SHARDED
    missing = [field for field in required if manifest.get(field) is None]
    if missing:
        raise StoreFormatError(
            f"{path}: manifest is missing required field(s): "
            f"{', '.join(missing)}"
        )
    if len(manifest["base_files"]) != len(manifest["delta_files"]):
        raise StoreFormatError(
            f"{path}: {len(manifest['base_files'])} base file(s) but "
            f"{len(manifest['delta_files'])} delta file(s)"
        )
    if manifest.get("sharded") and len(manifest["base_files"]) != manifest["shards"]:
        raise StoreFormatError(
            f"{path}: manifest declares {manifest['shards']} shard(s) but "
            f"lists {len(manifest['base_files'])} base file(s)"
        )
    # Normalize the revision-2 lifecycle fields so every caller sees them:
    # revision-1 manifests predate the CDC log (logical epoch 0) and were
    # always written against generation-0 bases.
    if manifest.get("logical_epoch") is None:
        manifest["logical_epoch"] = 0
    if manifest.get("base_generations") is None:
        manifest["base_generations"] = [0] * len(manifest["base_files"])
    if len(manifest["base_generations"]) != len(manifest["base_files"]):
        raise StoreFormatError(
            f"{path}: {len(manifest['base_files'])} base file(s) but "
            f"{len(manifest['base_generations'])} base generation(s)"
        )
    try:
        engine_config_from_dict(manifest["engine_config"])
    except (KeyError, TypeError, ValueError) as error:
        raise StoreFormatError(
            f"{path}: malformed engine_config: {error!r}"
        ) from None
    return manifest


def _partitioner_name(partitioner) -> str | None:
    """The partitioner's registered name, or ``None`` when unknown.

    The snapshotted assignment is always restored verbatim; the name only
    matters if the restored entry is later :meth:`~repro.service.
    GraphRegistry.replace`-d, which re-partitions.  Instances persist by
    their registered strategy name (constructor parameters such as the
    greedy balancer's tolerance are not serialized).
    """
    from repro.shard.partition import PARTITIONERS

    if isinstance(partitioner, str):
        return partitioner
    name = getattr(partitioner, "name", None)
    return name if isinstance(name, str) and name in PARTITIONERS else None


def _write_base_file(path: Path, cgr) -> bool:
    """Write a base graph file, or verify an existing one matches.

    Base files are immutable: a snapshot at a later epoch reuses the file
    written by the first snapshot.  If a file is already present it must
    describe the same encode (counts, bit length, encoding parameters);
    anything else means the directory holds a different graph, which is
    refused rather than silently overwritten.  Returns whether the file
    was newly written (``False`` when a verified copy already existed).
    """
    if not path.exists():
        write_graph_file(path, cgr)
        return True
    meta = read_graph_meta(path)
    fingerprint = graph_fingerprint(cgr)
    if any(meta.get(field) != value for field, value in fingerprint.items()):
        raise StoreError(
            f"{path}: existing base file describes a different graph; "
            "refusing to overwrite -- snapshot into a fresh directory"
        )
    return False


class _StagedWrites:
    """Rollback ledger for one :func:`write_snapshot` call.

    Records every file the call *newly created* (pre-existing base files,
    partition files and epoch deltas are never rolled back) so that an
    in-process failure mid-sequence can unlink the partial snapshot and
    leave the directory exactly as it was -- the all-or-nothing guarantee.
    A process crash skips the rollback, but the pointer-last write order
    means the stray files are unreferenced and retention GC removes them.
    """

    def __init__(self) -> None:
        self.created: list[Path] = []

    def publish(self, path: Path, writer, *args) -> None:
        """Run ``writer(path, *args)``, recording ``path`` if newly created."""
        existed = path.exists()
        writer(path, *args)
        if not existed:
            self.created.append(path)

    def rollback(self) -> None:
        """Best-effort unlink of every newly created file (in-process only)."""
        import contextlib
        import os

        for path in reversed(self.created):
            with contextlib.suppress(OSError):
                os.unlink(path)


def write_snapshot(
    entry: RegisteredGraph,
    directory: str | Path,
    logical_epoch: int = 0,
) -> Path:
    """Capture one registered entry into ``directory``; returns the manifest.

    Base graph files are written on the first snapshot and reused (verified,
    never rewritten) afterwards; a delta file per overlay and a manifest are
    written for the entry's current epoch.  Undirected CC siblings are
    derived state and are not captured -- a restored entry rebuilds its
    sibling lazily on the first CC query, with identical answers.

    The write is all-or-nothing: files are staged through a rollback ledger
    and the ``manifest.json`` pointer is swapped last, so an in-process
    failure unlinks every newly created file (no half-snapshot left behind)
    and a process crash leaves the old pointer intact with only
    unreferenced strays for GC.

    ``logical_epoch`` is the registry's effective-batch counter at capture
    time; a CDC follower resumes the change stream from it.

    Sharded entries must run on the ``inline`` or ``thread`` backend: the
    ``process`` backend's overlays live inside worker processes, where their
    bit-level state cannot be captured.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest: dict = {
        "manifest_version": MANIFEST_VERSION,
        "kind": MANIFEST_KIND,
        "name": entry.name,
        "epoch": entry.epoch,
        "logical_epoch": logical_epoch,
        "num_nodes": entry.num_nodes,
        "num_edges": entry.num_edges,
        "engine_config": engine_config_to_dict(entry.config),
        "sharded": entry.is_sharded,
    }

    staged = _StagedWrites()
    try:
        if entry.is_sharded:
            executor = entry.executor
            assert executor is not None and entry.sharded is not None
            if executor.backend == "process":
                raise StoreError(
                    "cannot snapshot a process-backed sharded entry: per-shard "
                    "overlay state lives in worker processes; register with the "
                    "'inline' or 'thread' backend to snapshot"
                )
            epoch = executor.epoch
            generations = list(executor.base_generations)
            base_files, delta_files = [], []
            staged.publish(
                directory / PARTITION_NAME,
                write_partition_file,
                entry.sharded.partition.assignment,
                entry.sharded.num_shards,
            )
            for shard, overlay in enumerate(executor.overlays):
                base_name = base_file_name(generations[shard], shard)
                delta_name = delta_file_name(epoch, shard)
                staged.publish(
                    directory / base_name, _write_base_file, overlay.base
                )
                staged.publish(directory / delta_name, write_delta_file, overlay)
                base_files.append(base_name)
                delta_files.append(delta_name)
            manifest.update({
                "shards": entry.sharded.num_shards,
                "partitioner": _partitioner_name(entry.partitioner),
                "partition_file": PARTITION_NAME,
                "base_files": base_files,
                "delta_files": delta_files,
                "base_generations": generations,
            })
        else:
            assert entry.overlay is not None and entry.cgr is not None
            epoch = entry.overlay.epoch
            generation = entry.base_generation
            base_name = base_file_name(generation)
            delta_name = delta_file_name(epoch)
            staged.publish(directory / base_name, _write_base_file, entry.cgr)
            staged.publish(directory / delta_name, write_delta_file, entry.overlay)
            manifest.update({
                "shards": None,
                "partitioner": None,
                "partition_file": None,
                "base_files": [base_name],
                "delta_files": [delta_name],
                "base_generations": [generation],
            })

        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        staged.publish(
            directory / f"manifest-epoch-{manifest['epoch']}.json",
            publish_text, text,
        )
        pointer = directory / MANIFEST_NAME
        # The pointer swap must be atomic (write-aside + rename) and LAST: a
        # crash at any earlier boundary must never leave manifest.json
        # referencing files that were not yet durable -- the Iceberg
        # pointer-commit discipline.
        publish_text(pointer, text)
    except BaseException:
        staged.rollback()
        raise
    return pointer


def resolve_manifest_path(location: str | Path) -> Path:
    """Accept a snapshot directory or a manifest file path; return the manifest."""
    location = Path(location)
    if location.is_dir():
        return location / MANIFEST_NAME
    return location


def restore_entry(
    location: str | Path,
    device: GPUDevice,
    cache_capacity: int = 4096,
    compaction_policy: CompactionPolicy | None = None,
    executor_backend: str = "inline",
    manifest: dict | None = None,
) -> RegisteredGraph:
    """Rebuild a :class:`~repro.service.registry.RegisteredGraph` from disk.

    ``location`` is a snapshot directory (its ``manifest.json`` is used) or
    an explicit manifest path (pass an epoch-tagged manifest to restore an
    older snapshot).  The base payloads are wrapped without re-encoding and
    every overlay's bit-level state is restored exactly, so queries on the
    restored entry -- including simulated costs -- match the snapshotted
    service bit for bit.  Sharded restores accept only the ``inline`` and
    ``thread`` backends (process workers cannot be seeded with overlay
    state).

    ``manifest`` lets a caller that already validated the manifest (the
    registry's pre-restore collision check) pass it through instead of
    re-reading the file; it must be :func:`read_manifest` output for
    ``location``.
    """
    manifest_path = resolve_manifest_path(location)
    if manifest is None:
        manifest = read_manifest(manifest_path)
    directory = manifest_path.parent
    config = engine_config_from_dict(manifest["engine_config"])
    policy = compaction_policy or CompactionPolicy()

    if manifest["sharded"]:
        entry = _restore_sharded(
            manifest, directory, config, device,
            cache_capacity, policy, executor_backend,
        )
    else:
        entry = _restore_unsharded(
            manifest, directory, config, device, cache_capacity, policy
        )

    if entry.num_nodes != manifest["num_nodes"] or entry.num_edges != manifest["num_edges"]:
        if entry.executor is not None:
            entry.executor.close()  # release worker pools before rejecting
        raise StoreFormatError(
            f"{manifest_path}: restored entry has {entry.num_nodes} nodes / "
            f"{entry.num_edges} edges, manifest declares "
            f"{manifest['num_nodes']} / {manifest['num_edges']}"
        )
    return entry


def _restore_unsharded(
    manifest: dict,
    directory: Path,
    config: GCGTConfig,
    device: GPUDevice,
    cache_capacity: int,
    policy: CompactionPolicy,
) -> RegisteredGraph:
    """Load base + delta and stand a resident engine up around them."""
    base = read_graph_file(directory / manifest["base_files"][0])
    _check_encoding(base, config, directory / manifest["base_files"][0])
    overlay = read_delta_file(
        directory / manifest["delta_files"][0], base, policy=policy
    )
    graph = overlay.materialize()
    return RegisteredGraph(
        name=manifest["name"],
        graph=graph,
        config=config,
        cgr=base,
        overlay=overlay,
        engine=simulated_engine(overlay, device, config, cache_capacity),
        plan_cache=DecodedAdjacencyCache(cache_capacity),
        base_generation=manifest["base_generations"][0],
        _csr=CSRGraph.from_graph(graph),
    )


def _restore_sharded(
    manifest: dict,
    directory: Path,
    config: GCGTConfig,
    device: GPUDevice,
    cache_capacity: int,
    policy: CompactionPolicy,
    executor_backend: str,
) -> RegisteredGraph:
    """Load every shard's base + delta and stand the superstep executor up."""
    # Imported here: repro.shard builds on the service cache module, so a
    # top-level import would be circular.
    from repro.shard.executor import ShardExecutor
    from repro.shard.sharded import ShardedCGRGraph

    assignment, num_shards = read_partition_file(
        directory / manifest["partition_file"]
    )
    if num_shards != manifest["shards"]:
        raise StoreFormatError(
            f"{directory / manifest['partition_file']}: partition holds "
            f"{num_shards} shards, manifest declares {manifest['shards']}"
        )
    shards = []
    overlays: list[DeltaOverlay] = []
    for base_name, delta_name in zip(
        manifest["base_files"], manifest["delta_files"]
    ):
        base = read_graph_file(directory / base_name)
        _check_encoding(base, config, directory / base_name)
        shards.append(base)
        overlays.append(
            read_delta_file(directory / delta_name, base, policy=policy)
        )
    adjacency = [
        overlays[int(assignment[node])].neighbors(node)
        for node in range(len(assignment))
    ]
    graph = Graph(adjacency)
    sharded = ShardedCGRGraph.from_restored(
        graph, assignment, shards, config.effective_cgr_config()
    )
    executor = ShardExecutor(
        sharded,
        backend=executor_backend,
        device=device,
        config=config,
        cache_capacity=cache_capacity,
        compaction_policy=policy,
        overlays=overlays,
        initial_epoch=manifest["epoch"],
    )
    executor.base_generations = list(manifest["base_generations"])
    return RegisteredGraph(
        name=manifest["name"],
        graph=graph,
        config=config,
        cgr=None,
        overlay=None,
        engine=None,
        plan_cache=None,
        sharded=sharded,
        executor=executor,
        shards=manifest["shards"],
        partitioner=manifest["partitioner"],
        _csr=CSRGraph.from_graph(graph),
    )


def _check_encoding(base, config: GCGTConfig, path: Path) -> None:
    """Reject a base file whose encoding disagrees with the manifest config."""
    if base.config != config.effective_cgr_config():
        raise StoreFormatError(
            f"{path}: base file encoding {base.config.to_dict()} does not "
            "match the manifest's engine configuration "
            f"{config.effective_cgr_config().to_dict()}"
        )


__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "PARTITION_NAME",
    "SUPPORTED_MANIFEST_VERSIONS",
    "base_file_name",
    "delta_file_name",
    "engine_config_from_dict",
    "engine_config_to_dict",
    "read_manifest",
    "resolve_manifest_path",
    "restore_entry",
    "write_snapshot",
]
