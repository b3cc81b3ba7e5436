"""repro: a reproduction of "GPU-based Graph Traversal on Compressed Graphs".

The library implements GCGT (Sha, Li & Tan, SIGMOD 2019) and every substrate
it depends on, in pure Python:

* :mod:`repro.compression` -- the compressed graph representation (CGR):
  variable-length codes, intervals/residuals, gap transformation, residual
  segmentation, plus virtual-node and byte-RLE compression;
* :mod:`repro.graph` -- graph containers, CSR, synthetic dataset models;
* :mod:`repro.reorder` -- node-reordering algorithms (DegSort, BFS, Gorder,
  LLP, SlashBurn);
* :mod:`repro.gpu` -- a deterministic SIMT warp/memory simulator standing in
  for CUDA hardware;
* :mod:`repro.traversal` -- the GCGT scheduling strategies (Two-Phase
  Traversal, Task Stealing, warp-centric decoding, residual segmentation)
  and the traversal engine;
* :mod:`repro.apps` -- BFS, Connected Components and Betweenness Centrality
  on the expansion--filtering--contraction pipeline;
* :mod:`repro.baselines` -- Naive/Ligra/Ligra+ CPU engines and
  GPU-CSR/Gunrock-like GPU engines;
* :mod:`repro.service` -- the serving layer: a graph registry with
  encode-once semantics, an LRU decoded-adjacency cache, and
  :class:`TraversalService`, which answers batches of mixed BFS/CC/BC
  queries over resident graphs -- natively, with no SIMT simulation on the
  request path;
* :mod:`repro.dynamic` -- dynamic graph updates: a delta-overlay CGR that
  absorbs edge insertions/deletions incrementally (tombstones + side-stream
  insert logs + per-node compaction), so registered graphs mutate between
  queries without ever re-encoding;
* :mod:`repro.shard` -- sharded graph partitions (hash/range/greedy
  edge-cut partitioners) and a scatter-gather superstep executor that runs
  any frontier application across per-shard engines -- inline, thread- or
  process-backed -- with results independent of the partitioning and shard
  count (BFS/CC bit-identical to the unsharded engine, float apps
  canonical-order exact);
* :mod:`repro.store` -- the persistence tier: a versioned binary format for
  encoded graphs (loaded back by wrapping the packed words -- zero
  re-encoding), bit-exact delta-overlay serialization, and Iceberg-style
  epoch snapshots, fronted by ``TraversalService.save_graph`` /
  ``load_graph`` so a restarted service resumes with identical answers;
* :mod:`repro.views` -- incrementally maintained query views: named
  CC/PageRank/k-hop answers kept resident and repaired from the update
  stream (union-find repair, delta-push residuals, frontier re-sweeps)
  instead of recomputed, with epoch-tagged staleness bounds in
  approximate mode;
* :mod:`repro.obs` -- unified telemetry for the serving stack: per-request
  span-tree tracing with head-based sampling, a typed metrics registry
  (counters/gauges/histograms) the existing stats surfaces register into,
  Prometheus/JSON exporters and a ring-buffered slow-query log -- bundled
  as :class:`Telemetry` and threaded front door -> service -> shard
  executors -> caches -> views;
* :mod:`repro.bench` -- the harness regenerating every table and figure of
  the paper's evaluation (its GCGT bars run simulated sessions of the
  service's resident engines).

Quick start -- register a graph once, then serve any number of queries::

    from repro import BFSQuery, CCQuery, TraversalService, load_dataset

    service = TraversalService()
    entry = service.register_graph("uk", load_dataset("uk-2002", scale=2000))
    results = service.submit([BFSQuery("uk", source=0), CCQuery("uk")])
    print(entry.compression_rate, results[0].value.visited_count)
    print(results[0].metrics.cache_hit_rate, service.stats().encode_calls)

Evolving graphs -- apply updates between queries, no re-encode::

    from repro import EdgeUpdate

    service.apply_updates("uk", [EdgeUpdate.insert(0, 9), EdgeUpdate.delete(3, 4)])
    [fresh] = service.submit([BFSQuery("uk", source=0)])  # sees the new edge

Restarts -- snapshot to disk, load back without re-encoding::

    service.save_graph("uk", "snapshots/uk")
    restarted = TraversalService()
    restarted.load_graph("snapshots/uk")   # bit-identical serving state

For a single ad-hoc traversal the engine surface is still there::

    from repro import GCGTEngine, bfs

    engine = GCGTEngine.from_graph(load_dataset("twitter", scale=1500))
    print(bfs(engine, source=0).visited_count)
"""

from repro.compression import CGRConfig, CGRGraph
from repro.graph import CSRGraph, Graph, load_dataset
from repro.gpu import GPUDevice
from repro.traversal import GCGTConfig, GCGTEngine, TraversalSession
from repro.apps import bfs, betweenness_centrality, connected_components
from repro.baselines import (
    GPUCSREngine,
    GunrockLikeEngine,
    LigraEngine,
    LigraPlusEngine,
    NaiveCPUEngine,
)
from repro.service import (
    BCQuery,
    BFSQuery,
    CCQuery,
    GraphRegistry,
    PageRankQuery,
    QueryMetrics,
    QueryResult,
    TraversalService,
)
from repro.dynamic import (
    CompactionPolicy,
    DeltaOverlay,
    DeltaRecord,
    EdgeUpdate,
    UpdateStats,
)
from repro.obs import Telemetry
from repro.views import ViewManager, ViewResult, ViewStats
from repro.shard import (
    GraphPartition,
    GreedyEdgeCutPartitioner,
    HashPartitioner,
    RangePartitioner,
    ShardExecutor,
    ShardedCGRGraph,
)

__version__ = "1.3.0"

__all__ = [
    "CGRConfig",
    "CGRGraph",
    "Graph",
    "CSRGraph",
    "load_dataset",
    "GPUDevice",
    "GCGTConfig",
    "GCGTEngine",
    "TraversalSession",
    "bfs",
    "connected_components",
    "betweenness_centrality",
    "NaiveCPUEngine",
    "LigraEngine",
    "LigraPlusEngine",
    "GPUCSREngine",
    "GunrockLikeEngine",
    "BFSQuery",
    "CCQuery",
    "BCQuery",
    "PageRankQuery",
    "QueryMetrics",
    "QueryResult",
    "GraphRegistry",
    "TraversalService",
    "CompactionPolicy",
    "DeltaOverlay",
    "DeltaRecord",
    "EdgeUpdate",
    "UpdateStats",
    "Telemetry",
    "ViewManager",
    "ViewResult",
    "ViewStats",
    "GraphPartition",
    "HashPartitioner",
    "RangePartitioner",
    "GreedyEdgeCutPartitioner",
    "ShardedCGRGraph",
    "ShardExecutor",
    "__version__",
]
