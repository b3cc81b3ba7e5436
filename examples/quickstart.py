"""Quickstart: register a graph with the traversal service, query it, compare.

This is the 60-second tour of the library:

1. generate (or load) a graph;
2. register it with the :class:`TraversalService` -- it is CGR-encoded
   (zeta3 codes, intervals, residual segmentation) and loaded into simulated
   device memory exactly once;
3. submit a batch of BFS queries against the resident compressed graph and
   watch the decoded-adjacency cache warm up (serving is native: decoded
   neighbour lists, no SIMT simulation);
4. run the same BFS on the entry's simulated GCGT engine and on the
   uncompressed GPU-CSR baseline and compare the simulated cost and
   device-memory footprint, as the paper's figures do.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import BFSQuery, GPUCSREngine, TraversalService, bfs, load_dataset
from repro.graph.csr import CSRGraph


def main() -> None:
    # 1. A scaled-down model of the paper's uk-2002 web crawl.
    graph = load_dataset("uk-2002", scale=2000)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"average out-degree {graph.average_degree:.1f}")

    # 2. Encode once and keep resident in (simulated) device memory.
    service = TraversalService()
    entry = service.register_graph("uk", graph)
    print(f"CGR: {entry.cgr.bits_per_edge:.2f} bits/edge, "
          f"compression rate {entry.compression_rate:.1f}x, "
          f"{entry.cgr.size_in_bytes() / 1024:.1f} KiB on device")

    # 3. BFS queries over the resident graph.  The first query decodes the
    # nodes it touches; the repeat hits the decoded-adjacency cache.
    [first] = service.submit([BFSQuery("uk", 0)])
    [repeat] = service.submit([BFSQuery("uk", 0)])
    print(f"GCGT BFS: reached {first.value.visited_count} nodes in "
          f"{first.value.iterations} iterations")
    print(f"serving: {service.stats().encode_calls} encode call(s) for "
          f"2 queries, repeat-query cache hit rate "
          f"{repeat.metrics.cache_hit_rate:.0%}")

    # 4. Simulated cost: the entry's GCGT engine vs the uncompressed
    # GPU-CSR baseline.
    session = entry.engine.new_session()
    bfs(session, source=0)
    print(f"GCGT simulated BFS cost {session.cost():.0f}")
    csr_engine = GPUCSREngine.from_graph(graph)
    csr_result = bfs(csr_engine, source=0)
    csr_bytes = CSRGraph.from_graph(graph).size_in_bytes()
    assert csr_result.visited_count == first.value.visited_count
    print(f"GPU-CSR BFS: same result, simulated cost {csr_engine.cost():.0f}, "
          f"{csr_bytes / 1024:.1f} KiB on device")

    ratio = session.cost() / csr_engine.cost()
    saving = csr_bytes / entry.cgr.size_in_bytes()
    print(f"\nGCGT uses {saving:.1f}x less device memory at "
          f"{ratio:.2f}x the traversal cost of the uncompressed baseline.")


if __name__ == "__main__":
    main()
