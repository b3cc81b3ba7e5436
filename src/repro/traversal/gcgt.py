"""The GCGT engine: compressed-graph traversal with configurable optimizations.

:class:`GCGTEngine` owns a CGR-encoded graph resident in (simulated) device
memory and runs the expansion half of the expansion--filtering--contraction
pipeline over it, one frontier iteration at a time.  The filtering step is a
callback supplied by the application (BFS, CC, BC -- see :mod:`repro.apps`),
which keeps the engine application-agnostic exactly as Section 6 describes.

:class:`GCGTConfig` exposes the four optimization knobs of the paper as
booleans; :data:`STRATEGY_LADDER` lists the five cumulative configurations
Figure 9 sweeps (Intuitive -> +TwoPhase -> +TaskStealing -> +Warp-centric ->
+ResidualSegmentation = full GCGT).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Protocol, Sequence

from repro.compression.cgr import CGRConfig, CGRGraph
from repro.gpu.device import GPUDevice
from repro.gpu.metrics import KernelMetrics
from repro.graph.graph import Graph
from repro.traversal.bfs_basic import IntuitiveStrategy
from repro.traversal.context import ExpandContext, FilterFn, NodePlan, build_node_plan
from repro.traversal.frontier import FrontierQueue
from repro.traversal.segmented import ResidualSegmentationStrategy
from repro.traversal.strategy import ExpansionStrategy
from repro.traversal.task_stealing import TaskStealingStrategy
from repro.traversal.two_phase import TwoPhaseStrategy
from repro.traversal.warp_decode import WarpCentricStrategy


@dataclass(frozen=True)
class GCGTConfig:
    """Which scheduling optimizations are enabled, plus the encoding config.

    The defaults correspond to the full GCGT configuration the paper uses in
    its main comparison (Figure 8) with the Table 2 encoding parameters.
    """

    two_phase: bool = True
    task_stealing: bool = True
    warp_centric: bool = True
    residual_segmentation: bool = True
    #: Residual runs at least this long are decoded warp-centrically; ``None``
    #: resolves to twice the warp size at run time.
    long_residual_threshold: int | None = None
    cgr: CGRConfig = field(default_factory=CGRConfig.paper_defaults)

    def effective_cgr_config(self) -> CGRConfig:
        """The encoding config actually used, honouring the segmentation knob."""
        if self.residual_segmentation:
            return self.cgr
        return replace(self.cgr, residual_segment_bits=None)

    def build_strategy(self) -> ExpansionStrategy:
        """Instantiate the most advanced strategy the enabled knobs allow."""
        if self.residual_segmentation:
            return ResidualSegmentationStrategy(self.long_residual_threshold)
        if self.warp_centric:
            return WarpCentricStrategy(self.long_residual_threshold)
        if self.task_stealing:
            return TaskStealingStrategy()
        if self.two_phase:
            return TwoPhaseStrategy()
        return IntuitiveStrategy()

    @property
    def strategy_name(self) -> str:
        """Display name of the strategy the enabled knobs produce."""
        return self.build_strategy().name


#: The cumulative optimization ladder of Figure 9: display name -> config.
STRATEGY_LADDER: dict[str, GCGTConfig] = {
    "Intuitive": GCGTConfig(
        two_phase=False, task_stealing=False, warp_centric=False,
        residual_segmentation=False,
    ),
    "TwoPhaseTraversal": GCGTConfig(
        two_phase=True, task_stealing=False, warp_centric=False,
        residual_segmentation=False,
    ),
    "TaskStealing": GCGTConfig(
        two_phase=True, task_stealing=True, warp_centric=False,
        residual_segmentation=False,
    ),
    "Warp-centric": GCGTConfig(
        two_phase=True, task_stealing=True, warp_centric=True,
        residual_segmentation=False,
    ),
    "ResidualSegmentation": GCGTConfig(
        two_phase=True, task_stealing=True, warp_centric=True,
        residual_segmentation=True,
    ),
}


class PlanCache(Protocol):
    """What an engine needs from a decoded-plan cache (see
    :class:`repro.service.cache.DecodedAdjacencyCache` for the LRU implementation)."""

    def lookup(
        self, node: int, build: Callable[[], NodePlan], epoch: int = 0
    ) -> NodePlan:
        """Return the cached plan for ``node``, building it on a miss.

        ``epoch`` is the node's current mutation epoch (always 0 for static
        graphs); a cached plan from a different epoch is stale and must be
        rebuilt, never served.
        """
        ...  # pragma: no cover - protocol


class TraversalSession:
    """Per-query traversal state drawn from a resident :class:`GCGTEngine`.

    The engine owns everything shareable and expensive -- the encoded CGR
    graph, the device, the scheduling strategy and the decoded-plan cache.  A
    session owns only what is private to one query: its accumulated
    :class:`KernelMetrics`.  Many sessions can run over one engine, which is
    what lets the figure harness and the sharded executor pay the encode
    cost once per graph instead of once per query.
    """

    def __init__(self, engine: "GCGTEngine") -> None:
        self.engine = engine
        self.metrics = KernelMetrics()

    # -- graph facts (delegated so apps can run on a session directly) --------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the shared resident graph."""
        return self.engine.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges in the shared resident graph."""
        return self.engine.graph.num_edges

    @property
    def compression_rate(self) -> float:
        """Compression rate of the shared resident graph."""
        return self.engine.graph.compression_rate

    # -- traversal -------------------------------------------------------------

    def reset_metrics(self) -> None:
        """Clear accumulated counters before a fresh measurement run."""
        self.metrics = KernelMetrics()

    def expand(self, frontier: Sequence[int], filter_fn: FilterFn) -> list[int]:
        """Run one expansion--filtering--contraction iteration.

        ``frontier`` holds the current iteration's nodes; ``filter_fn`` is the
        application's filtering callback.  Returns the next frontier (the
        contraction output) and accumulates cost counters in :attr:`metrics`.
        """
        engine = self.engine
        iteration_metrics = engine.device.new_metrics()
        warp = engine.device.new_warp(iteration_metrics)
        out_queue = FrontierQueue()
        # Dynamic graphs (repro.dynamic.DeltaOverlay) interpose tombstone
        # suppression between decode and the application filter; static CGR
        # graphs have no wrap_filter hook and pass the filter through as-is.
        if engine._filter_wrapper is not None:
            filter_fn = engine._filter_wrapper(filter_fn)
        ctx = ExpandContext(
            engine.graph, warp, filter_fn, out_queue,
            plan_source=engine.node_plan,
        )
        for begin in range(0, len(frontier), engine.device.warp_size):
            chunk = list(frontier[begin:begin + engine.device.warp_size])
            engine.strategy.expand_chunk(ctx, chunk)
        iteration_metrics.launches += 1
        self.metrics.merge(iteration_metrics)
        return out_queue.pending

    def cost(self) -> float:
        """Scalar elapsed-time proxy of all work since the last reset."""
        return self.engine.device.cost(self.metrics)


class GCGTEngine:
    """Traversal engine over a CGR graph resident on a simulated GPU device.

    The engine models one-time graph residency: encode once, load into device
    memory once, then serve any number of traversals.  Per-query state lives
    in :class:`TraversalSession` objects handed out by :meth:`new_session`;
    for the common single-query use the engine keeps a default session and
    exposes its ``expand``/``metrics``/``cost`` surface directly, so
    ``bfs(engine, source)`` works exactly as before.
    """

    def __init__(
        self,
        cgr_graph: CGRGraph,
        device: GPUDevice | None = None,
        config: GCGTConfig | None = None,
        plan_cache: "PlanCache | None" = None,
    ) -> None:
        self.config = config or GCGTConfig()
        self.device = device or GPUDevice()
        self.graph = cgr_graph
        self.strategy = self.config.build_strategy()
        self.device.check_fits(self.graph.size_in_bytes(), what="CGR graph")
        #: Optional LRU cache of decoded :class:`NodePlan` objects shared by
        #: every session on this engine (duck-typed: ``lookup(node, build)``).
        self.plan_cache = plan_cache
        # Dynamic-graph hooks (repro.dynamic.DeltaOverlay) are fixed for the
        # engine's lifetime; resolve them once rather than per node visit --
        # node_plan is the hot path of every traversal.  Plain CGRGraphs
        # have none, leaving the static fast paths.
        self._merged_plan_builder = getattr(cgr_graph, "build_node_plan", None)
        self._node_epoch_of = getattr(cgr_graph, "node_epoch", None)
        self._filter_wrapper = getattr(cgr_graph, "wrap_filter", None)
        self._default_session = TraversalSession(self)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        config: GCGTConfig | None = None,
        device: GPUDevice | None = None,
        plan_cache: "PlanCache | None" = None,
    ) -> "GCGTEngine":
        """Compress ``graph`` on the host and load the CGR into device memory."""
        config = config or GCGTConfig()
        cgr = CGRGraph.from_adjacency(graph.adjacency(), config.effective_cgr_config())
        return cls(cgr, device=device, config=config, plan_cache=plan_cache)

    # -- basic graph facts ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the resident graph."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges in the resident graph."""
        return self.graph.num_edges

    @property
    def compression_rate(self) -> float:
        """Compression rate of the resident graph (32 / bits-per-edge)."""
        return self.graph.compression_rate

    # -- sessions -------------------------------------------------------------------

    def new_session(self) -> TraversalSession:
        """A fresh per-query traversal session over the resident graph."""
        return TraversalSession(self)

    def node_plan(self, node: int) -> NodePlan:
        """Decode plan of ``node``, served from the plan cache if present.

        Graphs that maintain per-node deltas (:class:`repro.dynamic.
        DeltaOverlay`) supply their own merged-plan builder and a per-node
        mutation epoch; plain :class:`~repro.compression.cgr.CGRGraph`
        objects fall back to the static structural decode at epoch 0.
        """
        merged_builder = self._merged_plan_builder
        if merged_builder is not None:
            build: Callable[[], NodePlan] = lambda: merged_builder(node)
        else:
            build = lambda: build_node_plan(self.graph, node)
        if self.plan_cache is not None:
            epoch_of = self._node_epoch_of
            epoch = epoch_of(node) if epoch_of is not None else 0
            return self.plan_cache.lookup(node, build, epoch)
        return build()

    # -- traversal (default-session surface, kept for single-query callers) --------

    @property
    def metrics(self) -> KernelMetrics:
        """Counters of the default session (single-query compatibility surface)."""
        return self._default_session.metrics

    def reset_metrics(self) -> None:
        """Clear the default session's counters before a fresh measurement run."""
        self._default_session.reset_metrics()

    def expand(self, frontier: Sequence[int], filter_fn: FilterFn) -> list[int]:
        """One expansion iteration on the default session (see
        :meth:`TraversalSession.expand`)."""
        return self._default_session.expand(frontier, filter_fn)

    def cost(self) -> float:
        """Scalar elapsed-time proxy of the default session's work."""
        return self._default_session.cost()
