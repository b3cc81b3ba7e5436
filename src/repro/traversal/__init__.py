"""GCGT: GPU-based compressed graph traversal (the paper's core contribution).

The package implements the four scheduling strategies of Sections 4 and 5 on
top of the SIMT simulator, plus the engine that combines them:

* :mod:`bfs_basic` -- Algorithm 1, the intuitive one-lane-per-frontier decoder;
* :mod:`two_phase` -- Algorithm 2, Two-Phase Traversal (intervals then
  residuals, with collaborative interval expansion);
* :mod:`task_stealing` -- Algorithm 3, Task Stealing for the residual phase;
* :mod:`warp_decode` -- Algorithm 4, warp-centric speculative VLC decoding
  with O(log K) validity marking;
* :mod:`segmented` -- Residual Segmentation traversal (Section 5.2);
* :mod:`gcgt` -- :class:`GCGTEngine`, which runs the
  expansion--filtering--contraction pipeline over a CGR graph with any
  combination of the optimizations enabled (the knobs Figure 9 sweeps);
* :mod:`msbfs` -- bit-parallel multi-source BFS: up to 64 concurrent
  searches packed into one ``uint64`` lane mask per node, advanced by a
  single shared frontier sweep through the same pipeline;
* :mod:`native` -- :class:`NativeSession`, the serving engine: the same
  frontier pipeline over cached decoded neighbour arrays, with no SIMT
  simulation (the simulator stays the instrument behind the figures).
"""

from repro.traversal.frontier import FrontierQueue
from repro.traversal.cursor import CGRCursor
from repro.traversal.context import ExpandContext
from repro.traversal.bfs_basic import IntuitiveStrategy
from repro.traversal.two_phase import TwoPhaseStrategy
from repro.traversal.task_stealing import TaskStealingStrategy
from repro.traversal.warp_decode import parallel_vlc_decode, WarpCentricStrategy
from repro.traversal.segmented import ResidualSegmentationStrategy
from repro.traversal.gcgt import (
    GCGTConfig,
    GCGTEngine,
    STRATEGY_LADDER,
    TraversalSession,
)
from repro.traversal.msbfs import LANE_WIDTH, MSBFSResult, msbfs
from repro.traversal.native import NativeSession

__all__ = [
    "FrontierQueue",
    "CGRCursor",
    "ExpandContext",
    "IntuitiveStrategy",
    "TwoPhaseStrategy",
    "TaskStealingStrategy",
    "parallel_vlc_decode",
    "WarpCentricStrategy",
    "ResidualSegmentationStrategy",
    "GCGTConfig",
    "GCGTEngine",
    "TraversalSession",
    "STRATEGY_LADDER",
    "LANE_WIDTH",
    "MSBFSResult",
    "msbfs",
    "NativeSession",
]
