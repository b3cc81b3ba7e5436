"""Host-speed calibration: a fixed reference task timed during the run.

A shared host's CPU speed drifts by a third over minutes (neighbouring
tenants share the cores), which swamps run-to-run comparisons of wall
time.  The client thread therefore runs a fixed pure-Python task --
list-of-lists BFS plus dict updates, the same kind of work the program
does -- between its requests, timing it in *thread* CPU time so that
waiting for the interpreter lock or a core (program work on other threads
and processes) does not count.  The median over a run gives the host's
speed during that run, and time metrics are reported at the reference
speed: ``wall * REFERENCE_NS / median``.  The raw wall values are printed
next to them.  Every workload samples between its client's operations
(requests, bursts, steps), never while a request is in flight: an open
loop timed while requests ran, in the gaps between them, or before and
after its loop, and the task misread the program's speed by up to a half.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

#: Thread CPU nanoseconds of one reference task at the reference speed
#: (about the median on a shared 2-vCPU host in a quiet period).
REFERENCE_NS = 4_000_000

_NODES = 3000
_DEGREE = 8


class Calibrator:
    """Collects reference-task timings; :meth:`factor` scales wall time."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._adjacency = [
            [rng.randrange(_NODES) for _ in range(_DEGREE)]
            for _ in range(_NODES)
        ]
        self.samples: list[int] = []
        #: Wall seconds spent calibrating, to take out of loop windows.
        self.wall_seconds = 0.0

    def _task(self) -> int:
        adjacency = self._adjacency
        seen = [False] * _NODES
        seen[0] = True
        queue = deque([0])
        visited = 0
        while queue:
            node = queue.popleft()
            visited += 1
            for neighbor in adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    queue.append(neighbor)
        counts: dict[int, int] = {}
        for index in range(8000):
            key = index % 977
            counts[key] = counts.get(key, 0) + index
        return visited + len(counts)

    def sample(self) -> None:
        """Time one reference task."""
        wall = time.perf_counter()
        began = time.thread_time_ns()
        self._task()
        self.samples.append(time.thread_time_ns() - began)
        self.wall_seconds += time.perf_counter() - wall

    def factor(self) -> float:
        """Multiply a wall time by this to express it at reference speed."""
        return REFERENCE_NS / statistics.median(self.samples)
