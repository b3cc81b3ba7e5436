"""Telemetry overhead benchmark: what tracing costs the serving path.

The measurement core shared by the overhead gate
(``benchmarks/test_obs_overhead.py``) and the recording script
(``scripts/record_bench.py --only obs``): run the *same* closed-loop
request mix through four identically built front doors whose only
difference is the telemetry configuration, and report each mode's
wall-clock relative to the baseline:

* ``baseline`` -- no telemetry bundle passed at all (the default inert
  :class:`~repro.obs.Telemetry` a bare service constructs);
* ``disabled`` -- an explicit ``Telemetry.disabled()`` bundle wired
  through the whole stack, measuring the cost of the instrumentation
  *points* (one enabled-flag check per would-be span);
* ``sampled`` -- tracing on at the production-style
  :data:`OBS_BENCH_SAMPLE_RATE` head-sampling rate;
* ``traced`` -- every request fully traced (the worst case).

The gate asserts ``disabled`` stays within a few percent of ``baseline``
and ``sampled`` within a slightly larger budget, which is the contract
that makes it safe to leave the instrumentation compiled into the serving
path.  Modes are **interleaved request by request** within each round
(every query is served by all four doors back to back, the leading mode
rotating from one query to the next) and each mode's overhead is the best
*same-round* ratio against the baseline: a warm query takes a few
milliseconds, so host-speed drift over a whole mode-long pass would swamp
a five percent budget, while request-level interleaving lands it on every
mode alike; taking the minimum across rounds means a background blip hits
one round's ratio instead of biasing the verdict.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.graph.generators import web_locality_graph
from repro.obs.telemetry import Telemetry
from repro.server.frontdoor import FrontDoor
from repro.service.queries import BFSQuery, CCQuery
from repro.service.service import TraversalService

#: Node count of the benchmark graph.
OBS_BENCH_SCALE = 600

#: Requests measured per round.
OBS_BENCH_REQUESTS = 160

#: Interleaved measurement rounds; each mode keeps its fastest.
OBS_BENCH_ROUNDS = 3

#: Head-sampling rate of the ``sampled`` mode.
OBS_BENCH_SAMPLE_RATE = 0.1

#: The measured telemetry configurations, in reporting order.
OBS_BENCH_MODES: tuple[str, ...] = (
    "baseline", "disabled", "sampled", "traced",
)


@dataclass(frozen=True)
class ObsOverheadResult:
    """One telemetry mode's measured serving cost.

    Attributes:
        mode: one of :data:`OBS_BENCH_MODES`.
        seconds: fastest-round wall-clock for the full request mix.
        per_request_ms: ``seconds`` per request, in milliseconds.
        overhead: the best same-round ratio against the baseline mode
            (1.0 for the baseline itself; 1.05 means five percent
            slower than the baseline measured in the same round).
        traces_recorded: finished traces ever stored by the mode's
            tracer, ring evictions included (0 for the baseline and
            disabled modes -- the proof the fast path really recorded
            nothing).
    """

    mode: str
    seconds: float
    per_request_ms: float
    overhead: float
    traces_recorded: int

    def as_row(self) -> dict:
        """A JSON-ready row of the gate's headline numbers."""
        row = asdict(self)
        row["seconds"] = round(row["seconds"], 5)
        row["per_request_ms"] = round(row["per_request_ms"], 4)
        row["overhead"] = round(row["overhead"], 4)
        return row


def _telemetry_for(mode: str) -> Telemetry | None:
    """The telemetry bundle a mode wires through its stack."""
    if mode == "baseline":
        return None
    if mode == "disabled":
        return Telemetry.disabled()
    if mode == "sampled":
        return Telemetry(sample_rate=OBS_BENCH_SAMPLE_RATE)
    if mode == "traced":
        return Telemetry(sample_rate=1.0)
    raise ValueError(f"unknown obs bench mode: {mode!r}")


def _build_door(graph, mode: str) -> tuple[TraversalService, FrontDoor]:
    """One mode's identically configured service + front door."""
    telemetry = _telemetry_for(mode)
    if telemetry is None:
        service = TraversalService()
    else:
        service = TraversalService(telemetry=telemetry)
    service.register_graph("g", graph)
    door = FrontDoor(service, queue_capacity=64)
    door.register_tenant("bench")
    return service, door


def _request_mix(scale: int, count: int, seed: int) -> list:
    """A deterministic query stream: mostly BFS points, periodic CC."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, scale, size=count)
    return [
        CCQuery("g") if index % 8 == 7
        else BFSQuery("g", source=int(sources[index]))
        for index in range(count)
    ]


def _run_round(doors: dict[str, FrontDoor], queries) -> dict[str, float]:
    """Closed-loop wall-clock seconds each door spends serving the mix.

    Every query is served by all doors back to back, in
    :data:`OBS_BENCH_MODES` order rotated by one per query, so no mode
    always runs first and host-speed drift lands on every mode alike.
    """
    modes = list(doors)
    seconds = dict.fromkeys(modes, 0.0)
    for index, query in enumerate(queries):
        shift = index % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            began = time.perf_counter()
            response = doors[mode].call("bench", query, timeout=120)
            seconds[mode] += time.perf_counter() - began
            assert response.ok, f"bench query failed: {response}"
    return seconds


def run_obs_benchmark(
    scale: int = OBS_BENCH_SCALE,
    requests: int = OBS_BENCH_REQUESTS,
    rounds: int = OBS_BENCH_ROUNDS,
) -> list[ObsOverheadResult]:
    """Measure every telemetry mode on warm doors, baseline first."""
    graph = web_locality_graph(scale, avg_degree=8.0, seed=11)
    queries = _request_mix(scale, requests, seed=23)
    stacks = {mode: _build_door(graph, mode) for mode in OBS_BENCH_MODES}
    try:
        doors = {mode: door for mode, (_, door) in stacks.items()}
        # One untimed warm-up pass per mode: encode, fill plan caches.
        _run_round(doors, queries)
        best: dict[str, float] = {}
        best_ratio: dict[str, float] = {}
        for _ in range(rounds):
            timed = _run_round(doors, queries)
            for mode, seconds in timed.items():
                best[mode] = min(seconds, best.get(mode, float("inf")))
                ratio = seconds / timed["baseline"]
                best_ratio[mode] = min(
                    ratio, best_ratio.get(mode, float("inf"))
                )
        return [
            ObsOverheadResult(
                mode=mode,
                seconds=best[mode],
                per_request_ms=best[mode] / requests * 1e3,
                overhead=best_ratio[mode],
                traces_recorded=stacks[mode][0].telemetry.tracer.completed,
            )
            for mode in OBS_BENCH_MODES
        ]
    finally:
        for service, door in stacks.values():
            door.close()
            service.close()


__all__ = [
    "OBS_BENCH_MODES",
    "OBS_BENCH_REQUESTS",
    "OBS_BENCH_ROUNDS",
    "OBS_BENCH_SAMPLE_RATE",
    "OBS_BENCH_SCALE",
    "ObsOverheadResult",
    "run_obs_benchmark",
]
