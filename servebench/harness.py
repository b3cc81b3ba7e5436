"""Run one workload: set up, measure, verify, and turn the run into metrics."""

from __future__ import annotations

import gc
import multiprocessing
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from servebench.calibrate import Calibrator
from servebench.metrics import END_TO_END, PER_LAYER, WORKLOAD_ONLY
from servebench.stats import InsufficientSamples, percentile
from servebench.tracing import LAYERS, LayerTracer, NullTracer
from servebench.workloads import Phase, Stack

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Reference tasks timed after each set-up.
SETUP_CALIBRATION = 5

#: Root kinds a client issues; every other root is background work.
FOREGROUND = (
    "read", "update", "view_read", "catchup", "follower_read", "maintenance",
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + WORKLOAD_ONLY
         + PER_LAYER}
UNITS["host_speed"] = UNITS["setup_host_speed"] = "ratio"


@dataclass
class Reading:
    value: float
    samples: int


@dataclass
class Result:
    """One run: answer checks and named metrics (``Reading`` by name)."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, Reading] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)

    def line(self, names) -> dict:
        """The benchmark's result object over ``names``."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name].value, "unit": UNITS[name]}
                for name in names
            },
        }


def _high_water_kb(pid: str) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark at its current RSS.

    Returns False where the kernel does not allow it; the peak then also
    covers everything the process did before.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live child processes, in MB.

    The process's own peak counts from the last :func:`reset_peak_rss`.
    """
    kilobytes = _high_water_kb("self")
    for child in multiprocessing.active_children():
        try:
            kilobytes += _high_water_kb(str(child.pid))
        except OSError:
            # The child exited since it was listed.
            continue
    return kilobytes / 1024.0


def _percentile_ms(values, q: float) -> Reading:
    result = percentile(values, q)
    return Reading(result.value * 1000.0, result.samples)


def _counters(stack: Stack) -> dict:
    service = stack.service.stats()
    server = stack.frontdoor.stats()
    maintenance = stack.service.maintenance
    return {
        "hits": service.cache_hits,
        "misses": service.cache_misses,
        "invalidations": service.cache_invalidations,
        "decode_ns": service.cache_miss_decode_ns,
        "compactions": service.compactions,
        "full_recomputes": service.view_full_recomputes,
        "admitted": server.admitted,
        "coalesced": server.coalesced_requests,
        "ticks": maintenance.ticks if maintenance else 0,
        "folds": maintenance.total_compactions if maintenance else 0,
    }


def _failed(phase: Phase) -> int:
    return sum(1 for op in phase.ops if not op.ok or op.wrong)


def _latencies(ops) -> list[float]:
    # A failed request misses every latency limit.
    return [op.seconds if op.ok else float("inf") for op in ops]


def end_to_end(
    workload, phase: Phase, setup_times, setup_factor: float, rss_mb, bits,
    run_factor: float,
) -> Result:
    """The untraced run's end-to-end metrics.

    Times are reported at the calibrated reference speed (see
    :mod:`servebench.calibrate`); each also appears, as measured, under
    ``<name>@wall`` in the printed table.
    """
    reads = phase.of(*workload.read_kinds)
    ok_reads = sum(1 for op in reads if op.ok and not op.wrong)
    failed = _failed(phase)
    attempted = len(phase.ops)
    result = Result(
        correct=not any(op.wrong for op in phase.ops),
        attempted=attempted, failed=failed,
    )
    metrics = result.metrics

    def timed(name: str, reading: Reading, factor: float) -> None:
        metrics[name] = Reading(reading.value * factor, reading.samples)
        metrics[f"{name}@wall"] = reading

    timed("setup_s", Reading(statistics.median(setup_times),
                             len(setup_times)), setup_factor)
    timed("read_qps", Reading(ok_reads / phase.wall_seconds, len(reads)),
          1.0 / run_factor)
    timed("read_p50_ms", _percentile_ms(_latencies(reads), 50), run_factor)
    timed("read_p95_ms", _percentile_ms(_latencies(reads), 95), run_factor)
    timed("bfs_p50_ms", _percentile_ms(_latencies(phase.of("bfs")), 50),
          run_factor)
    metrics["bits_per_edge"] = Reading(bits, 1)
    metrics["peak_rss_mb"] = Reading(rss_mb, 1)
    metrics["ok_rate"] = Reading(1.0 - failed / attempted, attempted)
    metrics["error_rate"] = Reading(failed / attempted, attempted)
    for name, kinds, q in (
        ("ppr_p50_ms", ("ppr",), 50),
        ("cc_p50_ms", ("cc",), 50),
        ("update_p50_ms", ("update",), 50),
        ("update_p95_ms", ("update",), 95),
        ("catchup_p50_ms", ("catchup",), 50),
    ):
        ops = phase.of(*kinds)
        if not ops:
            continue
        try:
            timed(name, _percentile_ms(_latencies(ops), q), run_factor)
        except InsufficientSamples as refusal:
            result.notes[name] = f"refused: {refusal}"
    metrics["host_speed"] = Reading(run_factor, 0)
    metrics["setup_host_speed"] = Reading(setup_factor, 0)
    return result


def per_layer(
    workload, untraced: Phase, traced: Phase, tracer: LayerTracer,
    phase_start: int, before: dict, after: dict, live_bits: float,
    speed_ratio: float,
) -> Result:
    """The traced run's per-layer metrics (see :mod:`servebench.metrics`)."""
    roots = [root for root in tracer.roots if root.start >= phase_start]
    foreground = tracer.summarize(
        [root for root in roots if root.kind in FOREGROUND])
    # Each entry point is read off the roots of the client operation that
    # issues it, so the follower's replays and reads (roots ``catchup`` and
    # ``follower_read``) never mix with the primary's writes and reads.
    by_kind = {
        kind: tracer.summarize([root for root in roots if root.kind == kind])
        for kind in FOREGROUND
    }
    primary_reads = by_kind["read"]
    updates = by_kind["update"]
    setup = tracer.summarize(
        [root for root in tracer.roots if root.kind == "setup"])

    reads = traced.of(*workload.read_kinds)
    answered = [op.response.value for op in reads
                if op.ok and op.response is not None]
    count = max(1, len(reads))
    delta = {key: after[key] - before[key] for key in before}
    lookups = delta["hits"] + delta["misses"]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def per_read(name: str) -> float:
        return primary_reads.total_ms(name, self_only=True) / count

    def zero_or_percentile(values, q: float) -> Reading:
        return _percentile_ms(values, q) if values else Reading(0.0, 0)

    traced_mean = mean(op.seconds for op in reads)
    untraced_mean = mean(
        op.seconds for op in untraced.of(*workload.read_kinds))
    queue_waits = [op.response.queue_seconds for op in reads
                   if op.ok and op.response is not None]
    requests = max(1, foreground.roots)

    values = {
        "server.admit_ms": primary_reads.per_call_ms("server.admit"),
        "service.submit_self_ms": per_read("service.submit"),
        "server.coalesced_share": (
            delta["coalesced"] / delta["admitted"] if delta["admitted"] else 0.0
        ),
        "service.cache_hit_rate": (
            delta["hits"] / lookups if lookups else 1.0
        ),
        "service.cache_invalidations": delta["invalidations"] / count,
        "compression.plan_decode_ms": delta["decode_ns"] / 1e6 / count,
        "compression.plan_decodes": delta["misses"] / count,
        "apps.self_ms": sum(
            per_read(name) for name in ("apps.bfs", "apps.cc", "apps.ppr")
        ),
        "apps.iterations": mean(r.metrics.iterations for r in answered),
        "traversal.expand_self_ms": per_read("traversal.expand"),
        "traversal.expand_calls": (
            primary_reads.count("traversal.expand") / count
        ),
        "traversal.msbfs_lanes": mean(
            r.metrics.batch_lanes for r in answered if r.kind == "bfs"
        ),
        "gpu.memory_self_ms": per_read("gpu.memory"),
        "gpu.modelled_cost": mean(r.metrics.cost for r in answered),
        "shard.register_s": setup.per_call_ms("shard.register") / 1000.0,
        "shard.executor_ms": primary_reads.per_call_ms("shard.executor"),
        "shard.exchange_volume": mean(
            r.metrics.exchange_volume for r in answered),
        "shard.fanout": mean(r.metrics.shard_fanout for r in answered),
        "dynamic.apply_self_ms": updates.per_call_ms(
            "dynamic.apply", self_only=True),
        "dynamic.compactions": delta["compactions"] / count,
        "dynamic.live_bits": live_bits,
        "views.repair_ms": updates.per_call_ms("views.repair"),
        "views.full_recomputes": delta["full_recomputes"] / count,
        "views.read_ms": by_kind["view_read"].per_call_ms("views.read"),
        "lifecycle.cdc_append_ms": updates.per_call_ms(
            "lifecycle.cdc_append"),
        "lifecycle.maintenance_ms": by_kind["maintenance"].per_call_ms(
            "lifecycle.maintenance"),
        "lifecycle.tick_folds": (
            delta["folds"] / delta["ticks"] if delta["ticks"] else 0.0
        ),
        "lifecycle.follower_read_ms": by_kind["follower_read"].per_call_ms(
            "lifecycle.follower_read"),
        "store.load_s": setup.per_call_ms("store.load") / 1000.0,
        "trace.overhead_ratio": (
            traced_mean * speed_ratio / untraced_mean if untraced_mean
            else 0.0
        ),
        "trace.remainder_ms": foreground.remainder_ns / 1e6 / requests,
        "trace.request_ms": foreground.request_ns / 1e6 / requests,
    }
    for layer in LAYERS:
        values[f"self_ms.{layer}"] = foreground.layers[layer] / 1e6 / requests

    phases = (untraced, traced)
    result = Result(
        correct=not any(op.wrong for phase in phases for op in phase.ops),
        attempted=sum(len(phase.ops) for phase in phases),
        failed=sum(_failed(phase) for phase in phases),
    )
    metrics = result.metrics
    for name, value in values.items():
        metrics[name] = Reading(float(value), foreground.roots)
    metrics["server.queue_wait_p50_ms"] = zero_or_percentile(queue_waits, 50)
    metrics["server.queue_wait_p95_ms"] = zero_or_percentile(queue_waits, 95)
    lags = [op.lag for op in reads if op.lag]
    metrics["loadgen.lag_p95_ms"] = zero_or_percentile(lags, 95)
    return result


def _loop(workload, stack: Stack, inputs: dict, tracer, calibrator) -> Phase:
    """The measured loop, with the set-up's objects out of the collector.

    A full collection walks every tracked object; after set-up that takes
    40-140 ms, and such a pause lands on a random request.  Frozen, the
    set-up's objects are skipped, so pauses cost what the loop itself
    allocates, as in a server that freezes its heap after warm-up.
    """
    gc.collect()
    gc.freeze()
    try:
        return workload.run(stack, inputs, tracer, calibrator)
    finally:
        gc.unfreeze()


def _live(stack: Stack) -> tuple[float, float]:
    """(bits per edge, live bits) of the served graph now."""
    entry = stack.service.registry.resolve("g")
    bits = stack.service.stats().bits_per_edge["g"]
    return bits, bits * entry.num_edges


def measure(workload, seed: int, seconds: float) -> Result:
    """The untraced run: repeated set-up, one measured loop, checks."""
    inputs = workload.generate(seed, seconds)
    null = NullTracer()
    setup_times = []
    # Host speed while setting up, from reference tasks between set-ups.
    setup_calibrator = Calibrator()
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        # Each set-up starts from a collected heap, so a full collection
        # of an earlier stack's garbage does not land in its time.
        gc.collect()
        began = time.perf_counter()
        stack = workload.setup(inputs, null)
        setup_times.append(time.perf_counter() - began)
        for _ in range(SETUP_CALIBRATION):
            setup_calibrator.sample()
    calibrator = Calibrator()
    try:
        # The peak is the serving stack's: the loop on a built stack.
        peak_from_loop = reset_peak_rss()
        phase = _loop(workload, stack, inputs, null, calibrator)
        rss_mb = peak_rss_mb()
        bits, _ = _live(stack)
    finally:
        stack.close()
    workload.verify(inputs, phase)
    result = end_to_end(
        workload, phase, setup_times, setup_calibrator.factor(), rss_mb,
        bits, calibrator.factor(),
    )
    if not peak_from_loop:
        result.notes["peak_rss_mb"] = "includes set-up (no clear_refs)"
    return result


def measure_traced(
    workload, seed: int, seconds: float, spans_path: Path
) -> Result:
    """The traced run: the same inputs untraced, then traced.

    Both halves issue every input on a fresh stack; the ratio of their
    mean read latencies, at one host speed, is the tracing overhead.
    """
    inputs = workload.generate(seed, seconds)
    null = NullTracer()
    stack = workload.setup(inputs, null)
    untraced_calibrator = Calibrator()
    try:
        untraced = _loop(workload, stack, inputs, null,
                         untraced_calibrator)
    finally:
        stack.close()

    tracer = LayerTracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            stack = workload.setup(inputs, tracer)
        try:
            before = _counters(stack)
            phase_start = time.perf_counter_ns()
            traced_calibrator = Calibrator()
            traced = _loop(workload, stack, inputs, tracer,
                           traced_calibrator)
            after = _counters(stack)
            _, live_bits = _live(stack)
        finally:
            stack.close()
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    workload.verify(inputs, untraced)
    workload.verify(inputs, traced)
    # Compare the halves at one host speed: they ran minutes apart.
    speed_ratio = traced_calibrator.factor() / untraced_calibrator.factor()
    return per_layer(workload, untraced, traced, tracer, phase_start,
                     before, after, live_bits, speed_ratio)
