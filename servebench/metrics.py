"""What the benchmark reports, and which end-to-end number each layer moves.

``END_TO_END`` are the metrics ``--trace 0`` prints in its result line and
``BENCHMARK.json`` bounds; every workload measures each of them.
``WORKLOAD_ONLY`` are end-to-end metrics that exist on some workloads only
(there are no updates on serial-uk, no CC on burst); they are printed in
the table above the result line, never in it.  ``PER_LAYER`` are what
``--trace 1`` reports; a layer a workload bypasses reports 0.

Every workload reports its times at the calibrated reference host speed
(see :mod:`servebench.calibrate`).  Per-layer times are wall time.

Span metrics come in two normalisations: ``per call`` of the named entry
point, and ``per read`` (the workload's read operations), so a layer's
share of a read can be compared across changes.  Each is taken from the
roots of the client operation that issues it: per-read metrics from the
primary's reads, ``dynamic.*`` and ``views.repair_ms`` from its writes,
so the follower's replays and reads stay out of both.
``self_ms.<layer>`` is per foreground request (reads, updates, view
reads, catch-ups, follower reads, maintenance ticks); those eleven values
plus ``trace.remainder_ms`` sum to ``trace.request_ms``.

Each per-layer metric names the end-to-end metric it should move and on
which workload (``moves``, printed by the traced run).  The predictions
later changes are held to: native execution lowers ``read_*`` and
``bfs_p50_ms`` on serial-uk and churn-twitter and moves neither
``update_*`` nor ``bits_per_edge``; one execution shape lowers
``setup_s`` and ``shard.*`` on burst-twitter-sharded and does not move
serial-uk.
"""

from __future__ import annotations

from dataclasses import dataclass

from servebench.tracing import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    source: str
    #: The end-to-end metric(s) this one should move, and where.
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median of 5 set-ups: generate, encode, shards, views, "
           "snapshot + follower load, one warm request per kind"),
    Metric("read_qps", "1/s", "higher",
           "ok reads per second of the measured loop"),
    Metric("read_p50_ms", "ms", "lower", "median read latency"),
    Metric("read_p95_ms", "ms", "lower",
           "p95 read latency, >=10 samples beyond it"),
    Metric("bfs_p50_ms", "ms", "lower", "median BFS read latency"),
    Metric("bits_per_edge", "bits", "lower",
           "ServiceStats.bits_per_edge at the end of the run"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak RSS of the serving process plus its shard workers over "
           "the measured loop"),
    Metric("ok_rate", "ok/attempted", "higher",
           "1 - error_rate: answered and verified correct, over attempted"),
)

WORKLOAD_ONLY = (
    Metric("ppr_p50_ms", "ms", "lower", "median PPR read latency"),
    Metric("cc_p50_ms", "ms", "lower", "median CC read latency"),
    Metric("update_p50_ms", "ms", "lower", "median apply_updates latency"),
    Metric("update_p95_ms", "ms", "lower", "p95 apply_updates latency"),
    Metric("catchup_p50_ms", "ms", "lower",
           "median FollowerReplica.catch_up latency"),
    Metric("error_rate", "failed/attempted", "lower",
           "rejected, failed, timed-out and wrong answers over attempted"),
)

PER_LAYER = (
    Metric("server.admit_ms", "ms", "lower",
           "FrontDoor.submit caller-side span, per call",
           "read_p50_ms @ burst-twitter-sharded"),
    Metric("server.queue_wait_p50_ms", "ms", "lower",
           "ServerResponse.queue_seconds, median",
           "read_p95_ms @ burst-twitter-sharded"),
    Metric("server.queue_wait_p95_ms", "ms", "lower",
           "ServerResponse.queue_seconds, p95",
           "read_p95_ms @ burst-twitter-sharded"),
    Metric("server.coalesced_share", "share", "higher",
           "ServerStats coalesced_requests / admitted",
           "read_p95_ms @ burst-twitter-sharded"),
    Metric("service.submit_self_ms", "ms", "lower",
           "TraversalService.submit minus children, per read",
           "read_p50_ms @ serial-uk (~1%)"),
    Metric("service.cache_hit_rate", "share", "higher",
           "ServiceStats plan-cache hits / lookups over the loop",
           "read_p50_ms @ churn-twitter (~1.0 on serial-uk)"),
    Metric("service.cache_invalidations", "count", "lower",
           "ServiceStats cache_invalidations delta, per read",
           "read_p50_ms @ churn-twitter"),
    Metric("compression.plan_decode_ms", "ms", "lower",
           "ServiceStats cache_miss_decode_ns delta, per read",
           "read_p50_ms @ churn-twitter"),
    Metric("compression.plan_decodes", "count", "lower",
           "ServiceStats cache_misses delta, per read",
           "read_p50_ms @ churn-twitter"),
    Metric("apps.self_ms", "ms", "lower",
           "bfs/connected_components/personalized_pagerank minus engine "
           "expand, per read",
           "read_p50_ms @ serial-uk"),
    Metric("apps.iterations", "count", "lower",
           "QueryMetrics.iterations, mean per read",
           "read_p50_ms @ serial-uk"),
    Metric("traversal.expand_self_ms", "ms", "lower",
           "session expand minus gpu and plan-cache children, per read "
           "(per-edge filter callbacks land here)",
           "read_p50_ms, bfs_p50_ms @ serial-uk"),
    Metric("traversal.expand_calls", "count", "lower",
           "session expand calls per read", "read_p50_ms @ serial-uk"),
    Metric("traversal.msbfs_lanes", "count", "higher",
           "QueryMetrics.batch_lanes, mean over BFS reads",
           "read_p95_ms @ burst-twitter-sharded"),
    Metric("gpu.memory_self_ms", "ms", "lower",
           "DeviceMemory access methods, per read",
           "read_p50_ms @ serial-uk"),
    Metric("gpu.modelled_cost", "modelled", "lower",
           "QueryMetrics.cost, mean per read: simulated, never wall time",
           "none (second column only)"),
    Metric("shard.register_s", "s", "lower",
           "sharded register_graph span in the traced set-up",
           "setup_s @ burst-twitter-sharded"),
    Metric("shard.executor_ms", "ms", "lower",
           "ShardExecutor bfs/msbfs/expand, per call",
           "read_p50_ms @ burst-twitter-sharded"),
    Metric("shard.exchange_volume", "count", "lower",
           "QueryMetrics.exchange_volume, mean per read",
           "read_p50_ms @ burst-twitter-sharded"),
    Metric("shard.fanout", "count", "lower",
           "QueryMetrics.shard_fanout, mean per read",
           "read_p50_ms @ burst-twitter-sharded"),
    Metric("dynamic.apply_self_ms", "ms", "lower",
           "apply_updates minus view and CDC children, per call",
           "update_p50_ms, update_p95_ms @ churn-twitter"),
    Metric("dynamic.compactions", "count", "lower",
           "ServiceStats compactions delta, per read",
           "update_p95_ms, bits_per_edge @ churn-twitter"),
    Metric("dynamic.live_bits", "bits", "lower",
           "live bits of the graph at the end (bits/edge x edges)",
           "bits_per_edge @ churn-twitter"),
    Metric("views.repair_ms", "ms", "lower",
           "ViewManager.on_updates, per call",
           "update_p95_ms @ churn-twitter"),
    Metric("views.full_recomputes", "count", "lower",
           "ServiceStats view_full_recomputes delta, per read",
           "update_p95_ms @ churn-twitter"),
    Metric("views.read_ms", "ms", "lower",
           "TraversalService.view_result, per call",
           "read_qps @ churn-twitter"),
    Metric("lifecycle.cdc_append_ms", "ms", "lower",
           "CDCWriter callback, per call",
           "update_p50_ms @ churn-twitter"),
    Metric("lifecycle.maintenance_ms", "ms", "lower",
           "MaintenanceScheduler.tick, once per step, per call",
           "update_p50_ms, read_p95_ms @ churn-twitter"),
    Metric("lifecycle.tick_folds", "count", "lower",
           "MaintenanceScheduler node folds per tick over the loop",
           "update_p50_ms, read_p95_ms @ churn-twitter"),
    Metric("lifecycle.follower_read_ms", "ms", "lower",
           "FollowerReplica.submit, per call",
           "catchup_p50_ms @ churn-twitter"),
    Metric("store.load_s", "s", "lower",
           "snapshot restore_entry span in the traced set-up",
           "setup_s @ churn-twitter"),
    Metric("loadgen.lag_p95_ms", "ms", "lower",
           "how late a request was sent after its burst was due, p95",
           "validity of burst-twitter-sharded"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced / untraced mean read latency, same requests",
           "none (reported)"),
    *(
        Metric(f"self_ms.{layer}", "ms", "lower",
               f"{layer} layer self time per foreground request",
               "trace.request_ms")
        for layer in LAYERS
    ),
    Metric("trace.remainder_ms", "ms", "lower",
           "request time no layer span covers (queue wait, dispatch, "
           "wake-up), per foreground request", "trace.request_ms"),
    Metric("trace.request_ms", "ms", "lower",
           "traced foreground request time, mean", "none (the sum)"),
)
