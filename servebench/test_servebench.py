"""Tests of the serving benchmark's own helpers, inputs and tracer."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.server.frontdoor import FrontDoor
from repro.service.queries import BFSQuery
from repro.service.service import TraversalService

from servebench import metrics, stats, tracing, workloads
from servebench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles ------------------------------------------------------------------


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = list(range(1, 201))
    p95 = stats.percentile(values, 95)
    assert (p95.value, p95.samples, p95.beyond) == (190, 200, 10)
    assert stats.percentile(values[:20], 50).value == 10


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(199)), 95)
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(19)), 50)
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile([], 50)
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20


# -- span self time -------------------------------------------------------------------


def test_union_length_merges_overlaps_and_skips_empty():
    assert stats.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert stats.union_length([]) == 0


def test_self_time_subtracts_union_of_clipped_children():
    # Children overlap each other and one outlives the parent.
    assert stats.self_time(0, 10, [(1, 4), (3, 5), (8, 12)]) == 4
    assert stats.self_time(0, 10, []) == 10


# -- open-loop latency --------------------------------------------------------------------


def test_open_loop_latency_counts_the_wait_before_sending():
    # Due at 1.0 but sent at 1.5 (the generator stalled): the stall is part
    # of the latency, and reported as lag.
    latency, lag = stats.latency_from_due(1.0, 1.5, 0.25)
    assert latency == pytest.approx(0.75)
    assert lag == pytest.approx(0.5)
    latency, lag = stats.latency_from_due(2.0, 2.0, 0.25)
    assert (latency, lag) == (0.25, 0.0)


# -- seeded inputs ----------------------------------------------------------------------


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]
    first = workload.generate(1, 1.0)
    assert _same(first, workload.generate(1, 1.0))
    assert not _same(first, workload.generate(2, 1.0))


def test_churn_batches_delete_live_edges_and_insert_absent_ones():
    workload = WORKLOADS["churn-twitter"]
    inputs = workload.generate(3, 1.0)
    model = load_dataset(workload.dataset, workload.scale)
    for batch, _ in inputs["steps"][:20]:
        assert len(batch) == workloads.CHURN_BATCH
        for kind, source, target in batch:
            assert model.has_edge(source, target) == (kind == "delete")
            model = model.with_edge_updates([(kind, source, target)])


# -- tracer ------------------------------------------------------------------------------


@pytest.fixture
def traced_door():
    tracer = tracing.LayerTracer()
    original = TraversalService.submit
    tracer.install()
    service = TraversalService()
    try:
        service.register_graph("g", load_dataset("uk-2002", 200))
        door = FrontDoor(service)
        door.register_tenant("t")
        try:
            yield tracer, door
        finally:
            door.close()
    finally:
        service.close()
        tracer.uninstall()
    assert TraversalService.submit is original


def test_layer_self_times_and_remainder_sum_to_request_time(traced_door):
    tracer, door = traced_door
    for source in (0, 5, 9):
        op = workloads._call(door, "t", BFSQuery("g", source), tracer, "bfs")
        assert op.ok
    reads = [root for root in tracer.roots if root.kind == "read"]
    summary = tracer.summarize(reads)
    assert summary.roots == 3
    assert summary.layers["traversal"] > 0 and summary.layers["gpu"] > 0
    attributed = sum(summary.layers.values()) + summary.remainder_ns
    assert attributed == pytest.approx(summary.request_ns, rel=0.01)
    assert summary.count("service.submit") == 3
    assert summary.count("apps.bfs") == 3


def test_dispatcher_work_is_charged_to_every_root_it_serves(traced_door):
    tracer, door = traced_door
    queries = [BFSQuery("g", 1), BFSQuery("g", 2)]
    roots = [tracer.new_root("read") for _ in queries]
    for query, root in zip(queries, roots):
        tracer.bind(query, root)
    # One submit serving both requests, as a coalesced group would be.
    door.service.submit(queries)
    for root in roots:
        tracer.finish_root(root)
        assert len(root.segments) == 1
    assert roots[0].segments[0] is roots[1].segments[0]
    assert roots[0].segments[0].calls["traversal.msbfs"][0] == 1


def test_sharded_registration_is_charged_to_the_shard_layer():
    tracer = tracing.LayerTracer()
    tracer.install()
    service = TraversalService()
    try:
        graph = load_dataset("uk-2002", 200)
        with tracer.root("setup") as root:
            service.register_graph("plain", graph)
            service.register_graph(
                "split", graph, shards=2, executor_backend="inline")
    finally:
        service.close()
        tracer.uninstall()
    summary = tracer.summarize([root])
    assert summary.count("service.register") == 1
    assert summary.count("shard.register") == 1
    assert summary.layers["shard"] > 0


# -- the contract file ---------------------------------------------------------------------


def test_benchmark_json_matches_the_declared_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "servebench", tmp_path / "servebench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "serial-uk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_oracle_rejects_a_wrong_bfs_answer():
    from servebench.oracle import StaticOracle

    graph = load_dataset("uk-2002", 200)
    checker = StaticOracle(graph, workloads.PPR_EPSILON)
    levels = checker.levels(0).copy()

    class Answer:
        pass

    answer = Answer()
    answer.levels = levels
    assert checker.check("bfs", 0, answer)
    answer.levels = levels + (levels >= 0)
    assert not checker.check("bfs", 0, answer)
    assert np.array_equal(checker.levels(0), levels)
