"""Tests of the persistent CGR store (:mod:`repro.store`).

Four concerns, mirroring the format's promises:

* **round-trip fidelity** -- a saved graph loads back indistinguishable
  (stream bits, offsets, configuration, full decode) across every strategy
  ladder rung x graph family, without a single re-encode;
* **integrity** -- bad magic, truncation, bit rot, version skew, trailing
  garbage and self-inconsistent metadata are all rejected with
  :class:`~repro.store.StoreError` subclasses before any object is built;
* **snapshot/restore differential** -- a restored service answers
  BFS/CC/BC/PageRank identically to the live service that wrote the
  snapshot, including simulated costs, with zero encode calls paid on
  restore; epoch-tagged manifests restore older states;
* **sharded parity** -- sharded entries save one payload per shard and
  restore to the same answers, counters, and compression accounting.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro import (
    BCQuery,
    BFSQuery,
    CCQuery,
    EdgeUpdate,
    PageRankQuery,
    TraversalService,
)
from repro.apps.bc import betweenness_centrality
from repro.apps.bfs import bfs
from repro.apps.pagerank import personalized_pagerank
from repro.compression.bitarray import PackedBits
from repro.compression.cgr import CGRConfig, CGRGraph, encode_call_count
from repro.dynamic.overlay import DeltaOverlay
from repro.store import (
    StoreError,
    StoreFormatError,
    StoreTruncationError,
    StoreVersionError,
    read_delta_file,
    read_graph_file,
    read_graph_meta,
    read_manifest,
    read_partition_file,
    resolve_manifest_path,
    write_delta_file,
    write_graph_file,
    write_partition_file,
)
from repro.traversal.gcgt import STRATEGY_LADDER

#: The encoding configurations of the five Figure-9 ladder rungs (two
#: distinct CGR layouts: segmented and unsegmented), plus scheme variants.
LADDER_CONFIGS = sorted(
    {config.effective_cgr_config() for config in STRATEGY_LADDER.values()},
    key=lambda config: str(config.to_dict()),
)
EXTRA_CONFIGS = [
    CGRConfig(vlc_scheme="gamma", min_interval_length=4, residual_segment_bits=None),
    CGRConfig(vlc_scheme="zeta2", min_interval_length=float("inf"),
              residual_segment_bits=256),
]

GRAPH_FIXTURES = ["web_graph", "skewed_graph", "dense_graph"]


def _assert_same_graph(loaded: CGRGraph, original: CGRGraph) -> None:
    """The loaded graph must be indistinguishable from the original."""
    assert loaded.num_nodes == original.num_nodes
    assert loaded.num_edges == original.num_edges
    assert loaded.config == original.config
    assert len(loaded.bits) == len(original.bits)
    assert loaded.offsets.tolist() == original.offsets.tolist()
    assert loaded.bits.to_bytes() == original.bits.to_bytes()
    assert loaded.decode_all() == original.decode_all()


class TestGraphFileRoundTrip:
    @pytest.mark.parametrize("fixture", GRAPH_FIXTURES)
    @pytest.mark.parametrize(
        "config", LADDER_CONFIGS + EXTRA_CONFIGS,
        ids=lambda config: (
            f"{config.vlc_scheme}-itv{config.min_interval_length}"
            f"-seg{config.residual_segment_bits}"
        ),
    )
    def test_round_trip_all_rungs_and_families(
        self, request, fixture, config, tmp_path
    ):
        graph = request.getfixturevalue(fixture)
        cgr = CGRGraph.from_adjacency(graph.adjacency(), config)
        path = tmp_path / "graph.cgr"
        write_graph_file(path, cgr)

        calls = encode_call_count()
        loaded = read_graph_file(path)
        assert encode_call_count() == calls, "loading must never encode"
        _assert_same_graph(loaded, cgr)

    def test_loaded_graph_serves_reads(self, web_graph, tmp_path):
        cgr = CGRGraph.from_adjacency(web_graph.adjacency())
        write_graph_file(tmp_path / "g.cgr", cgr)
        loaded = read_graph_file(tmp_path / "g.cgr")
        for node in range(0, loaded.num_nodes, 37):
            assert loaded.neighbors(node) == web_graph.neighbors(node)
            assert loaded.degree(node) == len(web_graph.neighbors(node))

    def test_empty_graph_round_trip(self, tmp_path):
        cgr = CGRGraph.from_adjacency([[], [], []])
        write_graph_file(tmp_path / "empty.cgr", cgr)
        _assert_same_graph(read_graph_file(tmp_path / "empty.cgr"), cgr)

    def test_read_graph_meta_is_consistent(self, web_graph, tmp_path):
        cgr = CGRGraph.from_adjacency(web_graph.adjacency())
        write_graph_file(tmp_path / "g.cgr", cgr)
        meta = read_graph_meta(tmp_path / "g.cgr")
        assert meta["num_nodes"] == cgr.num_nodes
        assert meta["num_edges"] == cgr.num_edges
        assert meta["bit_length"] == len(cgr.bits)
        assert CGRConfig.from_dict(meta["config"]) == cgr.config


class TestPackedBitsBuffer:
    def test_word_bytes_buffer_round_trip(self):
        bits = PackedBits.from_bitstring("1" + "01" * 70 + "001")
        data = bits.to_word_bytes()
        assert len(data) % 8 == 0
        back = PackedBits.from_buffer(data, len(bits))
        assert back.to_bitlist() == bits.to_bitlist()

    def test_from_buffer_rejects_misaligned_and_overrun(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            PackedBits.from_buffer(b"\x00" * 7, 8)
        with pytest.raises(ValueError, match="exceeds buffer"):
            PackedBits.from_buffer(b"\x00" * 8, 65)
        with pytest.raises(ValueError, match="non-negative"):
            PackedBits.from_buffer(b"", -1)


class TestCorruptionRejection:
    @pytest.fixture
    def graph_file(self, web_graph, tmp_path):
        cgr = CGRGraph.from_adjacency(web_graph.adjacency())
        path = tmp_path / "g.cgr"
        write_graph_file(path, cgr)
        return path

    def test_bad_magic(self, graph_file):
        data = bytearray(graph_file.read_bytes())
        data[:8] = b"NOTACGR!"
        graph_file.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="bad magic"):
            read_graph_file(graph_file)

    def test_unsupported_version(self, graph_file):
        data = bytearray(graph_file.read_bytes())
        data[8:12] = struct.pack("<I", 99)
        graph_file.write_bytes(bytes(data))
        with pytest.raises(StoreVersionError, match="version 99"):
            read_graph_file(graph_file)

    @pytest.mark.parametrize("keep_fraction", [0.1, 0.5, 0.95])
    def test_truncation(self, graph_file, keep_fraction):
        data = graph_file.read_bytes()
        graph_file.write_bytes(data[: int(len(data) * keep_fraction)])
        with pytest.raises(StoreFormatError, match="truncated"):
            read_graph_file(graph_file)

    def test_bit_flip_fails_checksum(self, graph_file):
        data = bytearray(graph_file.read_bytes())
        # Flip one bit in the payload area (well past the header blocks).
        data[len(data) - 20] ^= 0x40
        graph_file.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="checksum mismatch"):
            read_graph_file(graph_file)

    def test_trailing_garbage(self, graph_file):
        graph_file.write_bytes(graph_file.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(StoreFormatError, match="trailing"):
            read_graph_file(graph_file)

    def test_wrong_kind(self, web_graph, tmp_path):
        overlay = DeltaOverlay(CGRGraph.from_adjacency(web_graph.adjacency()))
        path = tmp_path / "d.delta"
        write_delta_file(path, overlay)
        with pytest.raises(StoreFormatError, match="bad magic"):
            read_graph_file(path)  # a delta file is not a graph file

    def test_inconsistent_metadata_rejected(self, graph_file, tmp_path):
        # Rewrite the metadata block declaring one node fewer: the offset
        # table length check must catch the inconsistency.
        from repro.store.format import (
            MAGIC_GRAPH, BlockReader, write_block, write_header,
            write_json_block,
        )

        reader = BlockReader(graph_file.read_bytes(), str(graph_file))
        reader.read_header(MAGIC_GRAPH)
        meta = reader.read_json_block("metadata")
        offsets = bytes(reader.read_block("offsets"))
        payload = bytes(reader.read_block("payload"))
        meta["num_nodes"] -= 1
        tampered = tmp_path / "tampered.cgr"
        with tampered.open("wb") as handle:
            write_header(handle, MAGIC_GRAPH)
            write_json_block(handle, meta)
            write_block(handle, offsets)
            write_block(handle, payload)
        with pytest.raises(StoreFormatError, match="offset table"):
            read_graph_file(tampered)

    def test_manifest_rejects_non_snapshot_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(StoreFormatError, match="not a snapshot manifest"):
            read_manifest(path)

    def test_manifest_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "kind": "cgr-snapshot", "manifest_version": 1, "name": "g",
        }))
        with pytest.raises(StoreFormatError, match="missing required"):
            read_manifest(path)

    def test_manifest_rejects_shard_count_file_list_mismatch(
        self, web_graph, tmp_path
    ):
        # A sharded manifest whose base/delta lists disagree with its shard
        # count must fail validation, not IndexError inside the restore.
        service = TraversalService()
        service.register_graph("g", web_graph, shards=2)
        service.save_graph("g", tmp_path / "snap")
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["base_files"] = manifest["base_files"][:1]
        manifest["delta_files"] = manifest["delta_files"][:1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreFormatError, match="2 shard"):
            TraversalService().load_graph(tmp_path / "snap")

    def test_negative_node_count_metadata_rejected(self, graph_file, tmp_path):
        # A tampered meta block with num_nodes=-1 must fail the format
        # contract (StoreFormatError), not crash with a raw IndexError.
        from repro.store.format import (
            MAGIC_GRAPH, BlockReader, write_block, write_header,
            write_json_block,
        )

        reader = BlockReader(graph_file.read_bytes(), str(graph_file))
        reader.read_header(MAGIC_GRAPH)
        meta = reader.read_json_block("metadata")
        offsets = bytes(reader.read_block("offsets"))
        payload = bytes(reader.read_block("payload"))
        meta["num_nodes"] = -1
        tampered = tmp_path / "negative.cgr"
        with tampered.open("wb") as handle:
            write_header(handle, MAGIC_GRAPH)
            write_json_block(handle, meta)
            write_block(handle, offsets)
            write_block(handle, payload)
        with pytest.raises(StoreFormatError, match="non-negative"):
            read_graph_file(tampered)

    def test_out_of_range_interior_offset_rejected(self, graph_file, tmp_path):
        # An interior bitStart pointing past the stream must fail at load
        # (StoreFormatError), not EOFError at the first query.
        from repro.store.format import (
            MAGIC_GRAPH, BlockReader, write_block, write_header,
            write_json_block,
        )

        reader = BlockReader(graph_file.read_bytes(), str(graph_file))
        reader.read_header(MAGIC_GRAPH)
        meta = reader.read_json_block("metadata")
        offsets = np.frombuffer(
            reader.read_block("offsets"), dtype="<i8"
        ).copy()
        payload = bytes(reader.read_block("payload"))
        offsets[1] = meta["bit_length"] + 10_000
        tampered = tmp_path / "offsets.cgr"
        with tampered.open("wb") as handle:
            write_header(handle, MAGIC_GRAPH)
            write_json_block(handle, meta)
            write_block(handle, offsets.tobytes())
            write_block(handle, payload)
        with pytest.raises(StoreFormatError, match="non-decreasing"):
            read_graph_file(tampered)

    def test_loaded_arrays_do_not_pin_the_file_image(
        self, graph_file, tmp_path
    ):
        # The offset table must be copied out of the whole-file buffer, not
        # a frombuffer view that keeps the entire payload resident.
        loaded = read_graph_file(graph_file)
        assert loaded.offsets.base is None

        assignment = np.array([0, 1, 0], dtype=np.int64)
        path = tmp_path / "partition.bin"
        write_partition_file(path, assignment, 2)
        back, _ = read_partition_file(path)
        assert back.base is None


class TestDeltaAndPartitionFiles:
    def test_delta_round_trip_preserves_overlay_exactly(
        self, skewed_graph, tmp_path
    ):
        base = CGRGraph.from_adjacency(skewed_graph.adjacency())
        overlay = DeltaOverlay(base)
        updates = [
            EdgeUpdate.insert(0, 399), EdgeUpdate.insert(0, 17),
            EdgeUpdate.delete(1, skewed_graph.neighbors(1)[0]),
            EdgeUpdate.insert(5, 300),
        ]
        overlay.apply(updates)
        overlay.compact(0)
        # Force an encoded insert run into the side stream.
        overlay.build_node_plan(5)

        path = tmp_path / "o.delta"
        write_delta_file(path, overlay)
        restored = read_delta_file(path, base)

        assert restored.epoch == overlay.epoch
        assert restored.num_edges == overlay.num_edges
        assert len(restored.bits) == len(overlay.bits)
        assert restored.stats() == overlay.stats()
        for node in range(skewed_graph.num_nodes):
            assert restored.neighbors(node) == overlay.neighbors(node)
            assert restored.node_epoch(node) == overlay.node_epoch(node)
        # Bit-level plan equality on dirty and compacted nodes.
        for node in (0, 1, 5):
            original_plan = overlay.build_node_plan(node)
            restored_plan = restored.build_node_plan(node)
            assert restored_plan.degree == original_plan.degree
            assert [
                (s.data_start_bit, s.count, s.count_bits, s.decoded)
                for s in restored_plan.residual_segments
            ] == [
                (s.data_start_bit, s.count, s.count_bits, s.decoded)
                for s in original_plan.residual_segments
            ]

    def test_delta_side_stream_truncation_rejected(self, web_graph, tmp_path):
        base = CGRGraph.from_adjacency(web_graph.adjacency())
        overlay = DeltaOverlay(base)
        overlay.apply([EdgeUpdate.insert(2, 399)])
        overlay.compact_all()
        path = tmp_path / "o.delta"
        write_delta_file(path, overlay)
        data = path.read_bytes()
        path.write_bytes(data[:-6])
        with pytest.raises(StoreFormatError, match="truncated"):
            read_delta_file(path, base)

    def test_partition_round_trip_and_validation(self, tmp_path):
        assignment = np.array([0, 1, 2, 1, 0], dtype=np.int64)
        path = tmp_path / "partition.bin"
        write_partition_file(path, assignment, 3)
        back, shards = read_partition_file(path)
        assert shards == 3
        assert back.tolist() == assignment.tolist()

        write_partition_file(path, assignment, 2)  # value 2 out of range
        with pytest.raises(StoreFormatError, match="must lie in"):
            read_partition_file(path)


class TestStoreErrorPaths:
    """Reader failure modes beyond tail corruption.

    Mid-block truncation (a declared length that overruns the file),
    partition assignments naming shards that do not exist, and manifest
    resolution against directories that are empty or belong to something
    else entirely -- each must be rejected before any object is built.
    """

    def test_delta_truncated_mid_block_rejected(self, web_graph, tmp_path):
        base = CGRGraph.from_adjacency(web_graph.adjacency())
        overlay = DeltaOverlay(base)
        overlay.apply([EdgeUpdate.insert(2, 399), EdgeUpdate.insert(7, 11)])
        overlay.compact_all()
        path = tmp_path / "o.delta"
        write_delta_file(path, overlay)
        data = path.read_bytes()
        # cut inside every region -- the magic, the metadata JSON block and
        # the side-stream block; every declared length must be rechecked
        # against the real file size, never trusted
        for cut in (4, len(data) // 3, len(data) // 2, len(data) - 3):
            path.write_bytes(data[:cut])
            with pytest.raises(StoreFormatError):
                read_delta_file(path, base)

    def test_partition_negative_shard_id_rejected(self, tmp_path):
        path = tmp_path / "partition.bin"
        write_partition_file(path, np.array([0, -1, 1], dtype=np.int64), 2)
        with pytest.raises(StoreFormatError, match="must lie in"):
            read_partition_file(path)

    def test_partition_truncated_assignment_rejected(self, tmp_path):
        path = tmp_path / "partition.bin"
        write_partition_file(path, np.arange(6, dtype=np.int64) % 3, 3)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        with pytest.raises(StoreTruncationError, match="truncated"):
            read_partition_file(path)

    def test_resolve_manifest_path_dangling_directory(self, tmp_path):
        empty = tmp_path / "not-a-snapshot"
        empty.mkdir()
        assert resolve_manifest_path(empty) == empty / "manifest.json"
        with pytest.raises(FileNotFoundError):
            read_manifest(resolve_manifest_path(empty))
        with pytest.raises(FileNotFoundError):
            TraversalService().load_graph(empty)

    def test_resolve_manifest_path_foreign_directory(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "manifest.json").write_text(
            json.dumps({"kind": "container-image", "layers": []})
        )
        with pytest.raises(StoreFormatError, match="not a snapshot manifest"):
            TraversalService().load_graph(foreign)
        (foreign / "manifest.json").write_text("{not json")
        with pytest.raises(StoreFormatError, match="not valid JSON"):
            read_manifest(foreign / "manifest.json")

    def test_explicit_manifest_path_passes_through(self, tmp_path):
        # a file path resolves verbatim -- existence is the reader's job,
        # so a dangling epoch-tagged path fails at read, not resolve
        missing = tmp_path / "manifest-epoch-000007.json"
        assert resolve_manifest_path(missing) == missing
        with pytest.raises(FileNotFoundError):
            read_manifest(missing)

    def test_manifest_referencing_missing_delta_rejected(
        self, tiny_graph, tmp_path
    ):
        service = TraversalService()
        service.register_graph("g", tiny_graph)
        service.save_graph("g", tmp_path / "snap")
        service.close()
        (tmp_path / "snap" / "epoch-0.delta").unlink()
        with pytest.raises(FileNotFoundError):
            TraversalService().load_graph(tmp_path / "snap")


def _submit_all(service: TraversalService, name: str):
    return service.submit([
        BFSQuery(name, source=0),
        CCQuery(name),
        BCQuery(name, source=3),
        PageRankQuery(name, source=5),
    ])


def _assert_metrics_identical(before, after, skip_cost_kinds=("cc",)):
    """Answers must match exactly; costs too, where state is bit-restored.

    Served costs are simulated on sharded entries and ``0.0`` on natively
    served unsharded ones, whose simulated costs
    :func:`_simulated_costs` compares instead.  CC runs on the lazily
    rebuilt undirected sibling: a fresh symmetrised encode of the merged
    topology rather than the original sibling's base+overlay state, so its
    answers are guaranteed identical but its stream layout (and hence
    simulated cost) legitimately differs.
    """
    for b, a in zip(before, after):
        assert b.kind == a.kind
        if b.kind == "bfs":
            assert (b.value.levels == a.value.levels).all()
        elif b.kind == "cc":
            assert (b.value.labels == a.value.labels).all()
        elif b.kind == "bc":
            assert (b.value.distances == a.value.distances).all()
            assert (b.value.sigma == a.value.sigma).all()
            assert np.array_equal(b.value.delta, a.value.delta)
        else:  # pagerank
            assert np.array_equal(b.value.estimates, a.value.estimates)
        assert b.value.iterations == a.value.iterations
        if b.kind not in skip_cost_kinds:
            assert b.metrics.cost == a.metrics.cost
            assert b.metrics.elapsed_proxy == a.metrics.elapsed_proxy
            assert b.metrics.iterations == a.metrics.iterations


def _simulated_costs(service: TraversalService, name: str):
    """(cost, elapsed proxy) of BFS, BC and PageRank on fresh sessions of
    an unsharded entry's simulated engine, which reads the very overlay the
    service serves from -- so a bit-exact restore reproduces them."""
    entry = service.registry.resolve(name)
    engine = entry.engine
    assert engine.plan_cache is not None
    degrees = entry.graph.degrees()
    runs = (
        lambda session: bfs(session, 0),
        lambda session: betweenness_centrality(session, 3),
        lambda session: personalized_pagerank(session, 5, degrees=degrees),
    )
    costs = []
    for run in runs:
        session = engine.new_session()
        run(session)
        costs.append(
            (session.cost(), engine.device.elapsed_proxy(session.metrics))
        )
    assert all(cost > 0 for cost, _ in costs)
    return costs


class TestServiceSnapshotRestore:
    def test_unsharded_restore_is_differentially_identical(
        self, skewed_graph, tmp_path
    ):
        service = TraversalService()
        service.register_graph("g", skewed_graph)
        service.apply_updates("g", [
            EdgeUpdate.insert(0, 350),
            EdgeUpdate.insert(3, 17),
            EdgeUpdate.delete(1, skewed_graph.neighbors(1)[0]),
        ])
        before = _submit_all(service, "g")
        service.save_graph("g", tmp_path / "snap")

        calls = encode_call_count()
        restarted = TraversalService()
        entry = restarted.load_graph(tmp_path / "snap")
        assert encode_call_count() == calls, "restore must pay zero encodes"
        assert restarted.stats().encode_calls == 0
        assert entry.epoch == 1
        assert entry.num_edges == service.registry.resolve("g").num_edges
        assert entry.bits_per_edge == pytest.approx(
            service.registry.resolve("g").bits_per_edge
        )

        after = _submit_all(restarted, "g")
        _assert_metrics_identical(before, after)
        # Served natively; the simulated costs come from the engines.
        assert all(
            r.metrics.cost == r.metrics.elapsed_proxy == 0.0 for r in after
        )
        assert _simulated_costs(service, "g") == _simulated_costs(
            restarted, "g"
        )

    def test_restore_without_updates(self, dense_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", dense_graph)
        before = _submit_all(service, "g")
        service.save_graph("g", tmp_path / "snap")
        restarted = TraversalService()
        restarted.load_graph(tmp_path / "snap")
        _assert_metrics_identical(before, _submit_all(restarted, "g"))
        assert _simulated_costs(service, "g") == _simulated_costs(
            restarted, "g"
        )

    def test_restored_entry_keeps_serving_updates(self, web_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", web_graph)
        service.apply_updates("g", [EdgeUpdate.insert(0, 399)])
        service.save_graph("g", tmp_path / "snap")

        restarted = TraversalService()
        restarted.load_graph(tmp_path / "snap")
        # Both services absorb the same follow-up batch and must agree.
        batch = [EdgeUpdate.insert(7, 311), EdgeUpdate.delete(0, 399)]
        service.apply_updates("g", batch)
        restarted.apply_updates("g", batch)
        _assert_metrics_identical(
            _submit_all(service, "g"), _submit_all(restarted, "g")
        )
        assert _simulated_costs(service, "g") == _simulated_costs(
            restarted, "g"
        )

    def test_epoch_time_travel(self, web_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", web_graph)
        service.apply_updates("g", [EdgeUpdate.insert(0, 399)])
        service.save_graph("g", tmp_path / "snap")
        edges_at_epoch_1 = service.registry.resolve("g").num_edges
        service.apply_updates("g", [EdgeUpdate.insert(1, 398)])
        service.save_graph("g", tmp_path / "snap")

        latest = TraversalService().load_graph(tmp_path / "snap")
        assert latest.epoch == 2
        old = TraversalService().load_graph(
            tmp_path / "snap" / "manifest-epoch-1.json"
        )
        assert old.epoch == 1
        assert old.num_edges == edges_at_epoch_1
        assert not old.graph.has_edge(1, 398)
        assert latest.graph.has_edge(1, 398)

    def test_manifest_pointer_written_atomically(self, web_graph, tmp_path):
        # The pointer swap goes through a temp file + rename, so a crash
        # mid-snapshot can never leave a torn manifest.json behind.
        service = TraversalService()
        service.register_graph("g", web_graph)
        service.save_graph("g", tmp_path / "snap")
        names = {p.name for p in (tmp_path / "snap").iterdir()}
        assert not any(name.endswith(".tmp") for name in names)
        manifest = read_manifest(tmp_path / "snap" / "manifest.json")
        assert manifest["name"] == "g"

    def test_base_file_reused_across_epochs(self, web_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", web_graph)
        service.save_graph("g", tmp_path / "snap")
        stamp = (tmp_path / "snap" / "base.cgr").stat().st_mtime_ns
        content = (tmp_path / "snap" / "base.cgr").read_bytes()
        service.apply_updates("g", [EdgeUpdate.insert(0, 399)])
        service.save_graph("g", tmp_path / "snap")
        assert (tmp_path / "snap" / "base.cgr").stat().st_mtime_ns == stamp
        assert (tmp_path / "snap" / "base.cgr").read_bytes() == content

    def test_snapshot_refuses_foreign_base_file(
        self, web_graph, dense_graph, tmp_path
    ):
        service = TraversalService()
        service.register_graph("a", web_graph)
        service.register_graph("b", dense_graph)
        service.save_graph("a", tmp_path / "snap")
        with pytest.raises(StoreError, match="different graph"):
            service.save_graph("b", tmp_path / "snap")

    def test_base_reuse_check_catches_size_colliding_graphs(self, tmp_path):
        # 0->[1] and 0->[2] on 6 nodes encode to the same num_edges and
        # bit_length; only the payload fingerprint tells them apart, so the
        # reuse check must still refuse to mix them.
        from repro.graph.graph import Graph

        first = Graph([[1], [], [], [], [], []])
        second = Graph([[2], [], [], [], [], []])
        service = TraversalService()
        service.register_graph("a", first)
        service.register_graph("b", second)
        service.save_graph("a", tmp_path / "snap")
        base = read_graph_meta(tmp_path / "snap" / "base.cgr")
        other = service.registry.resolve("b").cgr
        assert base["bit_length"] == len(other.bits)  # the collision is real
        with pytest.raises(StoreError, match="different graph"):
            service.save_graph("b", tmp_path / "snap")

    def test_restore_conflicts_with_resident_entry(self, web_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", web_graph)
        service.save_graph("g", tmp_path / "snap")
        with pytest.raises(StoreError, match="already registered"):
            service.load_graph(tmp_path / "snap")

    def test_conflicting_restore_rejected_before_loading_files(
        self, web_graph, tmp_path
    ):
        # The duplicate-key check must run off the manifest alone, before any
        # graph file is loaded (or any engine/executor built, which would
        # leak): with the base file gone, the conflict error still wins.
        service = TraversalService()
        service.register_graph("g", web_graph)
        service.save_graph("g", tmp_path / "snap")
        (tmp_path / "snap" / "base.cgr").unlink()
        with pytest.raises(StoreError, match="already registered"):
            service.load_graph(tmp_path / "snap")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraversalService().load_graph(tmp_path)


class TestShardedSnapshotRestore:
    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_sharded_parity(self, skewed_graph, tmp_path, backend):
        service = TraversalService()
        service.register_graph(
            "g", skewed_graph, shards=4, partitioner="greedy",
            executor_backend=backend,
        )
        service.apply_updates("g", [
            EdgeUpdate.insert(5, 77), EdgeUpdate.insert(7, 5),
            EdgeUpdate.delete(0, skewed_graph.neighbors(0)[0]),
        ])
        before = _submit_all(service, "g")
        live = service.registry.resolve("g")
        service.save_graph("g", tmp_path / "snap")

        restarted = TraversalService()
        entry = restarted.load_graph(
            tmp_path / "snap", executor_backend=backend
        )
        assert entry.is_sharded
        assert entry.shards == 4
        assert entry.epoch == live.epoch
        assert entry.num_edges == live.num_edges
        assert entry.bits_per_edge == pytest.approx(live.bits_per_edge)
        assert entry.sharded.partition.assignment.tolist() == \
            live.sharded.partition.assignment.tolist()

        after = _submit_all(restarted, "g")
        _assert_metrics_identical(before, after)
        # Sharded entries are still simulated, superstep by superstep.
        assert all(r.metrics.cost > 0 for r in after)
        service.close()
        restarted.close()

    def test_one_payload_file_per_shard(self, web_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", web_graph, shards=3)
        service.save_graph("g", tmp_path / "snap")
        names = sorted(p.name for p in (tmp_path / "snap").iterdir())
        assert [n for n in names if n.endswith(".cgr")] == [
            "shard-0.cgr", "shard-1.cgr", "shard-2.cgr"
        ]
        assert "partition.bin" in names
        manifest = read_manifest(tmp_path / "snap" / "manifest.json")
        assert manifest["sharded"] is True
        assert manifest["base_files"] == [
            "shard-0.cgr", "shard-1.cgr", "shard-2.cgr"
        ]

    def test_partitioner_instance_persists_by_registered_name(
        self, web_graph, tmp_path
    ):
        from repro import GreedyEdgeCutPartitioner

        service = TraversalService()
        service.register_graph(
            "g", web_graph, shards=2,
            partitioner=GreedyEdgeCutPartitioner(),
        )
        service.save_graph("g", tmp_path / "snap")
        manifest = read_manifest(tmp_path / "snap" / "manifest.json")
        assert manifest["partitioner"] == "greedy"
        entry = TraversalService().load_graph(tmp_path / "snap")
        assert entry.partitioner == "greedy"

    def test_process_backend_snapshot_rejected(self, tiny_graph, tmp_path):
        service = TraversalService()
        service.register_graph(
            "g", tiny_graph, shards=2, executor_backend="process"
        )
        try:
            with pytest.raises(StoreError, match="process-backed"):
                service.save_graph("g", tmp_path / "snap")
        finally:
            service.close()

    def test_restored_sharded_entry_absorbs_updates(self, web_graph, tmp_path):
        service = TraversalService()
        service.register_graph("g", web_graph, shards=2)
        service.apply_updates("g", [EdgeUpdate.insert(0, 399)])
        service.save_graph("g", tmp_path / "snap")

        restarted = TraversalService()
        restarted.load_graph(tmp_path / "snap")
        batch = [EdgeUpdate.insert(3, 111), EdgeUpdate.delete(0, 399)]
        service.apply_updates("g", batch)
        restarted.apply_updates("g", batch)
        _assert_metrics_identical(
            _submit_all(service, "g"), _submit_all(restarted, "g")
        )
