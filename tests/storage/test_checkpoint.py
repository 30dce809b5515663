"""Checkpoint store: atomic commit, the validation ladder, bounded recovery."""

import os

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.service import faults
from repro.storage.checkpoint import (
    CheckpointCorruptError,
    CheckpointStore,
    MANIFEST_NAME,
    QUARANTINE_DIR,
)
from repro.storage.recovery import recover
from repro.streaming.delta import Delta, DeltaBatch, WriteAheadLog
from repro.streaming.delta import frame_record as _frame, unframe_record as _unframe
from repro.streaming.dynamic_graph import DynamicAttributedGraph


def fresh_graph(num_nodes=24):
    graph = Graph(num_nodes=num_nodes)
    for u in range(num_nodes - 1):
        graph.add_edge(u, u + 1)
    for u in range(0, num_nodes - 2, 2):
        graph.add_edge(u, u + 2)
    return DynamicAttributedGraph(
        graph, {"a": [0, 2, 4, 6], "b": [1, 3, 5], "c": [7, 9]}
    )


def commit(graph, wal, *deltas):
    batch = DeltaBatch(deltas=tuple(deltas))
    wal.append_batch(batch)
    graph.apply(batch)


def checkpoint_now(store, graph, wal, digest="cfg"):
    """Cut a checkpoint of the graph's current epoch by hand."""
    return store.write(
        graph.snapshot().checkpoint_state(),
        config_digest=digest,
        wal_batches=wal.total_batches,
        wal_offset=wal.committed_offset,
    )


class TestWriteAndLoad:
    def test_round_trip_is_bit_identical(self, tmp_path):
        graph = fresh_graph()
        # Empty one event entirely: the layer keeps it registered, and the
        # checkpoint must preserve that (from_mapping alone would drop it).
        graph.apply([Delta.event_detach("c", 7), Delta.event_detach("c", 9)])
        index = graph.vicinity_index(levels=[1])
        index.size(0, 1)  # warm one column entry
        store = CheckpointStore(tmp_path / "store", fsync=False)
        info = store.write(
            graph.snapshot().checkpoint_state(),
            config_digest="cfg",
            wal_batches=5,
            wal_offset=123,
            vicinity_sizes=index.export_sizes(),
        )
        assert info.epoch == graph.epoch
        assert info.wal_batches == 5
        assert info.wal_offset == 123
        assert info.num_nodes == graph.num_nodes

        loaded = store.load(info.name)
        np.testing.assert_array_equal(loaded.indptr, graph.csr.indptr)
        np.testing.assert_array_equal(loaded.indices, graph.csr.indices)
        assert loaded.events == {
            "a": [0, 2, 4, 6], "b": [1, 3, 5], "c": [],
        }
        assert loaded.info.events_version == graph.events.version
        assert loaded.info.structure_version == graph.structure_version
        np.testing.assert_array_equal(
            loaded.vicinity_sizes[1], index.export_sizes()[1]
        )

    def test_commit_leaves_no_temp_dirs_and_a_framed_manifest(self, tmp_path):
        store = CheckpointStore(tmp_path / "store", fsync=False)
        info = checkpoint_now(store, fresh_graph(), _EmptyWal())
        entries = os.listdir(store.root)
        assert not any(entry.startswith("tmp-") for entry in entries)
        with open(os.path.join(info.path, MANIFEST_NAME), "rb") as handle:
            assert _unframe(handle.read().rstrip(b"\n")) is not None

    def test_sequence_numbers_order_within_an_epoch(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        wal = _EmptyWal()
        first = checkpoint_now(store, graph, wal)
        second = checkpoint_now(store, graph, wal)
        assert first.name.endswith("-0000")
        assert second.name.endswith("-0001")
        # Newest first: same epoch, higher sequence wins.
        assert store.list_checkpoints() == [second.name, first.name]

    def test_crashed_temp_dir_is_cleaned_on_open(self, tmp_path):
        root = tmp_path / "store"
        store = CheckpointStore(root, fsync=False)
        checkpoint_now(store, fresh_graph(), _EmptyWal())
        litter = root / "tmp-ckpt-000000000009-0000"
        litter.mkdir()
        (litter / "indptr.bin").write_bytes(b"half a segm")
        reopened = CheckpointStore(root, fsync=False)
        assert not (litter).exists()
        assert len(reopened.list_checkpoints()) == 1


class _EmptyWal:
    """Stand-in WAL coordinates for store-only tests."""

    total_batches = 0
    committed_offset = 0


def _corrupt_byte(path, offset=4):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestValidationLadder:
    @pytest.fixture()
    def store_with_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path / "store", fsync=False)
        info = checkpoint_now(store, fresh_graph(), _EmptyWal())
        return store, info

    def test_manifest_corruption_is_detected(self, store_with_checkpoint, tmp_path):
        store, info = store_with_checkpoint
        _corrupt_byte(tmp_path / "store" / info.name / MANIFEST_NAME, offset=12)
        with pytest.raises(CheckpointCorruptError, match="manifest"):
            store.load(info.name)

    def test_missing_segment_is_detected(self, store_with_checkpoint, tmp_path):
        store, info = store_with_checkpoint
        os.remove(tmp_path / "store" / info.name / "indices.bin")
        with pytest.raises(CheckpointCorruptError, match="indices.*missing"):
            store.load(info.name)

    def test_segment_bit_flip_is_detected(self, store_with_checkpoint, tmp_path):
        store, info = store_with_checkpoint
        _corrupt_byte(tmp_path / "store" / info.name / "event_nodes.bin")
        with pytest.raises(CheckpointCorruptError, match="CRC mismatch"):
            store.load(info.name)

    def test_truncated_segment_is_detected(self, store_with_checkpoint, tmp_path):
        store, info = store_with_checkpoint
        path = tmp_path / "store" / info.name / "indptr.bin"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointCorruptError, match="bytes"):
            store.load(info.name)

    def test_inconsistent_geometry_is_detected(self, store_with_checkpoint, tmp_path):
        # Every segment passes its CRC but the manifest describes a graph
        # one node larger: the cross-segment rung must still reject it.
        store, info = store_with_checkpoint
        path = tmp_path / "store" / info.name / MANIFEST_NAME
        manifest = _unframe(path.read_bytes().rstrip(b"\n"))
        manifest["num_nodes"] += 1
        path.write_bytes(_frame(manifest))
        with pytest.raises(CheckpointCorruptError, match="indptr"):
            store.load(info.name)

    def test_newest_corrupt_falls_back_and_quarantines(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        older = checkpoint_now(store, graph, _EmptyWal())
        graph.apply([Delta.event_attach("a", 10)])
        newer = checkpoint_now(store, graph, _EmptyWal())
        _corrupt_byte(tmp_path / "store" / newer.name / "indptr.bin")

        loaded, rejections = store.load_newest_valid()
        assert loaded.info.name == older.name
        assert [name for name, _reason in rejections] == [newer.name]
        # The corrupt directory moved aside with its reason on record.
        quarantined = tmp_path / "store" / QUARANTINE_DIR / newer.name
        assert quarantined.is_dir()
        assert "CRC mismatch" in (quarantined / "REASON").read_text()
        assert store.list_checkpoints() == [older.name]

    def test_config_mismatch_skips_without_quarantine(self, store_with_checkpoint, tmp_path):
        store, info = store_with_checkpoint
        loaded, rejections = store.load_newest_valid(config_digest="other")
        assert loaded is None
        assert rejections and "config digest" in rejections[0][1]
        # Sound data for another deployment: stays in place.
        assert store.list_checkpoints() == [info.name]
        assert not os.listdir(tmp_path / "store" / QUARANTINE_DIR)

    def test_graph_size_mismatch_skips_without_quarantine(self, store_with_checkpoint):
        store, info = store_with_checkpoint
        loaded, rejections = store.load_newest_valid(num_nodes=999)
        assert loaded is None
        assert rejections and "999" in rejections[0][1]
        assert store.list_checkpoints() == [info.name]


class TestFsyncFaultSeam:
    def test_fault_discards_temp_and_keeps_previous_authoritative(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        first = checkpoint_now(store, graph, _EmptyWal())
        with faults.armed(
            faults.FaultRule(faults.CHECKPOINT_FSYNC, action="error", at=1,
                             message="power cut")
        ):
            with pytest.raises(OSError, match="power cut"):
                checkpoint_now(store, graph, _EmptyWal())
        assert store.list_checkpoints() == [first.name]
        assert not any(
            entry.startswith("tmp-") for entry in os.listdir(store.root)
        )
        store.load(first.name)  # still fully valid
        # And the store keeps working once the fault passes.
        second = checkpoint_now(store, graph, _EmptyWal())
        assert store.list_checkpoints() == [second.name, first.name]

    def test_fault_just_before_rename_commits_nothing(self, tmp_path):
        # fsync order: 4 segments, manifest, temp dir (=6th), rename,
        # store root (=7th).  Dying on the 6th is the pre-rename crash.
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with faults.armed(
            faults.FaultRule(faults.CHECKPOINT_FSYNC, action="error", at=6)
        ):
            with pytest.raises(OSError):
                checkpoint_now(store, fresh_graph(), _EmptyWal())
        assert store.list_checkpoints() == []

    def test_fault_after_rename_still_leaves_a_valid_checkpoint(self, tmp_path):
        # The 7th fsync (store root) happens after the atomic rename: the
        # writer reports failure, but the checkpoint itself is committed
        # and must validate — exactly the post-rename crash window.
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with faults.armed(
            faults.FaultRule(faults.CHECKPOINT_FSYNC, action="error", at=7)
        ):
            with pytest.raises(OSError):
                checkpoint_now(store, fresh_graph(), _EmptyWal())
        names = store.list_checkpoints()
        assert len(names) == 1
        store.load(names[0])


class TestPrune:
    def test_prune_keeps_the_newest(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", retain=2, fsync=False)
        names = []
        for step in range(4):
            graph.apply([Delta.event_attach("a", 11 + step)])
            names.append(checkpoint_now(store, graph, _EmptyWal()).name)
        removed = store.prune()
        assert sorted(removed) == sorted(names[:2])
        assert store.list_checkpoints() == [names[3], names[2]]
        # retain is floored at one: pruning can never delete everything.
        store.prune(retain=0)
        assert store.list_checkpoints() == [names[3]]


class TestRecoveryLadder:
    def test_fresh_start_with_nothing_on_disk(self, tmp_path):
        graph = fresh_graph()
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            report = recover(graph, wal)
        assert report.path == "fresh"
        assert report.replayed_batches == 0

    def test_full_replay_without_a_checkpoint(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            for node in (10, 11, 12):
                commit(graph, wal, Delta.event_attach("b", node))
        rebooted = fresh_graph()
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            report = recover(rebooted, wal, store=store)
        assert report.path == "full_replay"
        assert report.replayed_batches == 3
        assert rebooted.versions() == graph.versions()

    def test_checkpoint_bounds_the_tail(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            for node in range(10, 16):
                commit(graph, wal, Delta.event_attach("a", node))
            info = checkpoint_now(store, graph, wal)
            assert wal.compact(info.wal_offset) > 0
            for u, v in ((0, 9), (1, 8), (2, 7)):
                commit(graph, wal, Delta.edge_add(u, v))

        rebooted = fresh_graph()
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            report = recover(rebooted, wal, store=store, config_digest="cfg")
        assert report.path == "checkpoint"
        assert report.checkpoint == info.name
        # The recovery bound: only the 3 batches past coverage replay.
        assert report.replayed_batches == 3
        assert rebooted.versions() == graph.versions()
        assert rebooted.epoch == graph.epoch
        np.testing.assert_array_equal(
            rebooted.csr.indptr, graph.csr.indptr
        )
        np.testing.assert_array_equal(
            rebooted.csr.indices, graph.csr.indices
        )

    def test_fallback_path_after_quarantine(self, tmp_path):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            commit(graph, wal, Delta.event_attach("a", 10))
            older = checkpoint_now(store, graph, wal)
            commit(graph, wal, Delta.event_attach("a", 11))
            newer = checkpoint_now(store, graph, wal)
        _corrupt_byte(tmp_path / "store" / newer.name / "indices.bin")

        rebooted = fresh_graph()
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            report = recover(rebooted, wal, store=store, config_digest="cfg")
        assert report.path == "fallback"
        assert report.checkpoint == older.name
        assert report.replayed_batches == 1  # just the batch past `older`
        assert report.rejected and newer.name == report.rejected[0][0]
        assert rebooted.versions() == graph.versions()

    def test_fallback_rejects_checkpoint_that_cannot_bridge_compaction(
        self, tmp_path, caplog
    ):
        # Checkpoint A covers batch 1, checkpoint B covers batches 1-3, the
        # WAL is compacted to B's coverage, then B corrupts on disk.  A
        # cannot bridge batches 2-3 (compacted away), so restoring it plus
        # the surviving tail would silently diverge from true state: it
        # must be rejected and boot must take the loud tail-only path.
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            commit(graph, wal, Delta.event_attach("a", 10))
            older = checkpoint_now(store, graph, wal)
            commit(graph, wal, Delta.event_attach("a", 11))
            commit(graph, wal, Delta.event_attach("a", 12))
            newer = checkpoint_now(store, graph, wal)
            assert wal.compact(wal.committed_offset) > 0
            commit(graph, wal, Delta.event_attach("a", 13))
        _corrupt_byte(tmp_path / "store" / newer.name / "indices.bin")

        rebooted = fresh_graph()
        with caplog.at_level("ERROR", logger="repro.storage.recovery"):
            with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
                report = recover(rebooted, wal, store=store,
                                 config_digest="cfg")
        assert report.path == "full_replay"
        assert report.checkpoint is None
        assert report.replayed_batches == 1  # the surviving tail, loudly
        reasons = dict(report.rejected)
        assert "cannot bridge" in reasons[older.name]
        assert any("compacted" in record.message for record in caplog.records)

    def test_fallback_after_bounded_compaction_still_bridges(self, tmp_path):
        # The engine compacts only up to the oldest *retained* checkpoint's
        # coverage; under that bound a corrupt newest checkpoint still
        # leaves a usable fallback that replays to the exact same state.
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            commit(graph, wal, Delta.event_attach("a", 10))
            older = checkpoint_now(store, graph, wal)
            commit(graph, wal, Delta.event_attach("a", 11))
            newer = checkpoint_now(store, graph, wal)
            floor = store.retained_coverage()
            assert floor == older.wal_batches == 1
            assert wal.compact(wal.offset_of_total(floor)) > 0
        _corrupt_byte(tmp_path / "store" / newer.name / "indices.bin")

        rebooted = fresh_graph()
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            report = recover(rebooted, wal, store=store, config_digest="cfg")
        assert report.path == "fallback"
        assert report.checkpoint == older.name
        assert report.replayed_batches == 1
        assert rebooted.versions() == graph.versions()
        np.testing.assert_array_equal(rebooted.csr.indices, graph.csr.indices)

    def test_compacted_wal_with_no_checkpoint_still_starts(self, tmp_path, caplog):
        graph = fresh_graph()
        store = CheckpointStore(tmp_path / "store", fsync=False)
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            for node in (10, 11, 12):
                commit(graph, wal, Delta.event_attach("a", node))
            info = checkpoint_now(store, graph, wal)
            wal.compact(info.wal_offset)
            commit(graph, wal, Delta.event_attach("b", 13))
        store.quarantine(info.name, "operator removed it")

        rebooted = fresh_graph()
        with caplog.at_level("ERROR", logger="repro.storage.recovery"):
            with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
                report = recover(rebooted, wal, store=store)
        # Never refuse to start: the surviving tail replays, loudly.
        assert report.path == "full_replay"
        assert report.replayed_batches == 1
        assert any("compacted" in record.message for record in caplog.records)
