"""Crash-consistent checkpoints: every kill phase recovers bit-identically.

The acceptance bar mirrors the WAL chaos suite: whatever phase of the
checkpoint commit a crash lands in — mid-temp-write, pre-rename,
post-rename-but-pre-compact, or an injected fsync failure at *every* fsync
site — a cold boot must produce exactly the ranking a full from-scratch WAL
replay produces, and must replay only the batches past the checkpoint's
coverage when one survives.
"""

import os
import shutil

import pytest

from repro.service import faults
from repro.service.engine import ServiceEngine, pair_record
from repro.service.protocol import UnavailableError
from repro.storage.checkpoint import CheckpointStore, digest_string
from repro.storage.recovery import recover
from repro.streaming.delta import Delta, DeltaBatch, WriteAheadLog

TAIL = 3  # batches committed after the checkpoint — the recovery bound


def _digest(config):
    return digest_string(ServiceEngine._config_digest(config, persistent=True))


def _mutation(events, num_nodes, step):
    """A deterministic, idempotence-free delta for commit ``step``."""
    if step % 3 == 2:
        u = (5 * step) % num_nodes
        v = (5 * step + num_nodes // 2) % num_nodes
        return Delta.edge_add(u, v) if u != v else Delta.edge_add(u, v + 1)
    return Delta.event_attach(events[step % len(events)], (7 * step) % num_nodes)


def _commit(graph, wal, events, step):
    batch = DeltaBatch(deltas=(_mutation(events, graph.num_nodes, step),))
    wal.append_batch(batch)
    graph.apply(batch)


def _ranking(graph, config):
    engine = ServiceEngine(graph, config, workers=1)
    try:
        return [pair_record(p) for p in engine.reference_ranking("all", top_k=5)]
    finally:
        engine.close()


def _full_replay_ranking(make_dynamic_graph, config, wal_path):
    """The oracle: a fresh graph with every WAL batch replayed serially."""
    graph = make_dynamic_graph()
    wal = WriteAheadLog(wal_path, fsync=False)
    try:
        for batch in wal.batches:
            graph.apply(batch)
    finally:
        wal.close()
    return graph, _ranking(graph, config)


def _boot(make_dynamic_graph, config, wal_path, store_root):
    """One cold start through the real recovery ladder."""
    graph = make_dynamic_graph()
    store = CheckpointStore(store_root, fsync=False)
    wal = WriteAheadLog(wal_path, fsync=False)
    try:
        report = recover(graph, wal, store=store, config_digest=_digest(config))
    finally:
        wal.close()
    return graph, report


def _seed(make_dynamic_graph, config, tmp_path, checkpointed=5, tail=TAIL,
          compact=False):
    """Commit ``checkpointed`` batches, cut a checkpoint, commit ``tail``
    more.  ``compact=False`` leaves the WAL un-truncated — exactly the
    state after a kill -9 between the rename and the compaction call."""
    wal_path = os.fspath(tmp_path / "wal.log")
    store_root = os.fspath(tmp_path / "store")
    graph = make_dynamic_graph()
    events = graph.event_names()
    store = CheckpointStore(store_root, fsync=False)
    with WriteAheadLog(wal_path, fsync=False) as wal:
        for step in range(checkpointed):
            _commit(graph, wal, events, step)
        info = store.write(
            graph.snapshot().checkpoint_state(),
            config_digest=_digest(config),
            wal_batches=wal.total_batches,
            wal_offset=wal.committed_offset,
        )
        if compact:
            wal.compact(info.wal_offset)
        for step in range(checkpointed, checkpointed + tail):
            _commit(graph, wal, events, step)
    return wal_path, store_root, info


class TestKillPhases:
    def test_kill_mid_temp_write(self, make_dynamic_graph, chaos_dataset,
                                 tmp_path):
        """Half-written segment files in a tmp- dir: swept, older checkpoint
        still authoritative, state bit-identical to full replay."""
        _dataset, config = chaos_dataset
        wal_path, store_root, info = _seed(make_dynamic_graph, config, tmp_path)
        litter = os.path.join(store_root, "tmp-ckpt-000000000099-0000")
        os.makedirs(litter)
        with open(os.path.join(litter, "indices.bin"), "wb") as handle:
            handle.write(b"\x01\x02\x03 torn mid-write")

        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        assert report.path == "checkpoint"
        assert report.checkpoint == info.name
        assert report.replayed_batches == TAIL
        assert not os.path.exists(litter)
        _oracle, expected = _full_replay_ranking(make_dynamic_graph, config,
                                                 wal_path)
        assert _ranking(recovered, config) == expected

    def test_kill_pre_rename(self, make_dynamic_graph, chaos_dataset, tmp_path):
        """A COMPLETE but never-renamed temp checkpoint: it must be ignored
        (rename is the commit point) and the boot falls through to full
        replay — still bit-identical."""
        _dataset, config = chaos_dataset
        wal_path, store_root, info = _seed(make_dynamic_graph, config, tmp_path)
        # Demote the committed checkpoint back to its pre-rename temp name:
        # on disk this is indistinguishable from a kill between the last
        # fsync and the rename.
        os.rename(os.path.join(store_root, info.name),
                  os.path.join(store_root, "tmp-" + info.name))

        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        assert report.path == "full_replay"
        assert report.checkpoint is None
        assert report.replayed_batches == 5 + TAIL
        assert CheckpointStore(store_root, fsync=False).list_checkpoints() == []
        _oracle, expected = _full_replay_ranking(make_dynamic_graph, config,
                                                 wal_path)
        assert _ranking(recovered, config) == expected

    def test_kill_post_rename_pre_compact(self, make_dynamic_graph,
                                          chaos_dataset, tmp_path):
        """Checkpoint committed, WAL never compacted: the tail must be
        selected by *total* batch index, so exactly TAIL batches replay and
        the covered prefix is not double-applied."""
        _dataset, config = chaos_dataset
        wal_path, store_root, info = _seed(make_dynamic_graph, config, tmp_path,
                                           compact=False)
        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        assert report.path == "checkpoint"
        assert report.replayed_batches == TAIL
        oracle, expected = _full_replay_ranking(make_dynamic_graph, config,
                                                wal_path)
        assert recovered.versions() == oracle.versions()
        assert _ranking(recovered, config) == expected

        # Finishing the interrupted compaction must not change anything:
        # same tail count, same answer, on the now-truncated log.
        with WriteAheadLog(wal_path, fsync=False) as wal:
            assert wal.compact(info.wal_offset) > 0
        again, report2 = _boot(make_dynamic_graph, config, wal_path, store_root)
        assert report2.path == "checkpoint"
        assert report2.replayed_batches == TAIL
        assert _ranking(again, config) == expected


class TestFsyncFaultPhases:
    #: fsync order inside CheckpointStore.write — 4 segment files, the
    #: manifest, the temp directory (pre-rename), the store root (post-
    #: rename).  Arming the seam at each index kills a different phase.
    PHASES = range(1, 8)

    @pytest.mark.parametrize("at", PHASES)
    def test_fault_at_every_fsync_recovers_bit_identical(
        self, at, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        _dataset, config = chaos_dataset
        wal_path = os.fspath(tmp_path / "wal.log")
        store_root = os.fspath(tmp_path / "store")
        graph = make_dynamic_graph()
        events = graph.event_names()
        engine = ServiceEngine(graph, config, workers=1, wal=wal_path,
                               store=store_root)
        try:
            for step in range(5):
                record = _mutation(events, graph.num_nodes, step)
                engine.commit([record.to_record()])
            with faults.armed(
                faults.FaultRule(faults.CHECKPOINT_FSYNC, action="error",
                                 at=at, message=f"fsync died (site {at})")
            ):
                with pytest.raises(UnavailableError):
                    engine.checkpoint(force=True)
            assert engine._m_checkpoint_failures.value == 1
            for step in range(5, 5 + TAIL):
                record = _mutation(events, graph.num_nodes, step)
                engine.commit([record.to_record()])
        finally:
            engine.close()

        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        if at == 7:
            # The store-root fsync runs after the atomic rename: the writer
            # reported failure but the checkpoint itself committed.
            assert report.path == "checkpoint"
            assert report.replayed_batches == TAIL
        else:
            assert report.path == "full_replay"
            assert report.replayed_batches == 5 + TAIL
        _oracle, expected = _full_replay_ranking(make_dynamic_graph, config,
                                                 wal_path)
        assert _ranking(recovered, config) == expected
        # Never any half-written litter left behind.
        assert not [
            entry for entry in os.listdir(store_root)
            if entry.startswith("tmp-")
        ]


class TestEngineCheckpointing:
    def test_checkpoint_compacts_and_bounds_the_next_boot(
        self, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        """The happy path end to end at the engine level: checkpoint +
        compaction, then a reboot that replays only the tail."""
        _dataset, config = chaos_dataset
        wal_path = os.fspath(tmp_path / "wal.log")
        store_root = os.fspath(tmp_path / "store")
        graph = make_dynamic_graph()
        events = graph.event_names()
        engine = ServiceEngine(graph, config, workers=1, wal=wal_path,
                               store=store_root)
        try:
            for step in range(5):
                engine.commit([_mutation(events, graph.num_nodes,
                                         step).to_record()])
            result = engine.checkpoint()
            assert not result["skipped"]
            assert result["wal_batches"] == 5
            assert result["reclaimed_bytes"] > 0
            # Same epoch again: deduplicated unless forced.
            assert engine.checkpoint()["skipped"]
            assert not engine.checkpoint(force=True)["skipped"]
            for step in range(5, 5 + TAIL):
                engine.commit([_mutation(events, graph.num_nodes,
                                         step).to_record()])
            assert engine._m_checkpoints.value == 2
        finally:
            engine.close()
        # The WAL was compacted, so a fresh replay of what is left on disk
        # is NOT full history — the oracle is the live pre-kill graph.
        expected = _ranking(graph, config)

        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        assert report.path == "checkpoint"
        assert report.replayed_batches == TAIL
        assert recovered.versions() == graph.versions()
        assert _ranking(recovered, config) == expected

    def test_compaction_keeps_retained_fallbacks_replayable(
        self, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        """Two engine checkpoints at different epochs, newest corrupts on
        disk: compaction is bounded by the oldest retained checkpoint's
        coverage, so the fallback still bridges to the surviving tail and
        the reboot is bit-identical to the live pre-kill graph."""
        _dataset, config = chaos_dataset
        wal_path = os.fspath(tmp_path / "wal.log")
        store_root = os.fspath(tmp_path / "store")
        graph = make_dynamic_graph()
        events = graph.event_names()
        engine = ServiceEngine(graph, config, workers=1, wal=wal_path,
                               store=store_root)
        try:
            for step in range(5):
                engine.commit([_mutation(events, graph.num_nodes,
                                         step).to_record()])
            first = engine.checkpoint()
            for step in range(5, 8):
                engine.commit([_mutation(events, graph.num_nodes,
                                         step).to_record()])
            second = engine.checkpoint()
            # The second compaction stops at the FIRST checkpoint's
            # coverage (5 batches, already compacted), not its own (8).
            assert second["wal_batches"] == 8
            assert second["reclaimed_bytes"] == 0
            for step in range(8, 8 + TAIL):
                engine.commit([_mutation(events, graph.num_nodes,
                                         step).to_record()])
        finally:
            engine.close()
        expected = _ranking(graph, config)

        # Corrupt the newest checkpoint: recovery must fall back to the
        # first one and replay batches 6..11 from the surviving tail.
        newest = os.path.join(store_root, second["checkpoint"])
        with open(os.path.join(newest, "indices.bin"), "r+b") as handle:
            handle.seek(4)
            byte = handle.read(1)
            handle.seek(4)
            handle.write(bytes([byte[0] ^ 0xFF]))

        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        assert report.path == "fallback"
        assert report.checkpoint == first["checkpoint"]
        assert report.replayed_batches == 3 + TAIL
        assert recovered.versions() == graph.versions()
        assert _ranking(recovered, config) == expected

    def test_checkpoint_retries_when_a_commit_races_the_prebuild(
        self, make_dynamic_graph, chaos_dataset, tmp_path, monkeypatch
    ):
        """A commit landing between the outside-the-lock snapshot prebuild
        and the commit-lock acquisition must not be checkpointed against
        stale state: the engine drops the stale lease and re-pins."""
        _dataset, config = chaos_dataset
        graph = make_dynamic_graph()
        events = graph.event_names()
        engine = ServiceEngine(graph, config, workers=1,
                               wal=os.fspath(tmp_path / "wal.log"),
                               store=os.fspath(tmp_path / "store"))
        try:
            engine.commit([_mutation(events, graph.num_nodes, 0).to_record()])
            real_pin = graph.pin
            raced = {"done": False}

            def racing_pin(epoch=None):
                lease = real_pin(epoch)
                if not raced["done"]:
                    # Slip one mutation in right after the prebuild, before
                    # checkpoint() can take the commit lock.
                    raced["done"] = True
                    graph.apply([_mutation(events, graph.num_nodes, 1)])
                return lease

            monkeypatch.setattr(graph, "pin", racing_pin)
            result = engine.checkpoint(force=True)
            assert not result["skipped"]
            # The cut checkpoint belongs to the post-race epoch, not the
            # stale prebuilt one.
            assert result["epoch"] == graph.epoch
        finally:
            engine.close()

    def test_generator_seed_digest_survives_a_restart(
        self, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        """A non-int random_state (np.random.Generator) must not poison the
        persisted config digest with a process-specific id(): the reboot —
        which constructs its own Generator object — still accepts the
        checkpoint instead of silently falling back to full replay."""
        import numpy as np

        _dataset, base = chaos_dataset
        config = base.with_random_state(np.random.default_rng(17))
        wal_path = os.fspath(tmp_path / "wal.log")
        store_root = os.fspath(tmp_path / "store")
        graph = make_dynamic_graph()
        events = graph.event_names()
        engine = ServiceEngine(graph, config, workers=1, wal=wal_path,
                               store=store_root)
        try:
            for step in range(5):
                engine.commit([_mutation(events, graph.num_nodes,
                                         step).to_record()])
            assert not engine.checkpoint()["skipped"]
        finally:
            engine.close()

        rebooted_config = base.with_random_state(np.random.default_rng(17))
        recovered, report = _boot(make_dynamic_graph, rebooted_config,
                                  wal_path, store_root)
        assert report.path == "checkpoint"
        assert report.replayed_batches == 0
        assert recovered.versions() == graph.versions()
        # In-process memo keys still distinguish distinct generator objects.
        assert (
            ServiceEngine._config_digest(config)
            != ServiceEngine._config_digest(rebooted_config)
        )
        assert ServiceEngine._config_digest(
            config, persistent=True
        ) == ServiceEngine._config_digest(rebooted_config, persistent=True)

    def test_persisted_digests_are_pinned(self):
        """Checkpoint manifests written by earlier builds keep matching:
        these are the digests of two configs before TescConfig lost its
        kendall_kernel / kendall_crossover fields.  A changed digest would
        reject every existing checkpoint at boot."""
        from repro.core.config import TescConfig

        assert _digest(TescConfig()) == "6a0ef2f049bb61d5"
        assert _digest(
            TescConfig(vicinity_level=2, sample_size=8000, random_state=7)
        ) == "140f05ffa69e05c5"

    def test_config_digest_matches_the_asdict_tuple(self):
        """The digest reads fields without deep-copying them and equals the
        tuple the asdict-based digest built, in process and persisted."""
        from dataclasses import asdict, fields

        import numpy as np

        from repro.core.config import TescConfig
        from repro.sampling.registry import sampler_key

        def asdict_digest(config, persistent):
            items = asdict(config)
            items.pop("random_state")
            items.update(
                kendall_crossover=None, kendall_kernel="auto",
                topk_confidence=0.995, topk_bound="asymptotic",
            )
            seed = config.random_state
            if persistent and not (seed is None or isinstance(seed, int)):
                token = "unseeded-object"
            else:
                token = sampler_key(config)[-1]
            return tuple(sorted(items.items())) + (("random_state", token),)

        configs = [
            TescConfig(),
            TescConfig(
                vicinity_level=2, sample_size=123, sampler="exhaustive",
                alpha=0.01, alternative="greater", batch_per_vicinity=3,
                topk_initial_sample_size=17, topk_growth_factor=3.5,
                random_state=9,
            ),
            TescConfig(random_state=np.random.default_rng(4)),
        ]
        assert all(
            getattr(configs[1], field.name) != field.default
            for field in fields(TescConfig)
        )
        for config in configs:
            for persistent in (False, True):
                assert ServiceEngine._config_digest(
                    config, persistent=persistent
                ) == asdict_digest(config, persistent)

    def test_recovery_at_checkpoint_skips_the_duplicate(
        self, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        """Booting exactly at a checkpoint (no tail) must not immediately
        cut an identical one: record_recovery pins the checkpointed epoch."""
        _dataset, config = chaos_dataset
        wal_path, store_root, _info = _seed(make_dynamic_graph, config,
                                            tmp_path, tail=0, compact=True)
        recovered, report = _boot(make_dynamic_graph, config, wal_path,
                                  store_root)
        assert report.replayed_batches == 0
        engine = ServiceEngine(recovered, config, workers=1, wal=wal_path,
                               store=store_root)
        try:
            engine.record_recovery(report)
            assert engine.checkpoint()["skipped"]
            events = recovered.event_names()
            engine.commit([_mutation(events, recovered.num_nodes,
                                     99).to_record()])
            assert not engine.checkpoint()["skipped"]
        finally:
            engine.close()
