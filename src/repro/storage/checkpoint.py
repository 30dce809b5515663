"""Atomically-written, CRC-checksummed checkpoints of engine state.

A checkpoint is a directory under the store root::

    store/
        ckpt-000000000042-0003/
            MANIFEST            # one CRC32-prefixed JSON line
            indptr.bin          # raw little-endian int64 CSR row pointers
            indices.bin         # raw int64 CSR adjacency
            event_nodes.bin     # all events' sorted node ids, concatenated
            event_offsets.bin   # int64 prefix offsets into event_nodes
            vicinity_l2.bin     # one |V^h_v| column per indexed level
        tmp-ckpt-...            # half-written checkpoint (ignored, cleaned)
        quarantine/             # corrupt checkpoints moved aside with REASON

The directory name encodes ``(epoch, sequence)`` so lexicographic order is
recovery order.  Commit is write-to-temp + fsync every file + fsync the temp
directory + atomic ``os.rename`` + fsync the store root: a crash at any
point leaves either no new checkpoint or a complete one, never a torn one.
The manifest records every segment's dtype, shape, byte length, and CRC32,
plus the WAL coverage (``wal_batches`` — the *total* batch count, stable
across compaction — and the byte offset) and the config digest, so the
loader can reject anything inconsistent before handing state to the engine.

Every fsync runs the :data:`repro.service.faults.CHECKPOINT_FSYNC` seam
first, so chaos tests can fail a checkpoint at any phase; on error the temp
directory is discarded and the previous checkpoint stays authoritative.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import shutil
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.streaming.delta import frame_record, unframe_record

logger = logging.getLogger(__name__)

#: On-disk format version; bumped on any incompatible layout change.
FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST"
QUARANTINE_DIR = "quarantine"
_TMP_PREFIX = "tmp-"
_NAME_RE = re.compile(r"^ckpt-(\d{12})-(\d{4})$")


class CheckpointCorruptError(ReproError):
    """A checkpoint failed validation (bad CRC, missing segment, ...)."""


def digest_string(obj: object) -> str:
    """A short stable digest of any repr-able config object.

    The engine's config-digest tuple goes through here so the manifest can
    carry a compact string; two configs match iff their digests match.
    """
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CheckpointInfo:
    """Manifest summary of one checkpoint."""

    name: str
    path: str
    epoch: int
    structure_version: int
    events_version: int
    config_digest: str
    wal_batches: int
    wal_offset: int
    num_nodes: int
    num_edges: int
    nbytes: int


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A fully validated checkpoint's deserialised state."""

    info: CheckpointInfo
    indptr: np.ndarray
    indices: np.ndarray
    events: Dict[str, List[int]]
    labels: Optional[List[str]]
    vicinity_sizes: Dict[int, np.ndarray]


class CheckpointStore:
    """Directory of atomically-committed engine-state checkpoints.

    Parameters
    ----------
    root:
        The store directory (created if missing).
    retain:
        How many valid checkpoints :meth:`prune` keeps (newest first).
    fsync:
        Disable to speed tests up; production boots must keep it on or the
        atomic-rename crash guarantee is void.
    """

    def __init__(self, root: str, retain: int = 2, fsync: bool = True) -> None:
        self.root = os.fspath(root)
        self.retain = max(1, int(retain))
        self.fsync_enabled = bool(fsync)
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(os.path.join(self.root, QUARANTINE_DIR), exist_ok=True)
        self._clean_temp()

    # -- write side ----------------------------------------------------------

    def write(
        self,
        state: Mapping[str, object],
        *,
        config_digest: str,
        wal_batches: int,
        wal_offset: int,
        vicinity_sizes: Optional[Mapping[int, np.ndarray]] = None,
    ) -> CheckpointInfo:
        """Atomically commit one checkpoint of ``state``.

        ``state`` is a :meth:`~repro.streaming.snapshots.GraphSnapshot.
        checkpoint_state` mapping; ``wal_batches`` is the WAL's *total*
        committed batch count at the pinned epoch and ``wal_offset`` the
        matching byte boundary (used for the post-checkpoint compaction
        call).  Raises ``OSError`` (with the temp directory discarded) when
        any write or fsync fails — the previous checkpoint stays newest.
        """
        epoch = int(state["epoch"])
        name = f"ckpt-{epoch:012d}-{self._next_seq(epoch):04d}"
        final = os.path.join(self.root, name)
        temp = os.path.join(self.root, _TMP_PREFIX + name)
        if os.path.exists(temp):
            shutil.rmtree(temp)
        os.makedirs(temp)

        indptr = np.ascontiguousarray(state["indptr"], dtype=np.int64)
        indices = np.ascontiguousarray(state["indices"], dtype=np.int64)
        events: Mapping[str, Sequence[int]] = state["events"]  # type: ignore[assignment]
        event_names = sorted(events)
        event_offsets = np.zeros(len(event_names) + 1, dtype=np.int64)
        chunks = []
        for index, event in enumerate(event_names):
            nodes = np.asarray(list(events[event]), dtype=np.int64)
            event_offsets[index + 1] = event_offsets[index] + nodes.size
            chunks.append(nodes)
        event_nodes = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        )

        arrays: Dict[str, np.ndarray] = {
            "indptr": indptr,
            "indices": indices,
            "event_nodes": event_nodes,
            "event_offsets": event_offsets,
        }
        levels: List[int] = []
        for level, column in sorted((vicinity_sizes or {}).items()):
            levels.append(int(level))
            arrays[f"vicinity_l{int(level)}"] = np.ascontiguousarray(
                column, dtype=np.int64
            )

        try:
            segments: Dict[str, dict] = {}
            total = 0
            for seg_name, array in arrays.items():
                raw = array.tobytes()
                seg_file = seg_name + ".bin"
                self._write_file(os.path.join(temp, seg_file), raw, name)
                segments[seg_name] = {
                    "file": seg_file,
                    "dtype": str(array.dtype),
                    "shape": list(array.shape),
                    "nbytes": len(raw),
                    "crc32": zlib.crc32(raw),
                }
                total += len(raw)
            labels = state.get("labels")
            manifest = {
                "format": FORMAT_VERSION,
                "epoch": epoch,
                "structure_version": int(state["structure_version"]),
                "events_version": int(state["events_version"]),
                "config_digest": str(config_digest),
                "wal_batches": int(wal_batches),
                "wal_offset": int(wal_offset),
                "num_nodes": int(indptr.size - 1),
                "num_edges": int(indices.size // 2),
                "event_names": event_names,
                "labels": list(labels) if labels is not None else None,
                "vicinity_levels": levels,
                "segments": segments,
            }
            self._write_file(
                os.path.join(temp, MANIFEST_NAME), frame_record(manifest), name
            )
            self._fsync_dir(temp, name)
            os.rename(temp, final)
            self._fsync_dir(self.root, name)
        except BaseException:
            shutil.rmtree(temp, ignore_errors=True)
            raise
        return CheckpointInfo(
            name=name,
            path=final,
            epoch=epoch,
            structure_version=int(state["structure_version"]),
            events_version=int(state["events_version"]),
            config_digest=str(config_digest),
            wal_batches=int(wal_batches),
            wal_offset=int(wal_offset),
            num_nodes=int(indptr.size - 1),
            num_edges=int(indices.size // 2),
            nbytes=total,
        )

    def _write_file(self, path: str, data: bytes, checkpoint: str) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            self._fsync(handle.fileno(), path, checkpoint)

    def _fsync(self, fd: int, path: str, checkpoint: str) -> None:
        # Lazy import: repro.storage must stay importable without pulling
        # the whole service package in at module load.
        from repro.service import faults

        rule = faults.inject(
            faults.CHECKPOINT_FSYNC, path=path, checkpoint=checkpoint
        )
        if rule is not None and rule.action == "error":
            raise OSError(rule.message)
        if self.fsync_enabled:
            os.fsync(fd)

    def _fsync_dir(self, path: str, checkpoint: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            self._fsync(fd, path, checkpoint)
        finally:
            os.close(fd)

    def _next_seq(self, epoch: int) -> int:
        highest = -1
        for name in self.list_checkpoints():
            match = _NAME_RE.match(name)
            if match and int(match.group(1)) == epoch:
                highest = max(highest, int(match.group(2)))
        return highest + 1

    def _clean_temp(self) -> None:
        """Remove half-written temp directories from a crashed writer."""
        for entry in os.listdir(self.root):
            if entry.startswith(_TMP_PREFIX):
                shutil.rmtree(os.path.join(self.root, entry), ignore_errors=True)

    # -- read side -----------------------------------------------------------

    def list_checkpoints(self) -> List[str]:
        """Committed checkpoint names, newest first."""
        names = [
            entry
            for entry in os.listdir(self.root)
            if _NAME_RE.match(entry)
            and os.path.isdir(os.path.join(self.root, entry))
        ]
        return sorted(names, reverse=True)

    def load(self, name: str) -> LoadedCheckpoint:
        """Validate and deserialise one checkpoint.

        Raises :class:`CheckpointCorruptError` naming the failure (manifest
        CRC, format version, missing segment, segment CRC/size, or an
        internally inconsistent version pair / array geometry).
        """
        path = os.path.join(self.root, name)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        try:
            with open(manifest_path, "rb") as handle:
                manifest = unframe_record(handle.read().rstrip(b"\n"))
        except OSError as error:
            raise CheckpointCorruptError(f"{name}: manifest unreadable: {error}")
        if manifest is None:
            raise CheckpointCorruptError(f"{name}: manifest CRC/parse failure")
        if manifest.get("format") != FORMAT_VERSION:
            raise CheckpointCorruptError(
                f"{name}: unsupported format {manifest.get('format')!r}"
            )

        arrays: Dict[str, np.ndarray] = {}
        segments = manifest.get("segments")
        if not isinstance(segments, dict):
            raise CheckpointCorruptError(f"{name}: manifest has no segment table")
        required = {"indptr", "indices", "event_nodes", "event_offsets"}
        required |= {
            f"vicinity_l{int(level)}"
            for level in manifest.get("vicinity_levels", [])
        }
        missing = required - set(segments)
        if missing:
            raise CheckpointCorruptError(
                f"{name}: manifest missing segments {sorted(missing)}"
            )
        for seg_name in sorted(required):
            meta = segments[seg_name]
            seg_path = os.path.join(path, meta["file"])
            try:
                with open(seg_path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                raise CheckpointCorruptError(
                    f"{name}: segment {seg_name!r} missing"
                )
            if len(raw) != int(meta["nbytes"]):
                raise CheckpointCorruptError(
                    f"{name}: segment {seg_name!r} is {len(raw)} bytes, "
                    f"manifest says {meta['nbytes']}"
                )
            if zlib.crc32(raw) != int(meta["crc32"]):
                raise CheckpointCorruptError(
                    f"{name}: segment {seg_name!r} CRC mismatch"
                )
            try:
                array = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]))
                array = array.reshape(meta["shape"]).copy()
            except (TypeError, ValueError) as error:
                raise CheckpointCorruptError(
                    f"{name}: segment {seg_name!r} undecodable: {error}"
                )
            arrays[seg_name] = array

        info = CheckpointInfo(
            name=name,
            path=path,
            epoch=int(manifest["epoch"]),
            structure_version=int(manifest["structure_version"]),
            events_version=int(manifest["events_version"]),
            config_digest=str(manifest["config_digest"]),
            wal_batches=int(manifest["wal_batches"]),
            wal_offset=int(manifest["wal_offset"]),
            num_nodes=int(manifest["num_nodes"]),
            num_edges=int(manifest["num_edges"]),
            nbytes=sum(int(meta["nbytes"]) for meta in segments.values()),
        )

        indptr, indices = arrays["indptr"], arrays["indices"]
        offsets = arrays["event_offsets"]
        event_names = manifest.get("event_names", [])
        # Cross-segment consistency — the "version-pair mismatch" rung of
        # the recovery ladder: every check here means the segments do not
        # describe one coherent state, even though each passed its CRC.
        if indptr.size != info.num_nodes + 1:
            raise CheckpointCorruptError(
                f"{name}: indptr has {indptr.size} entries for "
                f"{info.num_nodes} nodes"
            )
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise CheckpointCorruptError(
                f"{name}: indptr does not span indices "
                f"({indptr[-1] if indptr.size else '?'} != {indices.size})"
            )
        if offsets.size != len(event_names) + 1 or (
            offsets.size and offsets[-1] != arrays["event_nodes"].size
        ):
            raise CheckpointCorruptError(
                f"{name}: event offsets inconsistent with event segments"
            )
        for level in manifest.get("vicinity_levels", []):
            column = arrays[f"vicinity_l{int(level)}"]
            if column.size != info.num_nodes:
                raise CheckpointCorruptError(
                    f"{name}: vicinity level {level} column has "
                    f"{column.size} entries for {info.num_nodes} nodes"
                )

        event_nodes = arrays["event_nodes"]
        events = {
            event: event_nodes[offsets[index]:offsets[index + 1]].tolist()
            for index, event in enumerate(event_names)
        }
        vicinity = {
            int(level): arrays[f"vicinity_l{int(level)}"]
            for level in manifest.get("vicinity_levels", [])
        }
        labels = manifest.get("labels")
        return LoadedCheckpoint(
            info=info,
            indptr=indptr,
            indices=indices,
            events=events,
            labels=list(labels) if labels is not None else None,
            vicinity_sizes=vicinity,
        )

    def load_newest_valid(
        self,
        config_digest: Optional[str] = None,
        num_nodes: Optional[int] = None,
        min_wal_batches: Optional[int] = None,
    ) -> Tuple[Optional[LoadedCheckpoint], List[Tuple[str, str]]]:
        """Walk checkpoints newest-first and return the first valid one.

        Corrupt checkpoints are quarantined with their reason; checkpoints
        that are internally valid but belong to a different config or graph
        size are *skipped without quarantine* (they are sound data for some
        other deployment).  ``min_wal_batches`` — the WAL's compacted-away
        batch count — rejects (without quarantine) any checkpoint whose
        coverage ends before it: the batches between its coverage and the
        compaction point no longer exist, so restoring it plus the surviving
        tail would silently diverge from true state.  Returns
        ``(loaded_or_None, rejections)`` where rejections is
        ``[(name, reason), ...]`` in the order encountered.
        """
        rejections: List[Tuple[str, str]] = []
        for name in self.list_checkpoints():
            try:
                loaded = self.load(name)
            except CheckpointCorruptError as error:
                reason = str(error)
                self.quarantine(name, reason)
                rejections.append((name, reason))
                continue
            info = loaded.info
            if config_digest is not None and info.config_digest != config_digest:
                rejections.append(
                    (name, f"config digest {info.config_digest} does not "
                           f"match serving config {config_digest}")
                )
                continue
            if num_nodes is not None and info.num_nodes != num_nodes:
                rejections.append(
                    (name, f"covers {info.num_nodes} nodes, serving graph "
                           f"has {num_nodes}")
                )
                continue
            if min_wal_batches is not None and info.wal_batches < min_wal_batches:
                rejections.append(
                    (name, f"covers only {info.wal_batches} WAL batches but "
                           f"the log was compacted past batch "
                           f"{min_wal_batches}; the surviving tail cannot "
                           "bridge the gap")
                )
                continue
            return loaded, rejections
        return None, rejections

    def retained_coverage(self) -> Optional[int]:
        """The largest WAL coverage every retained checkpoint can bridge.

        The minimum ``wal_batches`` across the manifests of all listed
        checkpoints — the safe compaction bound: truncating the WAL past it
        would leave some retained checkpoint unable to reach the surviving
        tail, voiding it as a recovery fallback.  Checkpoints whose manifest
        does not parse are ignored (they can never restore, so they
        constrain nothing); returns ``None`` when no readable checkpoint
        exists.
        """
        floor: Optional[int] = None
        for name in self.list_checkpoints():
            try:
                path = os.path.join(self.root, name, MANIFEST_NAME)
                with open(path, "rb") as handle:
                    manifest = unframe_record(handle.read().rstrip(b"\n"))
            except OSError:
                continue
            if manifest is None:
                continue
            try:
                batches = int(manifest["wal_batches"])
            except (KeyError, TypeError, ValueError):
                continue
            floor = batches if floor is None else min(floor, batches)
        return floor

    def quarantine(self, name: str, reason: str) -> None:
        """Move a corrupt checkpoint aside, recording why."""
        source = os.path.join(self.root, name)
        target = os.path.join(self.root, QUARANTINE_DIR, name)
        logger.warning("quarantining checkpoint %s: %s", name, reason)
        if os.path.exists(target):
            shutil.rmtree(target)
        try:
            os.rename(source, target)
            with open(os.path.join(target, "REASON"), "w",
                      encoding="utf-8") as handle:
                handle.write(reason + "\n")
        except OSError:
            shutil.rmtree(source, ignore_errors=True)

    def prune(self, retain: Optional[int] = None) -> List[str]:
        """Delete all but the newest ``retain`` checkpoints; returns names."""
        keep = self.retain if retain is None else max(1, int(retain))
        removed = []
        for name in self.list_checkpoints()[keep:]:
            shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)
            removed.append(name)
        return removed

    def __repr__(self) -> str:
        return (
            f"CheckpointStore(root={self.root!r}, "
            f"checkpoints={len(self.list_checkpoints())})"
        )
