"""Delta model for dynamic attributed graphs.

A :class:`Delta` is one atomic mutation — an edge insert/delete or an event
attach/detach.  Deltas are grouped into :class:`DeltaBatch` units (one
commit's worth of changes) and accumulated in a :class:`DeltaLog`, which also
reads and writes the JSONL wire format replayed by ``tesc stream``:

.. code-block:: text

    {"op": "edge_add", "u": 3, "v": 17}
    {"op": "event_detach", "event": "wireless", "node": 9}
    {"op": "commit"}

Every ``commit`` line closes one batch; a trailing run of deltas without a
``commit`` forms a final implicit batch.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import EdgeError, EventError, NodeNotFoundError, ReproError


class DeltaError(ReproError):
    """A delta record was malformed or could not be parsed."""


#: Delta operation names.
EDGE_ADD = "edge_add"
EDGE_REMOVE = "edge_remove"
EVENT_ATTACH = "event_attach"
EVENT_DETACH = "event_detach"

EDGE_OPS = (EDGE_ADD, EDGE_REMOVE)
EVENT_OPS = (EVENT_ATTACH, EVENT_DETACH)

#: The batch-boundary marker in the JSONL wire format.
COMMIT_OP = "commit"

#: The compaction header of a write-ahead log whose covered prefix was
#: truncated by a checkpoint: ``{"op": "compact", "batches": N}`` as the
#: first record means N committed batches were dropped from the front of the
#: file (their state lives in a checkpoint).  Only valid as the first
#: record; anywhere else it is treated as corruption.
COMPACT_OP = "compact"


@dataclass(frozen=True)
class Delta:
    """One atomic graph or event-layer mutation.

    Edge deltas carry ``u``/``v`` (normalised so ``u < v``); event deltas
    carry ``event``/``node``.  Use the :meth:`edge_add` ... :meth:`event_detach`
    constructors rather than the raw initialiser.
    """

    op: str
    u: int = -1
    v: int = -1
    event: str = ""
    node: int = -1

    @classmethod
    def edge_add(cls, u: int, v: int) -> "Delta":
        """Insert the undirected edge ``(u, v)``."""
        u, v = int(u), int(v)
        return cls(op=EDGE_ADD, u=min(u, v), v=max(u, v))

    @classmethod
    def edge_remove(cls, u: int, v: int) -> "Delta":
        """Delete the undirected edge ``(u, v)``."""
        u, v = int(u), int(v)
        return cls(op=EDGE_REMOVE, u=min(u, v), v=max(u, v))

    @classmethod
    def event_attach(cls, event: str, node: int) -> "Delta":
        """Record an occurrence of ``event`` on ``node``."""
        return cls(op=EVENT_ATTACH, event=str(event), node=int(node))

    @classmethod
    def event_detach(cls, event: str, node: int) -> "Delta":
        """Erase the occurrence of ``event`` on ``node``."""
        return cls(op=EVENT_DETACH, event=str(event), node=int(node))

    @property
    def is_edge(self) -> bool:
        """Whether this delta mutates graph structure."""
        return self.op in EDGE_OPS

    @property
    def is_event(self) -> bool:
        """Whether this delta mutates the event layer."""
        return self.op in EVENT_OPS

    def to_record(self) -> dict:
        """The JSONL record for this delta."""
        if self.is_edge:
            return {"op": self.op, "u": self.u, "v": self.v}
        return {"op": self.op, "event": self.event, "node": self.node}

    @classmethod
    def from_record(cls, record: dict) -> "Delta":
        """Parse one JSONL record (raises :class:`DeltaError` when malformed)."""
        op = record.get("op")
        try:
            if op == EDGE_ADD:
                # Through the constructors so hand-written records get the
                # same u < v normalisation — batch netting and the
                # AppliedBatch invariant key on the ordered tuple.
                return cls.edge_add(int(record["u"]), int(record["v"]))
            if op == EDGE_REMOVE:
                return cls.edge_remove(int(record["u"]), int(record["v"]))
            if op in EVENT_OPS:
                return cls(op=op, event=str(record["event"]), node=int(record["node"]))
        except (KeyError, TypeError, ValueError) as error:
            raise DeltaError(f"malformed delta record {record!r}") from error
        raise DeltaError(f"unknown delta op {op!r} in record {record!r}")

    def __str__(self) -> str:
        if self.is_edge:
            sign = "+" if self.op == EDGE_ADD else "-"
            return f"{sign}({self.u}, {self.v})"
        sign = "+" if self.op == EVENT_ATTACH else "-"
        return f"{sign}{self.event}@{self.node}"


#: Inputs accepted wherever a batch is expected.
BatchLike = Union["DeltaBatch", Iterable[Delta]]


@dataclass(frozen=True)
class DeltaBatch:
    """One commit's worth of deltas, applied atomically."""

    deltas: Tuple[Delta, ...]

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.deltas)

    def edge_deltas(self) -> Tuple[Delta, ...]:
        """The structural deltas, in order."""
        return tuple(delta for delta in self.deltas if delta.is_edge)

    def event_deltas(self) -> Tuple[Delta, ...]:
        """The event-layer deltas, in order."""
        return tuple(delta for delta in self.deltas if delta.is_event)

    def validate(self, num_nodes: int) -> None:
        """Reject a batch that would fail to apply to a ``num_nodes`` graph.

        Edge deltas are checked first (node range, then self-loop), then
        event deltas (non-empty name, then node range), each in batch order.
        :meth:`~repro.streaming.dynamic_graph.DynamicAttributedGraph.apply`
        runs this before mutating anything, and the service runs it before
        the write-ahead append so the log never records a batch that apply
        would reject.
        """
        for delta in self.edge_deltas():
            if not (0 <= delta.u < num_nodes):
                raise NodeNotFoundError(delta.u)
            if not (0 <= delta.v < num_nodes):
                raise NodeNotFoundError(delta.v)
            if delta.u == delta.v:
                raise EdgeError(f"self-loop ({delta.u}, {delta.v}) is not allowed")
        for delta in self.event_deltas():
            if not isinstance(delta.event, str) or not delta.event:
                raise EventError(
                    f"event name must be a non-empty string, got {delta.event!r}"
                )
            if not (0 <= delta.node < num_nodes):
                raise NodeNotFoundError(delta.node)

    @classmethod
    def coerce(cls, batch: BatchLike) -> "DeltaBatch":
        """Accept a batch, a bare delta iterable, or mutation-helper tuples.

        ``("add" | "remove", u, v)`` triples — the ``with_deltas=True``
        output of :mod:`repro.graph.mutation` — are converted on the fly.
        """
        if isinstance(batch, DeltaBatch):
            return batch
        deltas: List[Delta] = []
        for item in batch:
            if isinstance(item, Delta):
                deltas.append(item)
            elif isinstance(item, (tuple, list)) and len(item) == 3:
                op, u, v = item
                if op == "add":
                    deltas.append(Delta.edge_add(u, v))
                elif op == "remove":
                    deltas.append(Delta.edge_remove(u, v))
                else:
                    raise DeltaError(f"unknown mutation op {op!r}")
            else:
                raise DeltaError(f"cannot interpret {item!r} as a delta")
        return cls(deltas=tuple(deltas))

    def __str__(self) -> str:
        return f"DeltaBatch({', '.join(str(delta) for delta in self.deltas)})"


class DeltaLog:
    """An append-only log of deltas with batch (commit) boundaries.

    Deltas are staged with :meth:`add` / the typed helpers and grouped into a
    batch by :meth:`seal`; sealed batches are retained for replay.  The log
    round-trips through the JSONL wire format (:meth:`save` / :meth:`load`)
    consumed by ``tesc stream``.
    """

    def __init__(self) -> None:
        self.batches: List[DeltaBatch] = []
        self.pending: List[Delta] = []

    # -- staging ------------------------------------------------------------

    def add(self, delta: Delta) -> None:
        """Stage one delta into the pending batch."""
        if not isinstance(delta, Delta):
            raise DeltaError(f"expected a Delta, got {type(delta).__name__}")
        self.pending.append(delta)

    def extend(self, deltas: Iterable[Delta]) -> None:
        """Stage many deltas in order."""
        for delta in deltas:
            self.add(delta)

    def add_edge(self, u: int, v: int) -> None:
        """Stage an edge insertion."""
        self.add(Delta.edge_add(u, v))

    def remove_edge(self, u: int, v: int) -> None:
        """Stage an edge deletion."""
        self.add(Delta.edge_remove(u, v))

    def attach_event(self, event: str, node: int) -> None:
        """Stage an event attach."""
        self.add(Delta.event_attach(event, node))

    def detach_event(self, event: str, node: int) -> None:
        """Stage an event detach."""
        self.add(Delta.event_detach(event, node))

    def record_mutations(self, mutations: Sequence[Tuple[str, int, int]]) -> None:
        """Stage ``("add" | "remove", u, v)`` triples from the mutation helpers."""
        self.extend(DeltaBatch.coerce(mutations).deltas)

    def seal(self) -> DeltaBatch:
        """Close the pending deltas into a batch (which may be empty)."""
        batch = DeltaBatch(deltas=tuple(self.pending))
        self.pending.clear()
        self.batches.append(batch)
        return batch

    # -- queries ------------------------------------------------------------

    @property
    def num_pending(self) -> int:
        """Deltas staged but not yet sealed into a batch."""
        return len(self.pending)

    def __len__(self) -> int:
        """Number of sealed batches."""
        return len(self.batches)

    def replay(self) -> Iterator[DeltaBatch]:
        """Iterate the sealed batches in commit order, then any pending tail."""
        yield from self.batches
        if self.pending:
            yield DeltaBatch(deltas=tuple(self.pending))

    # -- wire format ---------------------------------------------------------

    def dump(self, handle: IO[str]) -> None:
        """Write the log as JSONL (one record per line, ``commit`` separators)."""
        for batch in self.batches:
            for delta in batch:
                handle.write(json.dumps(delta.to_record()) + "\n")
            handle.write(json.dumps({"op": COMMIT_OP}) + "\n")
        for delta in self.pending:
            handle.write(json.dumps(delta.to_record()) + "\n")

    def save(self, path: str) -> None:
        """Write the log to ``path`` in the JSONL wire format."""
        with open(path, "w", encoding="utf-8") as handle:
            self.dump(handle)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "DeltaLog":
        """Parse JSONL lines into a log (blank lines and ``#`` comments skipped)."""
        log = cls()
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise DeltaError(f"line {number}: invalid JSON: {line!r}") from error
            if not isinstance(record, dict):
                raise DeltaError(f"line {number}: expected an object, got {record!r}")
            if record.get("op") == COMMIT_OP:
                log.seal()
            else:
                log.add(Delta.from_record(record))
        return log

    @classmethod
    def load(cls, path: str) -> "DeltaLog":
        """Read a JSONL delta file written by :meth:`save` (or by hand)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.parse(handle)

    def __repr__(self) -> str:
        return f"DeltaLog(batches={len(self.batches)}, pending={len(self.pending)})"


def frame_record(record: dict) -> bytes:
    """``record`` as one CRC-prefixed JSON line: the CRC32 of the compact
    JSON payload in 8 hex digits, a space, the payload and a newline.

    The framing of write-ahead log records and checkpoint manifests.
    """
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def unframe_record(line: bytes) -> Optional[dict]:
    """The record of one :func:`frame_record` line (newline stripped), or
    ``None`` if it is torn or corrupt."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    payload = line[9:]
    try:
        if int(line[:8], 16) != zlib.crc32(payload):
            return None
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


class WriteAheadLog(DeltaLog):
    """A :class:`DeltaLog` whose commits are durable *before* they apply.

    The on-disk format is the JSONL wire format with one addition: every
    line is prefixed by the CRC32 of its JSON payload —

    .. code-block:: text

        89a1c3f0 {"op":"edge_add","u":3,"v":17}
        5d2e0b1c {"op":"commit"}

    :meth:`append_batch` writes the batch's records plus a ``commit`` line,
    flushes, and fsyncs (the commit boundary is the durability boundary).
    If the fsync fails the file is rolled back to the previous boundary and
    the error propagates, so the log never claims a commit it cannot
    guarantee — callers apply the batch to the live graph only *after*
    :meth:`append_batch` returns.

    On open, the tail is scanned record by record: the first torn line
    (partial write), CRC mismatch, or malformed record — and any valid
    records after the last ``commit`` — are truncated away, leaving exactly
    the committed prefix.  Recovered batches are available via the
    inherited :meth:`~DeltaLog.replay`, which is how ``tesc serve --wal``
    restores the pre-crash epoch.

    The delta-log fsync fault seam (:data:`repro.service.faults.WAL_FSYNC`)
    lives in :meth:`_sync`.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"],
                 fsync: bool = True) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self.fsync_enabled = bool(fsync)
        #: Bytes of torn/uncommitted tail discarded during recovery.
        self.truncated_bytes = 0
        #: Committed batches found on disk at open time.
        self.recovered_batches = 0
        #: Batches dropped from the front of the file by prior compactions
        #: (recovered from the compaction header record).
        self.compacted_batches = 0
        #: Bytes reclaimed by :meth:`compact` over this object's lifetime.
        self.compacted_bytes = 0
        # Byte offset just past the compaction header (0 when none) and the
        # offset just past each in-file batch's commit line, parallel to
        # ``self.batches`` — the durability boundaries compaction and
        # checkpoint manifests speak in.
        self._header_end = 0
        self._boundaries: List[int] = []
        self._lock = threading.Lock()
        self._recover()
        self._handle: IO[bytes] = open(self.path, "ab")

    # -- wire format ---------------------------------------------------------

    _format_record = staticmethod(frame_record)
    _parse_line = staticmethod(unframe_record)

    def _recover(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        committed_end = 0
        offset = 0
        pending: List[Delta] = []
        first = True
        while True:
            newline = data.find(b"\n", offset)
            if newline == -1:
                break  # torn tail: last line has no terminator
            record = self._parse_line(data[offset:newline])
            if record is None:
                break
            op = record.get("op")
            if op == COMPACT_OP:
                if not first or pending:
                    break  # only valid as the very first record
                try:
                    self.compacted_batches = int(record["batches"])
                except (KeyError, TypeError, ValueError):
                    break
                offset = newline + 1
                self._header_end = offset
                committed_end = offset
                first = False
                continue
            first = False
            offset = newline + 1
            if op == COMMIT_OP:
                self.batches.append(DeltaBatch(deltas=tuple(pending)))
                pending.clear()
                committed_end = offset
                self._boundaries.append(offset)
            else:
                try:
                    pending.append(Delta.from_record(record))
                except DeltaError:
                    break
        self.recovered_batches = len(self.batches)
        if len(data) > committed_end:
            self.truncated_bytes = len(data) - committed_end
            with open(self.path, "r+b") as handle:
                handle.truncate(committed_end)

    # -- durable commits -----------------------------------------------------

    def append_batch(self, batch: BatchLike) -> DeltaBatch:
        """Durably append one batch (records + ``commit`` line + fsync).

        Raises :class:`OSError` with the file rolled back to the previous
        commit boundary when the write or fsync fails — all or nothing.
        """
        batch = DeltaBatch.coerce(batch)
        payload = b"".join(
            self._format_record(delta.to_record()) for delta in batch
        ) + self._format_record({"op": COMMIT_OP})
        with self._lock:
            if self._handle.closed:
                raise DeltaError(f"write-ahead log {self.path!r} is closed")
            start = self._handle.tell()
            try:
                self._handle.write(payload)
                self._handle.flush()
                self._sync()
            except OSError:
                try:
                    self._handle.truncate(start)
                    self._handle.flush()
                    if self.fsync_enabled:
                        os.fsync(self._handle.fileno())
                except OSError:
                    pass
                raise
            self.batches.append(batch)
            self._boundaries.append(start + len(payload))
        return batch

    def seal(self) -> DeltaBatch:
        """Durably commit the pending deltas as one batch."""
        pending = tuple(self.pending)
        self.pending.clear()
        try:
            return self.append_batch(DeltaBatch(deltas=pending))
        except OSError:
            self.pending[:0] = pending  # restage: the commit did not happen
            raise

    def _sync(self, handle=None) -> None:
        # Lazy import: repro.streaming must not pull the service package in
        # at module load (service.engine imports this module).
        from repro.service import faults

        rule = faults.inject(faults.WAL_FSYNC, path=self.path)
        if rule is not None and rule.action == "error":
            raise OSError(rule.message)
        if self.fsync_enabled:
            os.fsync((self._handle if handle is None else handle).fileno())

    def _sync_dir(self) -> None:
        if not self.fsync_enabled:
            return
        parent = os.path.dirname(os.path.abspath(self.path)) or "."
        fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- compaction ----------------------------------------------------------

    @property
    def total_batches(self) -> int:
        """Committed batches ever logged: compacted-away plus in-file."""
        return self.compacted_batches + len(self.batches)

    @property
    def committed_offset(self) -> int:
        """Byte offset just past the last durable commit boundary."""
        return self._boundaries[-1] if self._boundaries else self._header_end

    def offset_of_total(self, covered: int) -> int:
        """The commit-boundary byte offset covering ``covered`` total batches.

        Clamped at both ends: asking for no more than the already-compacted
        count returns the header end (nothing further to drop), asking past
        the last in-file commit returns :attr:`committed_offset`.
        """
        in_file = int(covered) - self.compacted_batches
        if in_file <= 0:
            return self._header_end
        if in_file > len(self._boundaries):
            return self.committed_offset
        return self._boundaries[in_file - 1]

    def compact(self, up_to_offset: int) -> int:
        """Truncate the covered prefix ``[0, up_to_offset)`` of the log.

        ``up_to_offset`` should be a commit boundary previously obtained from
        :attr:`committed_offset` / :meth:`offset_of_total`; anything else —
        including an offset past a torn tail or past end-of-file — is
        clamped *down* to the nearest known boundary, so compaction can never
        split a batch.  The surviving tail is rewritten behind a fresh
        compaction header to ``<path>.compact``, fsynced, and atomically
        renamed over the log: a crash mid-compaction leaves either the old
        file or the new one, never a hybrid.  Serialised against concurrent
        :meth:`append_batch` by the commit lock.  Returns bytes reclaimed.
        """
        with self._lock:
            if self._handle.closed:
                raise DeltaError(f"write-ahead log {self.path!r} is closed")
            # Clamp down to the largest known commit boundary <= the offset.
            drop = 0
            for boundary in self._boundaries:
                if boundary <= up_to_offset:
                    drop += 1
                else:
                    break
            if drop == 0:
                return 0
            cut = self._boundaries[drop - 1]
            self._handle.flush()
            with open(self.path, "rb") as handle:
                handle.seek(cut)
                tail = handle.read()
            header = self._format_record(
                {"op": COMPACT_OP, "batches": self.compacted_batches + drop}
            )
            temp = self.path + ".compact"
            try:
                with open(temp, "wb") as handle:
                    handle.write(header + tail)
                    handle.flush()
                    self._sync(handle)
                os.rename(temp, self.path)
            except BaseException:
                if os.path.exists(temp):
                    os.remove(temp)
                raise
            self._sync_dir()
            self._handle.close()
            self._handle = open(self.path, "ab")
            shift = len(header) - cut  # negative: how far the tail moved left
            self._boundaries = [b + shift for b in self._boundaries[drop:]]
            self._header_end = len(header)
            del self.batches[:drop]
            self.compacted_batches += drop
            reclaimed = max(0, -shift)
            self.compacted_bytes += reclaimed
            return reclaimed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={self.path!r}, batches={len(self.batches)}, "
            f"recovered={self.recovered_batches}, "
            f"truncated_bytes={self.truncated_bytes})"
        )
