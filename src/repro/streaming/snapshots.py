"""Epoch-pinned copy-on-write snapshots and their lease table.

The streaming graph applies delta batches by splicing CSR rows copy-on-write
(:meth:`~repro.graph.csr.CSRGraph.replace_rows`): the pre-commit row arrays
are never mutated, so a reader that captured them keeps traversing a
perfectly consistent graph while commits race ahead.  This module turns that
property into an explicit MVCC contract:

* :class:`GraphSnapshot` — a frozen :class:`~repro.events.attributed_graph.
  AttributedGraph` view of one epoch: the epoch's CSR (shared, immutable),
  a deep copy of the event layer (version preserved), and the pinned
  ``(structure_version, events_version)`` pair.  Everything downstream — the
  samplers, the density pass, the estimate batchers — works on a snapshot
  exactly as it would on a live graph, because a snapshot *is* an
  attributed graph;
* :class:`SnapshotLease` — one reader's pin on an epoch.  While at least one
  lease is held, the epoch's snapshot (and therefore its retired CSR row
  arrays) stays retained; when the last lease drops and the epoch is no
  longer current, the lease table releases its reference and the retired
  rows become garbage;
* :class:`EpochLeaseTable` — the per-epoch refcount table.  ``publish``
  registers an epoch's snapshot, ``acquire``/``release`` move the
  refcounts, ``advance`` retires every unleased non-current epoch when a
  commit publishes a new one.

The table never copies graph data: retention is purely reference-counted
liveness of objects the copy-on-write splice produced anyway.  Snapshot
growth is therefore bounded by the number of *distinct epochs still pinned*,
and the property suite asserts retired rows are actually freed once the last
lease drops.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.events.attributed_graph import AttributedGraph
from repro.events.event_set import EventLayer
from repro.exceptions import SnapshotExpiredError
from repro.graph.csr import CSRGraph


class GraphSnapshot(AttributedGraph):
    """A frozen, epoch-tagged view of one graph state.

    Attributes
    ----------
    epoch:
        The commit epoch this snapshot pins (the dynamic graph's counter of
        effective commits).
    structure_version / events version:
        The pinned version pair; :meth:`~repro.events.attributed_graph.
        AttributedGraph.versions` reports it, so version-keyed caches (the
        indicator caches) treat the snapshot exactly like the live graph
        state it froze.

    Treat snapshots as read-only: they share the epoch's immutable CSR and
    own a private event-layer copy, but nothing enforces immutability at the
    attribute level.
    """

    def __init__(
        self,
        csr: CSRGraph,
        events: EventLayer,
        labels: Optional[Sequence[str]],
        epoch: int,
        structure_version: int,
    ) -> None:
        super().__init__(csr, events, labels=labels)
        self.epoch = int(epoch)
        self.structure_version = int(structure_version)

    def checkpoint_state(self) -> Dict[str, object]:
        """The serialisable pieces a checkpoint of this snapshot carries.

        This is the single seam the checkpoint store reads engine state
        through: the epoch's CSR arrays (shared, immutable — safe to hand
        out), the event occurrences as a plain mapping plus the pinned
        events version, labels, and the epoch / structure-version pair.
        Everything here round-trips through
        :meth:`~repro.streaming.dynamic_graph.DynamicAttributedGraph.restore`.
        """
        return {
            "indptr": self.csr.indptr,
            "indices": self.csr.indices,
            "events": self.events.to_mapping(),
            "events_version": int(self.events.version),
            "labels": list(self.labels) if self.labels is not None else None,
            "epoch": self.epoch,
            "structure_version": self.structure_version,
        }

    def __repr__(self) -> str:
        return (
            f"GraphSnapshot(epoch={self.epoch}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, num_events={len(self.events)})"
        )


class SnapshotLease:
    """One reader's pin on an epoch's snapshot.

    Obtained from :meth:`EpochLeaseTable.acquire` (normally via
    :meth:`~repro.streaming.dynamic_graph.DynamicAttributedGraph.pin`).
    While the lease is live, :attr:`graph` is guaranteed immutable and the
    epoch's retired CSR rows stay allocated.  :meth:`release` is idempotent;
    the lease is also a context manager.
    """

    __slots__ = ("epoch", "graph", "_table", "_released")

    def __init__(self, epoch: int, graph: GraphSnapshot,
                 table: "EpochLeaseTable") -> None:
        self.epoch = int(epoch)
        self.graph = graph
        self._table = table
        self._released = False

    @property
    def released(self) -> bool:
        """Whether this lease has already been dropped."""
        return self._released

    def release(self) -> None:
        """Drop the pin (idempotent).  The snapshot object itself stays
        valid for as long as the caller holds a reference; only the
        *retention guarantee* for future :meth:`EpochLeaseTable.acquire`
        calls ends here."""
        if self._released:
            return
        self._released = True
        self._table._release(self.epoch)

    def __enter__(self) -> "SnapshotLease":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"SnapshotLease(epoch={self.epoch}, {state})"


class EpochLeaseTable:
    """Per-epoch refcount table deciding how long retired state stays live.

    The table holds at most one :class:`GraphSnapshot` per epoch plus a
    lease count.  Lifecycle:

    * ``publish(epoch, snapshot)`` registers the epoch's snapshot (the
      writer, or the first reader to want one, builds it — construction is
      serialised by the dynamic graph's mutation lock);
    * ``acquire(epoch)`` increments the count and hands out a
      :class:`SnapshotLease`; unknown or already-retired epochs raise
      :class:`~repro.exceptions.SnapshotExpiredError`;
    * releasing the last lease of a non-current epoch — or ``advance`` when
      an unleased epoch stops being current — drops the table's reference,
      letting the garbage collector free the retired CSR rows and event
      copy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: Dict[int, GraphSnapshot] = {}
        self._counts: Dict[int, int] = {}
        self._current = 0
        #: Lifetime count of snapshot states the table has retired —
        #: whether by a commit-driven sweep or by the last lease dropping.
        self.sweeps = 0

    # -- writer side ---------------------------------------------------------

    def publish(self, epoch: int, snapshot: GraphSnapshot) -> None:
        """Register ``snapshot`` as epoch ``epoch``'s state and make the
        epoch current (retiring unleased older epochs)."""
        epoch = int(epoch)
        with self._lock:
            self._states[epoch] = snapshot
            self._current = max(self._current, epoch)
            self._sweep()

    def advance(self, epoch: int) -> None:
        """Move the current epoch forward (no snapshot built yet) and retire
        every unleased non-current epoch's state."""
        with self._lock:
            self._current = max(self._current, int(epoch))
            self._sweep()

    # -- reader side ---------------------------------------------------------

    def state(self, epoch: int) -> Optional[GraphSnapshot]:
        """The retained snapshot for ``epoch``, or ``None``."""
        with self._lock:
            return self._states.get(int(epoch))

    def acquire(self, epoch: int) -> SnapshotLease:
        """Pin ``epoch``: returns a lease, or raises
        :class:`SnapshotExpiredError` if its state is no longer retained."""
        epoch = int(epoch)
        with self._lock:
            snapshot = self._states.get(epoch)
            if snapshot is None:
                raise SnapshotExpiredError(
                    f"epoch {epoch} is not retained (current epoch is "
                    f"{self._current}; a snapshot stays available only while "
                    "it is current or some lease still pins it)"
                )
            self._counts[epoch] = self._counts.get(epoch, 0) + 1
            return SnapshotLease(epoch, snapshot, self)

    def acquire_latest(self) -> Optional[SnapshotLease]:
        """Pin the newest *published* epoch, or ``None`` if it has no
        snapshot yet (publication is lazy).

        This is the wait-free admission point for MVCC readers: it touches
        only the table's own lock, never the graph's mutation lock.  A
        commit in flight holds the mutation lock for its whole apply, but
        the table's current epoch advances only when that commit finishes —
        so a reader admitted here serialises *before* the in-flight commit
        by construction, which is exactly snapshot isolation.
        """
        with self._lock:
            snapshot = self._states.get(self._current)
            if snapshot is None:
                return None
            self._counts[self._current] = self._counts.get(self._current, 0) + 1
            return SnapshotLease(self._current, snapshot, self)

    def _release(self, epoch: int) -> None:
        with self._lock:
            count = self._counts.get(epoch, 0) - 1
            if count > 0:
                self._counts[epoch] = count
                return
            self._counts.pop(epoch, None)
            if epoch != self._current and self._states.pop(epoch, None) is not None:
                self.sweeps += 1

    # -- introspection -------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest epoch the table has been advanced to."""
        with self._lock:
            return self._current

    def retained_epochs(self) -> List[int]:
        """Epochs whose snapshot the table still holds, ascending."""
        with self._lock:
            return sorted(self._states)

    def lease_count(self, epoch: int) -> int:
        """Live leases pinning ``epoch``."""
        with self._lock:
            return self._counts.get(int(epoch), 0)

    def retained_bytes(self) -> int:
        """Bytes of CSR row storage retained across all kept snapshots.

        Shared CSR objects (epochs without structural change between them)
        are counted once.
        """
        with self._lock:
            seen = {}
            for snapshot in self._states.values():
                seen[id(snapshot.csr)] = snapshot.csr.nbytes
            return sum(seen.values())

    def _sweep(self) -> None:
        """Drop every unleased non-current state (callers hold ``_lock``)."""
        for epoch in [
            epoch for epoch in self._states
            if epoch != self._current and not self._counts.get(epoch)
        ]:
            del self._states[epoch]
            self.sweeps += 1

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"EpochLeaseTable(current={self._current}, "
                f"retained={sorted(self._states)}, "
                f"leases={dict(self._counts)})"
            )
