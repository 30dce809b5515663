"""A mutable attributed graph that applies delta batches in place.

:class:`DynamicAttributedGraph` extends
:class:`~repro.events.attributed_graph.AttributedGraph` with
:meth:`~DynamicAttributedGraph.apply`: a delta batch is netted out (cancelling
add/remove pairs collapse, no-ops are dropped) against a per-node overlay,
the touched rows are spliced into the CSR with
:meth:`~repro.graph.csr.CSRGraph.replace_rows` instead of rebuilding it from
scratch, the event layer is updated through its versioned occurrence API,
and the lazily built vicinity index is *rebased* — clean ``|V^h_v|``
entries survive, only nodes within ``h - 1`` hops of a touched endpoint are
dropped.  The :class:`AppliedBatch` it returns keeps the
pre-patch CSR alive so the dirty tracker can run old-graph traversals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.events.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import dirty_vicinity
from repro.streaming.delta import EDGE_ADD, EVENT_ATTACH, BatchLike, DeltaBatch
from repro.streaming.snapshots import EpochLeaseTable, GraphSnapshot, SnapshotLease


@dataclass(frozen=True)
class AppliedBatch:
    """The effective outcome of one committed delta batch.

    Attributes
    ----------
    batch:
        The batch as submitted (possibly containing no-ops).
    added_edges / removed_edges:
        The *net* structural changes actually applied, as ``(u, v)`` with
        ``u < v``.  A delta adding an edge that already existed, removing an
        absent edge, or cancelling an earlier delta of the batch does not
        appear here.
    attached / detached:
        The effective event-layer changes as ``(event, node)`` pairs.
    old_csr / new_csr:
        The CSR before and after the patch (the same object when the batch
        had no effective structural change).  Keeping the old CSR lets
        :class:`~repro.streaming.dirty.DirtyTracker` bound the impact of
        removals with old-graph traversals.
    structure_version:
        The graph's structure version *after* this batch.
    epoch:
        The graph's commit epoch *after* this batch (unchanged when the
        batch had no effect).  Readers pin this value via
        :meth:`DynamicAttributedGraph.pin` to query exactly the state this
        commit produced.
    vicinity_dirty:
        When the vicinity index was rebased during this apply, the
        per-level dirty-node arrays it computed (level ``h`` → nodes within
        ``h - 1`` hops of a touched endpoint).  The dirty tracker reuses a
        matching entry instead of re-running the same endpoint BFS.
    """

    batch: DeltaBatch
    added_edges: Tuple[Tuple[int, int], ...]
    removed_edges: Tuple[Tuple[int, int], ...]
    attached: Tuple[Tuple[str, int], ...]
    detached: Tuple[Tuple[str, int], ...]
    old_csr: CSRGraph
    new_csr: CSRGraph
    structure_version: int
    vicinity_dirty: Optional[Dict[int, np.ndarray]] = None
    epoch: int = 0

    @property
    def structure_changed(self) -> bool:
        """Whether the batch changed any adjacency."""
        return bool(self.added_edges or self.removed_edges)

    @property
    def events_changed(self) -> bool:
        """Whether the batch changed any event occurrence."""
        return bool(self.attached or self.detached)

    @property
    def changed(self) -> bool:
        """Whether the batch had any effect at all."""
        return self.structure_changed or self.events_changed

    def touched_endpoints(self) -> np.ndarray:
        """Distinct endpoints of every effectively added or removed edge."""
        endpoints: Set[int] = set()
        for u, v in self.added_edges:
            endpoints.add(u)
            endpoints.add(v)
        for u, v in self.removed_edges:
            endpoints.add(u)
            endpoints.add(v)
        return np.array(sorted(endpoints), dtype=np.int64)


@dataclass(frozen=True)
class EmptyAppliedBatch(AppliedBatch):
    """Marker subclass for the no-delta commit (first rank, forced re-rank)."""


class DynamicAttributedGraph(AttributedGraph):
    """An attributed graph whose structure and events evolve via delta batches.

    Construction is identical to :class:`AttributedGraph`.  Additions:

    * :meth:`apply` commits a :class:`~repro.streaming.delta.DeltaBatch`
      (or any iterable of deltas) in place, returning an
      :class:`AppliedBatch` describing the net effect;
    * :attr:`structure_version` counts effective structural commits, giving
      downstream caches (sample memos, density-column caches, BFS engines) a
      cheap staleness test — the streaming analogue of
      :attr:`EventLayer.version <repro.events.event_set.EventLayer.version>`;
    * :attr:`epoch` counts *effective commits of any kind* (structural or
      event-only), and :meth:`pin` hands out snapshot leases against the
      per-epoch lease table, which is what lets service readers run against
      a frozen state while commits keep landing (see
      :mod:`repro.streaming.snapshots`).

    Thread-safety contract: :meth:`apply` / :meth:`pin` / :meth:`snapshot` /
    :attr:`epoch` serialise on one internal mutation lock, so concurrent
    readers pinning snapshots never observe a half-applied batch.  Reading
    the live graph without pinning remains as unsynchronised as before.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.structure_version = 0
        self._epoch = 0
        self._mutate_lock = threading.RLock()
        self._leases = EpochLeaseTable()
        self._epoch_versions = self.versions()

    # -- epochs and snapshots -------------------------------------------------

    @property
    def epoch(self) -> int:
        """The commit epoch: bumped once per effective :meth:`apply`.

        Out-of-band mutations (code poking :attr:`events` directly instead
        of going through delta batches) are detected by comparing the
        version pair and healed with an epoch bump, so the epoch never lies
        about state identity.
        """
        with self._mutate_lock:
            self._heal_out_of_band()
            return self._epoch

    def mark_mutated(self) -> int:
        """Declare an out-of-band mutation and return the new epoch.

        Call this after mutating the graph through anything other than
        :meth:`apply` (direct :class:`~repro.events.event_set.EventLayer`
        calls, CSR swaps) so pinned readers and epoch-keyed caches see the
        state change.  Idempotent while the version pair is unchanged.
        """
        with self._mutate_lock:
            self._heal_out_of_band()
            return self._epoch

    def _heal_out_of_band(self) -> None:
        """Bump the epoch if versions moved without an apply (lock held)."""
        if self.versions() != self._epoch_versions:
            self._epoch += 1
            self._epoch_versions = self.versions()
            self._leases.advance(self._epoch)

    def _current_state(self) -> GraphSnapshot:
        """The (memoised) snapshot of the current epoch (lock held)."""
        self._heal_out_of_band()
        state = self._leases.state(self._epoch)
        if state is None:
            state = GraphSnapshot(
                self.csr,
                self.events.copy(),
                self.labels,
                epoch=self._epoch,
                structure_version=self.structure_version,
            )
            self._leases.publish(self._epoch, state)
        return state

    def pin(self, epoch: Optional[int] = None) -> SnapshotLease:
        """Pin an epoch's snapshot and return the lease.

        ``epoch=None`` pins the current epoch, building (and memoising) its
        snapshot on first demand — snapshot publication is lazy, so a
        write-heavy stream that nobody queries never copies anything.
        Pinning an older epoch succeeds only while some other lease still
        retains it; otherwise :class:`~repro.exceptions.SnapshotExpiredError`
        is raised.  Release the lease (or use it as a context manager) when
        the read finishes so retired row arrays can be freed.

        ``pin()`` is *wait-free* once the current epoch's snapshot exists:
        it leases the newest published state straight from the table without
        touching the mutation lock, so readers admitted while a commit is
        mid-apply are served the pre-commit epoch instead of waiting out the
        apply.  (The lock is only taken on the first pin of a new epoch, to
        build and publish its snapshot.)  Out-of-band mutations bypassing
        :meth:`apply` are healed by the next locked operation — call
        :meth:`mark_mutated` after such writes to heal eagerly.
        """
        if epoch is None:
            lease = self._leases.acquire_latest()
            if lease is not None:
                return lease
        with self._mutate_lock:
            self._heal_out_of_band()
            if epoch is None or int(epoch) == self._epoch:
                self._current_state()
                return self._leases.acquire(self._epoch)
        # Past epochs need no graph access — the table alone decides.
        return self._leases.acquire(int(epoch))

    def retained_epochs(self) -> List[int]:
        """Epochs whose snapshots are still held (current and/or leased)."""
        return self._leases.retained_epochs()

    def retained_bytes(self) -> int:
        """CSR row bytes retained across kept snapshots (shared CSRs once)."""
        return self._leases.retained_bytes()

    def lease_count(self, epoch: int) -> int:
        """Live leases pinning ``epoch``."""
        return self._leases.lease_count(epoch)

    @property
    def lease_sweeps(self) -> int:
        """Lifetime count of snapshot states the lease table has retired."""
        return self._leases.sweeps

    def empty_batch(self) -> AppliedBatch:
        """An :class:`AppliedBatch` representing "nothing changed"."""
        with self._mutate_lock:
            self._heal_out_of_band()
            return EmptyAppliedBatch(
                batch=DeltaBatch(deltas=()),
                added_edges=(), removed_edges=(), attached=(), detached=(),
                old_csr=self.csr, new_csr=self.csr,
                structure_version=self.structure_version,
                epoch=self._epoch,
            )

    def apply(self, batch: BatchLike) -> AppliedBatch:
        """Commit one delta batch in place and report its net effect.

        Structural deltas are replayed in order against a per-node overlay to
        net out cancelling operations, then applied as one row-wise CSR
        patch.  Event deltas go through the versioned
        :class:`~repro.events.event_set.EventLayer` API (idempotent — attach
        of an existing occurrence or detach of an absent one is a recorded
        no-op).  :meth:`~repro.streaming.delta.DeltaBatch.validate` rejects
        out-of-range nodes, self-loops and empty event names before anything
        is applied, so a failed apply leaves the graph untouched.

        Commits serialise on the graph's mutation lock; an effective batch
        bumps :attr:`epoch` and advances the snapshot lease table, retiring
        every unleased older snapshot.
        """
        with self._mutate_lock:
            self._heal_out_of_band()
            applied = self._apply_locked(batch)
            if applied.changed:
                self._epoch += 1
                self._epoch_versions = self.versions()
                self._leases.advance(self._epoch)
                applied = AppliedBatch(
                    batch=applied.batch,
                    added_edges=applied.added_edges,
                    removed_edges=applied.removed_edges,
                    attached=applied.attached,
                    detached=applied.detached,
                    old_csr=applied.old_csr,
                    new_csr=applied.new_csr,
                    structure_version=applied.structure_version,
                    vicinity_dirty=applied.vicinity_dirty,
                    epoch=self._epoch,
                )
            return applied

    def _apply_locked(self, batch: BatchLike) -> AppliedBatch:
        """The batch netting + splice body of :meth:`apply` (lock held)."""
        batch = DeltaBatch.coerce(batch)
        old_csr = self.csr
        # Validate every delta before mutating anything (the event checks
        # are the ones EventLayer.add_occurrence would raise mid-apply), so
        # the whole batch stays atomic.
        batch.validate(old_csr.num_nodes)

        overlay: Dict[int, Set[int]] = {}

        def neighbours(node: int) -> Set[int]:
            cached = overlay.get(node)
            if cached is None:
                cached = set(int(x) for x in old_csr.neighbors(node))
                overlay[node] = cached
            return cached

        added: Set[Tuple[int, int]] = set()
        removed: Set[Tuple[int, int]] = set()
        for delta in batch.edge_deltas():
            u, v = delta.u, delta.v
            edge = (u, v)
            if delta.op == EDGE_ADD:
                if v in neighbours(u):
                    continue
                neighbours(u).add(v)
                neighbours(v).add(u)
                if edge in removed:
                    removed.discard(edge)
                else:
                    added.add(edge)
            else:
                if v not in neighbours(u):
                    continue
                neighbours(u).discard(v)
                neighbours(v).discard(u)
                if edge in added:
                    added.discard(edge)
                else:
                    removed.add(edge)

        new_csr = old_csr
        vicinity_dirty: Optional[Dict[int, np.ndarray]] = None
        if added or removed:
            # The overlay already holds every touched node's final neighbour
            # set, so the CSR patch is a pure row splice — no per-row set
            # algebra on the CSR side.
            touched: Set[int] = set()
            for u, v in added:
                touched.add(u)
                touched.add(v)
            for u, v in removed:
                touched.add(u)
                touched.add(v)
            new_csr = old_csr.replace_rows(
                {node: sorted(overlay[node]) for node in touched}
            )
            vicinity_dirty = self._rebase_vicinity(old_csr, new_csr, added, removed)
            self.csr = new_csr
            self.structure_version += 1

        attached: List[Tuple[str, int]] = []
        detached: List[Tuple[str, int]] = []
        for delta in batch.event_deltas():
            if delta.op == EVENT_ATTACH:
                if self.events.add_occurrence(delta.event, delta.node):
                    attached.append((delta.event, delta.node))
            else:
                if self.events.remove_occurrence(delta.event, delta.node):
                    detached.append((delta.event, delta.node))

        return AppliedBatch(
            batch=batch,
            added_edges=tuple(sorted(added)),
            removed_edges=tuple(sorted(removed)),
            attached=tuple(attached),
            detached=tuple(detached),
            old_csr=old_csr,
            new_csr=new_csr,
            structure_version=self.structure_version,
            vicinity_dirty=vicinity_dirty,
            epoch=self._epoch,
        )

    def _rebase_vicinity(
        self,
        old_csr: CSRGraph,
        new_csr: CSRGraph,
        added: Set[Tuple[int, int]],
        removed: Set[Tuple[int, int]],
    ) -> Optional[Dict[int, np.ndarray]]:
        """Carry clean vicinity sizes across a structural patch.

        Returns the per-level dirty-node arrays when an index was live (so
        the applied batch can hand them to the dirty tracker), ``None``
        otherwise.
        """
        index = self._vicinity_index
        if index is None:
            return None
        endpoints: Set[int] = set()
        for u, v in added | removed:
            endpoints.add(u)
            endpoints.add(v)
        dirty = {
            level: dirty_vicinity(old_csr, new_csr, sorted(endpoints), level - 1)
            for level in index.levels
        }
        self._vicinity_index = index.rebase(new_csr, dirty)
        return dirty

    def restore(
        self,
        csr: CSRGraph,
        events,
        epoch: int,
        structure_version: int,
    ) -> None:
        """Swap in recovered state (the checkpoint-load counterpart of
        :meth:`apply`).

        Replaces the CSR and event layer wholesale, pins the epoch and
        structure version to the recovered values, and drops every derived
        cache (vicinity index, indicator cache, memoised snapshots) — the
        graph then looks exactly as it did when the checkpoint was cut, and
        WAL-tail batches replay on top through the normal :meth:`apply`
        path.  Only meaningful on a freshly constructed graph during boot;
        any leases pinned before the restore keep their old snapshots.
        """
        if csr.num_nodes != self.csr.num_nodes:
            raise ValueError(
                f"restored CSR has {csr.num_nodes} nodes, graph has "
                f"{self.csr.num_nodes}"
            )
        if events.num_nodes != csr.num_nodes:
            raise ValueError(
                "restored event layer covers a different number of nodes "
                "than the restored CSR"
            )
        with self._mutate_lock:
            self.csr = csr
            self.events = events
            self.structure_version = int(structure_version)
            self._epoch = int(epoch)
            self._epoch_versions = self.versions()
            self._vicinity_index = None
            self._indicator_cache = {}
            self._indicator_cache_version = events.version
            self._leases.advance(self._epoch)

    def snapshot(self) -> GraphSnapshot:
        """The current epoch's frozen state (memoised per epoch).

        The returned :class:`~repro.streaming.snapshots.GraphSnapshot` — an
        :class:`AttributedGraph` — shares the immutable CSR but owns a
        copied event layer, so ranking it with a fresh
        :class:`~repro.core.batch.BatchTescEngine` gives the from-scratch
        baseline the streaming equivalence tests compare against.  Repeated
        calls at the same epoch return the same object; the snapshot stays
        valid for as long as the caller references it, independent of lease
        retention (use :meth:`pin` when you need the lease lifecycle).
        """
        with self._mutate_lock:
            return self._current_state()
