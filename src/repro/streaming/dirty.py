"""The per-epoch commit journal behind the service's density count tables.

The density column of a reference node ``r`` — the numerators
``|V_e ∩ V^h_r|`` for every requested event ``e`` plus the denominator
``|V^h_r|`` — changes under a delta batch in exactly two ways:

* **structurally**, when an edge delta changes ``V^h_r`` itself.  That
  requires ``r`` to lie within ``h - 1`` hops of a touched endpoint (on the
  old graph for removals, the new graph for additions — see
  :func:`~repro.graph.traversal.dirty_vicinity`); those columns must be
  recomputed with a fresh BFS;
* **by occupancy**, when an event attach/detach at node ``x`` toggles a
  member of ``V^h_r``, i.e. when ``r ∈ V^h_x`` (hop distance is symmetric).
  Structurally *clean* columns need no BFS for this: the affected count is
  patched by ``± 1``.

:class:`DirtyTracker` journals both per committed epoch — the structural
dirty set and the effective toggles — and the
:class:`~repro.service.engine.ServiceEngine` reads the journal between a
held count table's epoch and a request's epoch to advance the table's
clean columns.  Toggle *regions* are deliberately not journaled: the reader
computes ``V^h_x`` on its own pinned snapshot, which is sound because a
column no structural commit dirtied has the same vicinity at every epoch of
the span.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.traversal import dirty_vicinity
from repro.streaming.dynamic_graph import AppliedBatch
from repro.utils.validation import check_vicinity_level


@dataclass(frozen=True)
class DirtyRegion:
    """Everything one committed batch invalidates at one vicinity level."""

    level: int
    #: Nodes whose ``V^h`` may have changed — their density columns (and
    #: vicinity sizes) must be recomputed from scratch.
    structure: np.ndarray
    #: Effective event toggles as ``(event, node, sign)``: ``+1`` for an
    #: attach, ``-1`` for a detach.  Every column whose node lies in
    #: ``V^h_node`` shifts its ``event`` count by ``sign``.
    toggles: Tuple[Tuple[str, int, int], ...]

    @property
    def is_empty(self) -> bool:
        """Whether the batch dirtied nothing at this level."""
        return self.structure.size == 0 and not self.toggles


class DirtyTracker:
    """A bounded per-epoch journal of :class:`DirtyRegion` at a fixed level.

    Parameters
    ----------
    level:
        The vicinity level ``h`` the regions are computed at.
    journal_size:
        Journaled epochs kept; older ones age out, and a span reaching past
        them reads as unjournaled (:meth:`between` returns ``None``).

    One writer (the commit path) and any number of concurrent readers may
    use the journal: readers only look entries up by epoch.
    """

    def __init__(self, level: int, journal_size: int = 16) -> None:
        self.level = check_vicinity_level(level)
        self.journal_size = max(1, int(journal_size))
        self._journal: "OrderedDict[int, DirtyRegion]" = OrderedDict()

    def region(self, applied: AppliedBatch) -> DirtyRegion:
        """The dirty region of one applied batch (not journaled)."""
        if applied.structure_changed:
            # The vicinity-index rebase may have run the same endpoint BFS
            # already (same radius, same graphs) — reuse it rather than pay
            # the traversal twice per commit.
            cached = (applied.vicinity_dirty or {}).get(self.level)
            structure = (
                cached if cached is not None
                else dirty_vicinity(
                    applied.old_csr,
                    applied.new_csr,
                    applied.touched_endpoints(),
                    self.level - 1,
                )
            )
        else:
            structure = np.empty(0, dtype=np.int64)
        toggles = tuple(
            [(event, node, +1) for event, node in applied.attached]
            + [(event, node, -1) for event, node in applied.detached]
        )
        return DirtyRegion(level=self.level, structure=structure, toggles=toggles)

    def record(self, applied: AppliedBatch) -> DirtyRegion:
        """Journal the region of ``applied`` under the epoch it produced.

        The entry describes the step from ``applied.epoch - 1`` to
        ``applied.epoch`` (an effective apply bumps the epoch by exactly
        one).  Batches without effect produce no epoch and are not recorded.
        """
        region = self.region(applied)
        if applied.changed:
            self._journal[int(applied.epoch)] = region
            while len(self._journal) > self.journal_size:
                self._journal.popitem(last=False)
        return region

    def between(self, since: int, until: int) -> Optional[List[DirtyRegion]]:
        """The journaled regions of the epochs ``since + 1 .. until``.

        ``None`` when any of those epochs is missing — never journaled (an
        out-of-band mutation, recovery replay) or aged out — or when
        ``until`` precedes ``since``.  An empty span returns ``[]``.
        """
        if until < since:
            return None
        regions = []
        for epoch in range(int(since) + 1, int(until) + 1):
            region = self._journal.get(epoch)
            if region is None:
                return None
            regions.append(region)
        return regions
