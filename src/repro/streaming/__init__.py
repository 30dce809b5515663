"""Streaming updates: dynamic graphs and the commit journal.

The subsystem has three layers:

* :mod:`repro.streaming.delta` — the :class:`Delta` / :class:`DeltaBatch` /
  :class:`DeltaLog` update model (edge insert/delete, event attach/detach)
  and its JSONL wire format;
* :mod:`repro.streaming.dynamic_graph` —
  :class:`DynamicAttributedGraph`, which applies batches by patching CSR
  adjacency rows and bumping the event-layer version instead of rebuilding
  the world;
* :mod:`repro.streaming.dirty` — :class:`DirtyTracker`, the per-epoch
  journal of what each commit invalidated (structural recomputes within
  ``h - 1`` hops of a touched endpoint, ``± 1`` count patches for event
  toggles).

Ranking over a changing graph goes through
:func:`repro.api.open_session`: every ``rank`` after a commit carries the
clean density columns of the previous epoch's matrix forward through the
journal and BFS-counts only the dirty ones, bit-identical to a fresh
:class:`~repro.core.batch.BatchTescEngine` run on the same graph state with
the same seed.
"""

from repro.streaming.delta import (
    Delta,
    DeltaBatch,
    DeltaError,
    DeltaLog,
)
from repro.streaming.dirty import DirtyRegion, DirtyTracker
from repro.streaming.dynamic_graph import AppliedBatch, DynamicAttributedGraph

__all__ = [
    "AppliedBatch",
    "Delta",
    "DeltaBatch",
    "DeltaError",
    "DeltaLog",
    "DirtyRegion",
    "DirtyTracker",
    "DynamicAttributedGraph",
]
