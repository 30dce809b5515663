"""The attributed graph: a graph plus its event layer.

:class:`AttributedGraph` is the central user-facing object.  It owns the CSR
graph used by traversal, the :class:`~repro.events.event_set.EventLayer`, an
optional node-label list, and a lazily built
:class:`~repro.graph.vicinity.VicinityIndex` shared by the samplers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.events.event_set import EventLayer
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.vicinity import VicinityIndex


class AttributedGraph:
    """A graph whose nodes carry events.

    Parameters
    ----------
    graph:
        Either a mutable :class:`Graph` or an immutable :class:`CSRGraph`.
        Mutable graphs are converted to CSR once at construction time.
    events:
        An :class:`EventLayer`, or a plain ``{event: node ids}`` mapping.
    labels:
        Optional human-readable node labels (author names, IPs, ...).
    """

    def __init__(
        self,
        graph: Union[Graph, CSRGraph],
        events: Union[EventLayer, Mapping[str, Iterable[int]], None] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if isinstance(graph, Graph):
            self.csr = graph.to_csr()
        elif isinstance(graph, CSRGraph):
            self.csr = graph
        else:
            raise TypeError(f"graph must be Graph or CSRGraph, got {type(graph).__name__}")

        if events is None:
            self.events = EventLayer(self.csr.num_nodes)
        elif isinstance(events, EventLayer):
            if events.num_nodes != self.csr.num_nodes:
                raise ValueError(
                    "event layer covers a different number of nodes than the graph"
                )
            self.events = events
        else:
            self.events = EventLayer.from_mapping(self.csr.num_nodes, events)

        if labels is not None and len(labels) != self.csr.num_nodes:
            raise ValueError("labels length must equal the number of nodes")
        self.labels = list(labels) if labels is not None else None
        self._vicinity_index: Optional[VicinityIndex] = None
        self._indicator_cache: Dict[str, np.ndarray] = {}
        self._indicator_cache_version = self.events.version

    # -- basic delegation -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self.csr.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return self.csr.num_edges

    def label_of(self, node: int) -> str:
        """Human-readable label for ``node`` (falls back to the id)."""
        if self.labels is None:
            return str(node)
        return str(self.labels[node])

    def versions(self) -> tuple:
        """``(structure_version, events_version)`` of the current state.

        The pair uniquely identifies one graph state: dynamic graphs bump
        ``structure_version`` on every effective structural commit, the
        event layer bumps its version on every occurrence change.  Static
        graphs report structure version ``0``.  Snapshot handles pin this
        pair, and every version-keyed cache (indicator cache, service epoch
        map) derives its key from it.
        """
        return (
            int(getattr(self, "structure_version", 0)),
            int(self.events.version),
        )

    def snapshot(self) -> "AttributedGraph":
        """A static copy of the current state (shared CSR, copied events).

        The CSR is immutable and therefore shared; the event layer is
        deep-copied (version preserved), so later mutations of this graph
        leave the returned snapshot untouched.
        :class:`~repro.streaming.dynamic_graph.DynamicAttributedGraph`
        overrides this with an epoch-memoised variant backed by the lease
        table.
        """
        return AttributedGraph(self.csr, self.events.copy(), labels=self.labels)

    # -- event helpers ---------------------------------------------------------

    def event_nodes(self, event: str) -> np.ndarray:
        """``V_event`` as a sorted array."""
        return self.events.nodes_of(event)

    def event_union(self, event_a: str, event_b: str) -> np.ndarray:
        """``V_{a∪b}`` — nodes having at least one of the two events."""
        return np.union1d(self.events.nodes_of(event_a), self.events.nodes_of(event_b))

    def event_indicator(self, event: str) -> np.ndarray:
        """Boolean occurrence vector for ``event`` (memoised).

        Indicators are cached per event and invalidated whenever the event
        layer mutates, so batch workloads that revisit the same events
        (:class:`~repro.core.batch.BatchTescEngine`, Tables 1–5 loops) build
        each vector once.  The returned array is shared — treat it as
        read-only.
        """
        if self._indicator_cache_version != self.events.version:
            self._indicator_cache.clear()
            self._indicator_cache_version = self.events.version
        cached = self._indicator_cache.get(event)
        if cached is None:
            cached = self.events.indicator(event)
            cached.setflags(write=False)
            self._indicator_cache[event] = cached
        return cached

    def indicator_matrix(self, events: Sequence[str]) -> np.ndarray:
        """Stacked boolean indicators, one row per event in ``events``.

        The ``(len(events), num_nodes)`` matrix feeds
        :meth:`~repro.core.density.DensityComputer.density_matrix`, which
        reads the densities of *all* events off each reference vicinity in
        one vectorised pass.  Rows come from the per-event indicator cache.
        """
        if not events:
            return np.zeros((0, self.num_nodes), dtype=bool)
        return np.stack([self.event_indicator(event) for event in events])

    def event_names(self) -> List[str]:
        """All event names."""
        return self.events.events()

    # -- indices ---------------------------------------------------------------

    def vicinity_index(self, levels: Iterable[int] = (1, 2, 3)) -> VicinityIndex:
        """The shared lazily-populated vicinity-size index.

        The first call creates the index; later calls return the same object
        as long as the requested levels are covered, otherwise a new index is
        created covering the union of levels.
        """
        requested = tuple(sorted(set(int(level) for level in levels)))
        if self._vicinity_index is None or any(
            level not in self._vicinity_index.levels for level in requested
        ):
            merged = requested
            if self._vicinity_index is not None:
                merged = tuple(sorted(set(requested) | set(self._vicinity_index.levels)))
            self._vicinity_index = VicinityIndex(self.csr, levels=merged, lazy=True)
        return self._vicinity_index

    def invalidate_vicinity(self, nodes: Optional[Iterable[int]] = None) -> None:
        """Drop memoised vicinity sizes after a graph mutation.

        ``nodes=None`` clears the whole index; otherwise only the given nodes
        are invalidated (pass every node whose vicinity may have changed —
        nodes within ``h - 1`` hops of a touched edge endpoint).  This is the
        public partial-invalidation seam for code that mutates graphs by
        means other than the streaming delta path (which rebases its index
        via :meth:`~repro.graph.vicinity.VicinityIndex.rebase` instead); it
        is a no-op while no vicinity index has been built yet.
        """
        if self._vicinity_index is not None:
            self._vicinity_index.invalidate(nodes)

    # -- summaries ---------------------------------------------------------------

    def event_summary(self) -> Dict[str, int]:
        """``{event: occurrence count}`` over all events."""
        return self.events.event_sizes()

    def __repr__(self) -> str:
        return (
            f"AttributedGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"num_events={len(self.events)})"
        )
