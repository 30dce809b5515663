"""Event occurrence storage.

:class:`EventLayer` is a two-way index between event names and the nodes on
which they occur: ``V_a`` lookups (event → sorted node array) and ``Q_v``
lookups (node → event names).  Occurrences are sets — a node either has an
event or it does not; per-node intensities are modelled separately in
:mod:`repro.events.intensity`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Set

import numpy as np

from repro.exceptions import EventError, UnknownEventError


class EventLayer:
    """Mapping between events and the graph nodes they occur on.

    Parameters
    ----------
    num_nodes:
        Number of nodes in the underlying graph; occurrences outside
        ``[0, num_nodes)`` are rejected.

    Examples
    --------
    >>> layer = EventLayer(num_nodes=10)
    >>> layer.add_occurrences("wireless", [1, 2, 3])
    >>> layer.add_occurrence("sensor", 2)
    >>> sorted(layer.events_of(2))
    ['sensor', 'wireless']
    >>> list(layer.nodes_of("wireless"))
    [1, 2, 3]
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self.num_nodes = num_nodes
        self._event_to_nodes: Dict[str, Set[int]] = {}
        self._node_to_events: Dict[int, Set[str]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation.

        Callers that memoise derived data (e.g. the indicator cache on
        :class:`~repro.events.attributed_graph.AttributedGraph`) compare this
        counter to detect staleness instead of hashing the occurrence sets.
        """
        return self._version

    # -- construction -------------------------------------------------------

    def add_occurrence(self, event: str, node: int) -> bool:
        """Record that ``event`` occurred on ``node``.

        Returns ``True`` when the occurrence is new, ``False`` for a repeat
        (occurrences are sets).  The :attr:`version` counter is bumped only
        on an actual change, so memoised indicators survive no-op replays of
        a delta stream.
        """
        if not isinstance(event, str) or not event:
            raise EventError(f"event name must be a non-empty string, got {event!r}")
        node = int(node)
        if not (0 <= node < self.num_nodes):
            raise EventError(
                f"node {node} is outside the graph (num_nodes={self.num_nodes})"
            )
        nodes = self._event_to_nodes.setdefault(event, set())
        if node in nodes:
            return False
        nodes.add(node)
        self._node_to_events.setdefault(node, set()).add(event)
        self._version += 1
        return True

    def remove_occurrence(self, event: str, node: int) -> bool:
        """Erase one occurrence of ``event`` on ``node``.

        Returns ``True`` when the occurrence existed and was removed,
        ``False`` when it was absent (including unknown events) — streaming
        detach deltas replay idempotently.  An event whose last occurrence is
        removed stays registered with an empty node set, so monitored events
        keep resolving (with zero occurrences) rather than raising.
        """
        node = int(node)
        nodes = self._event_to_nodes.get(event)
        if nodes is None or node not in nodes:
            return False
        nodes.discard(node)
        events = self._node_to_events.get(node)
        if events is not None:
            events.discard(event)
            if not events:
                del self._node_to_events[node]
        self._version += 1
        return True

    def add_occurrences(self, event: str, nodes: Iterable[int]) -> None:
        """Record that ``event`` occurred on every node in ``nodes``."""
        for node in nodes:
            self.add_occurrence(event, int(node))

    @classmethod
    def from_mapping(cls, num_nodes: int,
                     mapping: Mapping[str, Iterable[int]]) -> "EventLayer":
        """Build a layer from ``{event: iterable of node ids}``."""
        layer = cls(num_nodes)
        for event, nodes in mapping.items():
            layer.add_occurrences(event, nodes)
        return layer

    def remove_event(self, event: str) -> None:
        """Remove an event and all its occurrences."""
        nodes = self._event_to_nodes.pop(event, None)
        if nodes is None:
            raise UnknownEventError(event)
        self._version += 1
        for node in nodes:
            events = self._node_to_events.get(node)
            if events is not None:
                events.discard(event)
                if not events:
                    del self._node_to_events[node]

    # -- queries --------------------------------------------------------------

    def events(self) -> List[str]:
        """All event names, sorted."""
        return sorted(self._event_to_nodes)

    def __contains__(self, event: str) -> bool:
        return event in self._event_to_nodes

    def __len__(self) -> int:
        return len(self._event_to_nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._event_to_nodes))

    def has_event(self, event: str) -> bool:
        """Whether ``event`` has at least one occurrence."""
        return event in self._event_to_nodes

    def nodes_of(self, event: str) -> np.ndarray:
        """``V_event`` as a sorted int64 array."""
        nodes = self._event_to_nodes.get(event)
        if nodes is None:
            raise UnknownEventError(event)
        return np.array(sorted(nodes), dtype=np.int64)

    def occurrence_count(self, event: str) -> int:
        """``|V_event|``."""
        nodes = self._event_to_nodes.get(event)
        if nodes is None:
            raise UnknownEventError(event)
        return len(nodes)

    def events_of(self, node: int) -> Set[str]:
        """``Q_node`` — the set of events occurring on ``node`` (a copy)."""
        return set(self._node_to_events.get(int(node), set()))

    def indicator(self, event: str) -> np.ndarray:
        """Boolean vector of length ``num_nodes``: node has ``event``."""
        marked = np.zeros(self.num_nodes, dtype=bool)
        marked[self.nodes_of(event)] = True
        return marked

    def event_sizes(self) -> Dict[str, int]:
        """``{event: |V_event|}`` for all events."""
        return {event: len(nodes) for event, nodes in self._event_to_nodes.items()}

    def to_mapping(self) -> Dict[str, List[int]]:
        """Plain ``{event: sorted node list}`` representation (for IO)."""
        return {event: sorted(nodes) for event, nodes in self._event_to_nodes.items()}

    def restore_version(self, version: int) -> None:
        """Pin the :attr:`version` counter to a recovered value.

        Used when the layer is rebuilt from a checkpoint: the occurrences are
        reconstructed via :meth:`from_mapping` (which bumps the counter once
        per occurrence), then the counter is pinned to the version recorded
        in the manifest so caches keyed by ``(structure_version,
        events.version)`` keep matching across a restart.
        """
        self._version = int(version)

    def copy(self) -> "EventLayer":
        """Deep copy of the layer.

        Events whose occurrence set has been emptied (e.g. by streaming
        detach deltas) stay registered in the copy.  The :attr:`version`
        counter is preserved, so a snapshot's copied layer still identifies
        the graph state it was taken from — caches keyed by
        ``(structure_version, events.version)`` (indicator caches) must not
        conflate two snapshots of different states taken at the same
        structure version.
        """
        clone = EventLayer(self.num_nodes)
        clone._event_to_nodes = {
            event: set(nodes) for event, nodes in self._event_to_nodes.items()
        }
        clone._node_to_events = {
            node: set(events) for node, events in self._node_to_events.items()
        }
        clone._version = self._version
        return clone

    def __repr__(self) -> str:
        return (
            f"EventLayer(num_nodes={self.num_nodes}, "
            f"num_events={len(self._event_to_nodes)})"
        )
