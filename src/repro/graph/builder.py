"""Incremental graph builder.

`GraphBuilder` accepts arbitrary hashable node labels (author names, IP
addresses, user handles), assigns dense integer ids, and produces both the
CSR graph and the label mapping.  The synthetic dataset generators are built
on top of it; the edge-list reader assigns ids in the same first-seen order
without it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph


class GraphBuilder:
    """Accumulate labelled edges and build a dense-id graph.

    Examples
    --------
    >>> builder = GraphBuilder()
    >>> builder.add_edge("alice", "bob")
    >>> builder.add_edge("bob", "carol")
    >>> graph = builder.build()
    >>> graph.num_nodes, graph.num_edges
    (3, 2)
    >>> builder.node_id("carol")
    2
    """

    def __init__(self) -> None:
        self._labels: Dict[Hashable, int] = {}
        self._order: List[Hashable] = []
        self._edges: List[Tuple[int, int]] = []

    def add_node(self, label: Hashable) -> int:
        """Register ``label`` (if new) and return its dense id."""
        node_id = self._labels.get(label)
        if node_id is None:
            node_id = len(self._order)
            self._labels[label] = node_id
            self._order.append(label)
        return node_id

    def add_edge(self, source: Hashable, target: Hashable) -> None:
        """Register an undirected edge between two labelled nodes."""
        u = self.add_node(source)
        v = self.add_node(target)
        if u != v:
            self._edges.append((u, v))

    def add_edges(self, edges: Iterable[Tuple[Hashable, Hashable]]) -> None:
        """Register many labelled edges."""
        for source, target in edges:
            self.add_edge(source, target)

    @property
    def num_nodes(self) -> int:
        """Number of distinct labels registered so far."""
        return len(self._order)

    @property
    def num_edge_records(self) -> int:
        """Number of edge records registered (duplicates not collapsed yet)."""
        return len(self._edges)

    def node_id(self, label: Hashable) -> Optional[int]:
        """Dense id for ``label``, or ``None`` if it was never registered."""
        return self._labels.get(label)

    def label_of(self, node_id: int) -> Hashable:
        """Label originally supplied for dense id ``node_id``."""
        return self._order[node_id]

    def labels(self) -> List[Hashable]:
        """All labels in dense-id order."""
        return list(self._order)

    def build(self) -> Graph:
        """Build the mutable :class:`Graph` (duplicates collapsed)."""
        graph = Graph(len(self._order))
        graph.add_edges(self._edges)
        return graph

    def build_csr(self) -> CSRGraph:
        """Build the immutable :class:`CSRGraph` directly."""
        return CSRGraph.from_edges(len(self._order), self._edges)
