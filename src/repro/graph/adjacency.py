"""Mutable undirected graph stored as adjacency sets.

This is the construction-time representation: nodes are dense integer ids
``0..num_nodes-1`` and edges are undirected and unweighted, matching the
paper's setting ("for the sake of simplicity, we assume G is undirected and
unweighted").  The hot traversal paths convert to :class:`repro.graph.csr.CSRGraph`.

A graph made from a CSR (:meth:`Graph.from_csr`, which the edge-list reader
and :meth:`CSRGraph.to_graph` return) keeps that CSR and builds its sets on
first use, so loading a file for traversal never builds a set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import EdgeError, NodeNotFoundError

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph


class Graph:
    """An undirected, unweighted graph over dense integer node ids.

    Parameters
    ----------
    num_nodes:
        Number of nodes to pre-allocate.  Nodes are identified by the
        integers ``0 .. num_nodes - 1``; more can be added with
        :meth:`add_node` / :meth:`add_nodes`.

    Notes
    -----
    Self-loops are rejected and parallel edges are collapsed, because neither
    affects h-vicinities but both would distort density normalisation.
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self._adjacency: List[Set[int]] = [set() for _ in range(num_nodes)]
        self._num_edges = 0
        self._csr: Optional["CSRGraph"] = None

    @classmethod
    def from_csr(cls, csr: "CSRGraph",
                 edge_order: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> "Graph":
        """A graph equal to ``csr`` that keeps it and builds its sets lazily.

        The adjacency sets are built on the first read or mutation, by
        adding the edges ``zip(*edge_order)`` in order (duplicates allowed),
        or ``csr``'s edges ``u < v`` in row order when ``edge_order`` is
        ``None``, so they iterate exactly like sets built by :meth:`add_edge`
        calls in that order.  :meth:`to_csr` returns ``csr`` until the graph
        is mutated.
        """
        graph = cls.__new__(cls)
        graph._num_edges = csr.num_edges
        graph._csr = csr
        graph._edge_order = edge_order
        return graph

    def __getattr__(self, name: str):
        # Reached only for ``_adjacency`` of a from_csr graph not built yet.
        if name != "_adjacency" or "_csr" not in self.__dict__:
            raise AttributeError(name)
        csr, edge_order = self._csr, self.__dict__.get("_edge_order")
        if edge_order is None:
            rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
            upper = rows < csr.indices
            edge_order = rows[upper], csr.indices[upper]
        adjacency: List[Set[int]] = [set() for _ in range(csr.num_nodes)]
        for u, v in zip(edge_order[0].tolist(), edge_order[1].tolist()):
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency = adjacency
        self.__dict__.pop("_edge_order", None)
        return adjacency

    # -- construction -----------------------------------------------------

    def add_node(self) -> int:
        """Append a new isolated node and return its id."""
        self._adjacency.append(set())
        self._csr = None
        return len(self._adjacency) - 1

    def add_nodes(self, count: int) -> List[int]:
        """Append ``count`` isolated nodes and return their ids."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        first = len(self._adjacency)
        self._adjacency.extend(set() for _ in range(count))
        self._csr = None
        return list(range(first, first + count))

    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already existed.
        Raises :class:`EdgeError` for self-loops and
        :class:`NodeNotFoundError` for unknown endpoints.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise EdgeError(f"self-loop ({u}, {v}) is not allowed")
        if v in self._adjacency[u]:
            return False
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self._csr = None
        return True

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many edges; returns how many were actually new."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the undirected edge ``(u, v)``; returns ``True`` if present."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._adjacency[u]:
            return False
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1
        self._csr = None
        return True

    # -- queries ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return self._num_edges

    def has_node(self, node: int) -> bool:
        """Whether ``node`` is a valid node id."""
        return 0 <= node < len(self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        return self.has_node(u) and self.has_node(v) and v in self._adjacency[u]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return len(self._adjacency[node])

    def neighbors(self, node: int) -> Set[int]:
        """The neighbour set of ``node`` (a copy is *not* made; do not mutate)."""
        self._check_node(node)
        return self._adjacency[node]

    def nodes(self) -> range:
        """All node ids."""
        return range(len(self._adjacency))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u, neighbours in enumerate(self._adjacency):
            for v in neighbours:
                if u < v:
                    yield (u, v)

    def copy(self) -> "Graph":
        """A deep copy of this graph."""
        clone = Graph(self.num_nodes)
        clone._adjacency = [set(neigh) for neigh in self._adjacency]
        clone._num_edges = self._num_edges
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # -- conversion --------------------------------------------------------

    def to_csr(self) -> "CSRGraph":
        """Convert to the immutable CSR representation used by traversal
        (the kept CSR of an unmodified :meth:`from_csr` graph)."""
        if self._csr is not None:
            return self._csr
        from repro.graph.csr import CSRGraph

        return CSRGraph.from_adjacency(self._adjacency)

    # -- internal ----------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not (0 <= node < len(self._adjacency)):
            raise NodeNotFoundError(node)
