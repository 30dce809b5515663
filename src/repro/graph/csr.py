"""Immutable compressed-sparse-row (CSR) graph.

The TESC framework spends essentially all of its time doing h-hop breadth
first searches.  The CSR layout stores every adjacency list contiguously in
one ``indices`` array addressed through ``indptr``, so a BFS touches memory
sequentially and neighbour iteration needs no Python-level set machinery.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError, NodeNotFoundError


class CSRGraph:
    """An immutable undirected graph in compressed sparse row form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; the neighbours of node
        ``v`` are ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32``/``int64`` array of neighbour ids, both directions of each
        undirected edge stored once per endpoint.
    epoch:
        Copy-on-write generation tag.  A freshly built graph sits at epoch
        ``0``; every :meth:`replace_rows` splice returns a *new* CSR
        stamped ``epoch + 1`` while this object — and every row buffer it
        owns — stays untouched, which is what lets
        snapshot readers keep traversing retired row arrays until their
        lease drops (see :mod:`repro.streaming.snapshots`).
    """

    __slots__ = ("indptr", "indices", "epoch", "_num_edges")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 epoch: int = 0) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.epoch = int(epoch)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if self.indptr.size == 0 or self.indptr[0] != 0:
            raise GraphError("indptr must start with 0 and be non-empty")
        if self.indptr[-1] != self.indices.size:
            raise GraphError("indptr[-1] must equal len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        self._num_edges = int(self.indices.size // 2)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Iterable[int]]) -> "CSRGraph":
        """Build from a sequence of per-node neighbour collections.

        Each neighbour collection is materialised exactly once, so one-shot
        iterables (generators) are safe to pass.
        """
        neighbour_lists: List[List[int]] = [sorted(neigh) for neigh in adjacency]
        degrees = np.array([len(neigh) for neigh in neighbour_lists], dtype=np.int64)
        indptr = np.zeros(len(neighbour_lists) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for node, neigh in enumerate(neighbour_lists):
            indices[indptr[node]:indptr[node + 1]] = neigh
        return cls(indptr, indices)

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Tuple[int, int]]) -> "CSRGraph":
        """Build from an edge list over ``num_nodes`` nodes.

        Self-loops are rejected; duplicate edges are collapsed.
        """
        adjacency: List[Set[int]] = [set() for _ in range(num_nodes)]
        for u, v in edges:
            if not (0 <= u < num_nodes) or not (0 <= v < num_nodes):
                raise NodeNotFoundError(u if not (0 <= u < num_nodes) else v)
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            adjacency[u].add(v)
            adjacency[v].add(u)
        return cls.from_adjacency(adjacency)

    # -- queries ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    @property
    def nbytes(self) -> int:
        """Bytes held by the row arrays (lease-table retention accounting)."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees."""
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node`` as a read-only array view."""
        self._check_node(node)
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        self._check_node(u)
        self._check_node(v)
        row = self.neighbors(u)
        position = np.searchsorted(row, v)
        return bool(position < row.size and row[position] == v)

    def nodes(self) -> range:
        """All node ids."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < int(v):
                    yield (u, int(v))

    def to_graph(self) -> "Graph":
        """Convert back to the mutable adjacency-set representation."""
        from repro.graph.adjacency import Graph

        graph = Graph(self.num_nodes)
        graph.add_edges(self.edges())
        return graph

    def replace_rows(self, rows: Dict[int, Sequence[int]]) -> "CSRGraph":
        """A new CSR with the given adjacency rows swapped in wholesale.

        ``rows`` maps node ids to their complete new (sorted, ascending)
        neighbour lists; every other row is block-copied from this graph,
        so the cost is one ``O(|E|)`` memcpy plus work proportional to the
        touched rows.  The streaming graph nets its deltas through a
        per-node overlay and splices the final rows in here
        (:meth:`repro.streaming.DynamicAttributedGraph.apply`).  The caller
        is responsible for symmetry: if ``v`` appears in ``rows[u]`` but the
        ``(u, v)`` edge is new, ``rows`` must also patch ``v``'s list.
        """
        if not rows:
            return self
        degrees = np.diff(self.indptr).copy()
        touched = np.array(sorted(rows), dtype=np.int64)
        if touched[0] < 0 or touched[-1] >= self.num_nodes:
            bad = touched[0] if touched[0] < 0 else touched[-1]
            raise NodeNotFoundError(int(bad))
        degrees[touched] = [len(rows[int(node)]) for node in touched]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        # Copy the untouched stretches between consecutive touched rows in
        # bulk; only the touched rows themselves are written element-wise.
        previous = 0
        for node in touched:
            node = int(node)
            if previous < node:
                indices[indptr[previous]:indptr[node]] = (
                    self.indices[self.indptr[previous]:self.indptr[node]]
                )
            indices[indptr[node]:indptr[node + 1]] = rows[node]
            previous = node + 1
        if previous < self.num_nodes:
            indices[indptr[previous]:] = self.indices[self.indptr[previous]:]
        return CSRGraph(indptr, indices, epoch=self.epoch + 1)

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # -- internal -----------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise NodeNotFoundError(node)
