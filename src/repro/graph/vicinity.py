"""Pre-computed vicinity-size index.

Rejection sampling and Importance sampling (Section 4.2) need ``|V^h_v|`` for
every event node ``v``.  The paper pre-computes these sizes offline with an
``h_max``-hop BFS from every node; the index costs only ``O(|V|)`` space per
vicinity level and "can be efficiently updated as the graph changes".

:class:`VicinityIndex` reproduces that index, with optional lazy computation
(only the nodes that are actually queried are expanded) so the synthetic
experiments do not pay for a full offline pass when only a small ``V_{a∪b}``
is involved.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.utils.validation import check_vicinity_level, sorted_unique


class VicinityIndex:
    """Index of ``|V^h_v|`` for one or more vicinity levels.

    Parameters
    ----------
    graph:
        The CSR graph to index.
    levels:
        Vicinity levels to support (default ``(1, 2, 3)``, the levels the
        paper focuses on).
    lazy:
        When ``True`` (default) sizes are computed on first access and
        memoised; :meth:`precompute` forces the full offline pass.
    """

    def __init__(
        self,
        graph: CSRGraph,
        levels: Iterable[int] = (1, 2, 3),
        lazy: bool = True,
    ) -> None:
        self.graph = graph
        self.levels = tuple(sorted({check_vicinity_level(level) for level in levels}))
        if not self.levels:
            raise ValueError("at least one vicinity level is required")
        self._engine = BFSEngine(graph)
        self._sizes: Dict[int, np.ndarray] = {
            level: np.full(graph.num_nodes, -1, dtype=np.int64) for level in self.levels
        }
        if not lazy:
            self.precompute()

    def precompute(self, level: Optional[int] = None) -> None:
        """Compute sizes for every node (the paper's offline pass).

        The pass runs through the grouped multi-source BFS
        (:meth:`~repro.graph.traversal.BFSEngine.vicinity_sizes`), which
        advances a whole block of per-node searches per vectorised frontier
        expansion instead of looping one Python BFS per node.
        """
        levels = [level] if level is not None else list(self.levels)
        for lvl in levels:
            self._require_level(lvl)
            self._fill_missing(np.arange(self.graph.num_nodes, dtype=np.int64), lvl)

    def _fill_missing(self, nodes: np.ndarray, level: int) -> None:
        """Compute and memoise sizes for the uncached nodes among ``nodes``."""
        sizes = self._sizes[level]
        missing = nodes[sizes[nodes] < 0]
        if missing.size:
            sizes[missing] = self._engine.vicinity_sizes(missing, level)

    def size(self, node: int, level: int) -> int:
        """``|V^h_node|`` for ``h = level`` (computed lazily if needed)."""
        self._require_level(level)
        cached = self._sizes[level][node]
        if cached >= 0:
            return int(cached)
        size = int(self._engine.vicinity(node, level).size)
        self._sizes[level][node] = size
        return size

    def sizes(self, nodes: Iterable[int], level: int) -> np.ndarray:
        """Vector of ``|V^h_v|`` for the given nodes.

        Uncached nodes are expanded together through one grouped BFS rather
        than one at a time, so a cold index pays a few vectorised passes
        instead of ``len(nodes)`` Python-level searches.
        """
        self._require_level(level)
        node_array = np.fromiter(
            (int(node) for node in nodes), dtype=np.int64
        )
        self._fill_missing(sorted_unique(node_array), level)
        return self._sizes[level][node_array].copy()

    def total_size(self, nodes: Iterable[int], level: int) -> int:
        """``N_sum = sum_v |V^h_v|`` over the given nodes (Section 4.2)."""
        return int(self.sizes(nodes, level).sum())

    def invalidate(self, nodes: Optional[Iterable[int]] = None) -> None:
        """Drop cached sizes after a graph mutation.

        ``nodes=None`` clears the whole index; otherwise only the given nodes
        are invalidated (callers should pass every node whose ``h_max``
        vicinity touched the mutated edge).
        """
        if nodes is None:
            for level in self.levels:
                self._sizes[level].fill(-1)
            return
        node_array = np.fromiter((int(n) for n in nodes), dtype=np.int64)
        for level in self.levels:
            self._sizes[level][node_array] = -1

    def rebase(
        self,
        graph: CSRGraph,
        dirty: Optional[Mapping[int, Iterable[int]]] = None,
    ) -> "VicinityIndex":
        """A new index over a structurally patched graph, keeping clean sizes.

        ``dirty`` maps each level to the nodes whose ``|V^h_v|`` may have
        changed under the patch (nodes within ``h - 1`` hops of a touched
        edge endpoint); those entries are dropped, every other memoised size
        is carried over.  ``dirty=None`` carries nothing over (a full
        invalidation).  This is the "efficiently updated as the graph
        changes" property the paper claims for the offline index.
        """
        rebased = VicinityIndex(graph, levels=self.levels, lazy=True)
        if dirty is None or graph.num_nodes != self.graph.num_nodes:
            return rebased
        for level in self.levels:
            rebased._sizes[level][:] = self._sizes[level]
            nodes = dirty.get(level)
            if nodes is None:
                rebased._sizes[level].fill(-1)
                continue
            node_array = np.asarray(
                nodes if isinstance(nodes, np.ndarray) else list(nodes),
                dtype=np.int64,
            )
            if node_array.size:
                rebased._sizes[level][node_array] = -1
        return rebased

    def export_sizes(self) -> Dict[int, np.ndarray]:
        """Copies of the memoised ``|V^h_v|`` columns, keyed by level.

        Uncomputed entries are ``-1``; the checkpoint store persists the
        columns verbatim so a restored index resumes with exactly the warmth
        it had when the checkpoint was cut.
        """
        return {level: sizes.copy() for level, sizes in self._sizes.items()}

    def load_sizes(self, level: int, sizes: np.ndarray) -> None:
        """Install a persisted ``|V^h_v|`` column for ``level``.

        The column must be one int64 entry per node (``-1`` marking
        uncomputed); unknown levels raise ``KeyError`` and mismatched lengths
        raise ``ValueError`` rather than silently serving wrong sizes.
        """
        self._require_level(level)
        column = np.asarray(sizes, dtype=np.int64)
        if column.shape != (self.graph.num_nodes,):
            raise ValueError(
                f"vicinity column for level {level} has shape {column.shape}, "
                f"expected ({self.graph.num_nodes},)"
            )
        self._sizes[level] = column.copy()

    def is_cached(self, node: int, level: int) -> bool:
        """Whether the size for ``(node, level)`` is already memoised."""
        self._require_level(level)
        return bool(self._sizes[level][node] >= 0)

    def _require_level(self, level: int) -> None:
        if level not in self._sizes:
            raise KeyError(
                f"vicinity level {level} is not indexed; available: {self.levels}"
            )
