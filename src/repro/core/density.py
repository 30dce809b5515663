"""Event density in a reference node's vicinity (Eq. 2).

``s^h_a(r) = |V_a ∩ V^h_r| / |V^h_r|`` — the fraction of the reference
node's h-vicinity occupied by event-a nodes.  The normalisation by the
vicinity size makes vicinities of different sizes comparable, playing the
role that "area" plays in spatial point-pattern statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.events.attributed_graph import AttributedGraph
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.utils import deadlines
from repro.utils.validation import check_vicinity_level


@dataclass(frozen=True)
class DensityMatrix:
    """Event densities of many events over one shared reference sample.

    Attributes
    ----------
    reference_nodes:
        The distinct reference node ids the columns correspond to.
    densities:
        ``(num_events, num_reference_nodes)`` float matrix — entry
        ``(e, r)`` is ``s^h_e(r)`` of Eq. 2.
    counts:
        Integer numerators ``|V_e ∩ V^h_r|`` of the same shape.  Because hop
        distance is symmetric, ``counts[e, r] > 0`` iff ``r`` lies in the
        reference population ``V^h_{V_e}`` of event ``e`` — the batch engine
        uses this to recover each pair's exact population from shared work.
    vicinity_sizes:
        ``|V^h_r|`` per reference node (the shared denominators).
    level:
        The vicinity level ``h`` the matrix was computed at.
    """

    reference_nodes: np.ndarray
    densities: np.ndarray
    counts: np.ndarray
    vicinity_sizes: np.ndarray
    level: int

    @property
    def num_events(self) -> int:
        """Number of event rows."""
        return int(self.densities.shape[0])

    @property
    def num_reference_nodes(self) -> int:
        """Number of reference-node columns."""
        return int(self.densities.shape[1])

    def pair_rows(self, row_a: int, row_b: int) -> np.ndarray:
        """Columns belonging to the pair's reference population.

        A reference node is in ``V^h_{a∪b}`` exactly when its vicinity
        contains at least one occurrence of either event (symmetry of hop
        distance), i.e. when either count is positive.
        """
        return np.flatnonzero((self.counts[row_a] > 0) | (self.counts[row_b] > 0))


def densities_from_counts(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Density matrix from integer numerators and vicinity sizes (Eq. 2).

    ``counts`` is ``(num_events, n)`` int, ``sizes`` is ``(n,)`` int; empty
    vicinities yield density 0.  Kept as a module-level function so every
    producer of a :class:`DensityMatrix` — the batch engine's full pass and
    the service engine's carried-forward column assembly — performs the
    exact same float arithmetic, which is what makes incrementally
    maintained densities bit-identical to freshly computed ones.
    """
    counts = np.asarray(counts)
    sizes = np.asarray(sizes)
    safe_sizes = np.where(sizes > 0, sizes, 1)
    return counts / safe_sizes[np.newaxis, :].astype(float)


class DensityComputer:
    """Computes per-reference-node event densities with a shared BFS engine.

    One h-hop BFS per reference node yields the vicinity once and both
    events' densities are read off the same vicinity, exactly as the paper's
    event-density phase does.  With ``workers > 1`` the many-node passes
    (:meth:`density_matrix`, :meth:`append_columns`) split their columns
    across that many threads
    (:func:`~repro.service.pool.pooled_density_matrix`); the counts are
    bit-identical either way, and :attr:`engine` still counts every BFS call.
    """

    def __init__(self, graph: CSRGraph, engine: Optional[BFSEngine] = None,
                 workers: int = 1) -> None:
        self.graph = graph
        self.engine = engine if engine is not None else BFSEngine(graph)
        self.workers = int(workers)

    def _grouped_counts(
        self, nodes: np.ndarray, level: int, indicators: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Grouped-BFS ``(counts, sizes)`` of ``nodes``, thread-sharded when
        :attr:`workers` asks for it."""
        if self.workers <= 1:
            return self.engine.grouped_marked_counts(nodes, level, indicators)
        from repro.service import pool

        matrix, bfs_calls = pool.pooled_density_matrix(
            self.graph, indicators, nodes, level, self.workers
        )
        self.engine.bfs_calls += bfs_calls
        return matrix.counts, matrix.vicinity_sizes

    def density(self, reference_node: int, indicator: np.ndarray, level: int) -> float:
        """``s^h_event(reference_node)`` for the event given by ``indicator``."""
        check_vicinity_level(level)
        count, size = self.engine.count_marked_in_vicinity(reference_node, level, indicator)
        return count / size if size else 0.0

    def density_pair(
        self,
        reference_node: int,
        indicator_a: np.ndarray,
        indicator_b: np.ndarray,
        level: int,
    ) -> Tuple[float, float]:
        """Densities of both events around one reference node (one BFS)."""
        check_vicinity_level(level)
        vicinity = self.engine.vicinity(reference_node, level)
        size = vicinity.size
        if size == 0:
            return 0.0, 0.0
        density_a = float(indicator_a[vicinity].sum()) / size
        density_b = float(indicator_b[vicinity].sum()) / size
        return density_a, density_b

    def density_vectors(
        self,
        reference_nodes: Iterable[int],
        indicator_a: np.ndarray,
        indicator_b: np.ndarray,
        level: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Density vectors ``s^h_a`` and ``s^h_b`` over the reference nodes."""
        nodes = list(int(node) for node in reference_nodes)
        densities_a = np.empty(len(nodes), dtype=float)
        densities_b = np.empty(len(nodes), dtype=float)
        for index, node in enumerate(nodes):
            densities_a[index], densities_b[index] = self.density_pair(
                node, indicator_a, indicator_b, level
            )
        return densities_a, densities_b

    def density_matrix(
        self,
        reference_nodes: Iterable[int],
        indicator_matrix: np.ndarray,
        level: int,
    ) -> "DensityMatrix":
        """Densities of *many* events around many reference nodes.

        One h-hop BFS per reference node yields its vicinity once, and the
        occurrence counts of every event are gathered from the vicinity in a
        single vectorised reduction — the multi-event generalisation of
        :meth:`density_pair` that :class:`~repro.core.batch.BatchTescEngine`
        shares across all pairs it ranks.

        Parameters
        ----------
        reference_nodes:
            The reference sample (distinct node ids).
        indicator_matrix:
            ``(num_events, num_nodes)`` boolean matrix; row ``e`` marks the
            occurrences of event ``e`` (see
            :meth:`~repro.events.attributed_graph.AttributedGraph.indicator_matrix`).
        level:
            The vicinity level ``h``.
        """
        check_vicinity_level(level)
        deadlines.checkpoint()
        indicators = np.asarray(indicator_matrix)
        if indicators.ndim != 2 or indicators.shape[1] != self.graph.num_nodes:
            raise ValueError(
                "indicator_matrix must have shape (num_events, num_nodes), got "
                f"{indicators.shape}"
            )
        nodes = np.asarray(
            list(int(node) for node in reference_nodes), dtype=np.int64
        )
        # One grouped multi-source BFS instead of one Python-level BFS per
        # reference node: every block of reference vicinities is expanded by
        # vectorised frontier passes and all events' occurrence counts fall
        # out of a single matrix product per block.
        counts, sizes = self._grouped_counts(nodes, level, indicators)
        densities = densities_from_counts(counts, sizes)
        return DensityMatrix(
            reference_nodes=nodes,
            densities=densities,
            counts=counts,
            vicinity_sizes=sizes,
            level=int(level),
        )

    def append_columns(
        self,
        matrix: "DensityMatrix",
        new_nodes: Iterable[int],
        indicator_matrix: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> "DensityMatrix":
        """Grow a density matrix by BFS-counting only the *new* reference nodes.

        The progressive top-k engine's prefix-sample rounds call this with
        each round's suffix of freshly revealed reference nodes: the existing
        columns are reused untouched (density is a per-column quantity, so
        appended matrices are bit-identical to a one-shot pass over the
        concatenated node list), and only ``len(new_nodes)`` h-hop BFS
        traversals are issued per round.

        Parameters
        ----------
        matrix:
            The matrix to grow; its columns become the prefix of the result.
        new_nodes:
            Reference nodes to append (in order) as new columns.
        indicator_matrix:
            ``(num_rows_to_fill, num_nodes)`` boolean matrix of the events
            whose counts are still needed.  With ``rows=None`` it must cover
            every row of ``matrix``; otherwise row ``i`` of the indicators
            fills matrix row ``rows[i]``.
        rows:
            Optional row indices into ``matrix`` for the indicator rows.
            Rounds pass the rows of the events still appearing in a surviving
            pair; dead events' new columns are left at count 0 (their rows
            are never read again — their pairs were pruned).
        """
        deadlines.checkpoint()
        indicators = np.asarray(indicator_matrix)
        if indicators.ndim != 2 or indicators.shape[1] != self.graph.num_nodes:
            raise ValueError(
                "indicator_matrix must have shape (num_events, num_nodes), got "
                f"{indicators.shape}"
            )
        if rows is None:
            if indicators.shape[0] != matrix.num_events:
                raise ValueError(
                    f"indicator_matrix has {indicators.shape[0]} rows but the "
                    f"matrix has {matrix.num_events}; pass rows= to fill a subset"
                )
            row_index = np.arange(matrix.num_events, dtype=np.int64)
        else:
            row_index = np.asarray(rows, dtype=np.int64)
            if row_index.shape != (indicators.shape[0],):
                raise ValueError(
                    "rows must map each indicator row to a matrix row, got "
                    f"{row_index.shape} for {indicators.shape[0]} indicator rows"
                )
        nodes = np.asarray(
            list(int(node) for node in new_nodes), dtype=np.int64
        )
        new_counts = np.zeros((matrix.num_events, nodes.size), dtype=np.int64)
        if nodes.size:
            live_counts, new_sizes = self._grouped_counts(
                nodes, matrix.level, indicators
            )
            new_counts[row_index] = live_counts
        else:
            new_sizes = np.zeros(0, dtype=np.int64)
        return DensityMatrix(
            reference_nodes=np.concatenate([matrix.reference_nodes, nodes]),
            densities=np.hstack(
                [matrix.densities, densities_from_counts(new_counts, new_sizes)]
            ),
            counts=np.hstack([matrix.counts, new_counts]),
            vicinity_sizes=np.concatenate([matrix.vicinity_sizes, new_sizes]),
            level=matrix.level,
        )


def density_vectors(
    attributed: AttributedGraph,
    event_a: str,
    event_b: str,
    reference_nodes: Iterable[int],
    level: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper computing both density vectors for two events."""
    computer = DensityComputer(attributed.csr)
    return computer.density_vectors(
        reference_nodes,
        attributed.event_indicator(event_a),
        attributed.event_indicator(event_b),
        level,
    )
