"""h-hop BFS traversal primitives.

Four entry points implement the traversals used throughout the paper:

* :func:`bfs_vicinity` — the plain h-hop BFS from one source (Section 2,
  used to compute the density ``s^h_a(r)`` of Eq. 2).
* :func:`batch_bfs_vicinity` — Batch BFS (Algorithm 1): an h-hop BFS that
  starts from *all* event nodes at once, retrieving ``V^h_{a∪b}`` in a single
  pass with worst-case cost ``O(|V| + |E|)``.
* :class:`BFSEngine` — a reusable-buffer engine holding the visit-stamp array
  so repeated BFS calls (thousands per test) allocate nothing proportional to
  ``|V|``, with level-synchronous vectorised frontier expansion.
* The *grouped* multi-source BFS (:meth:`BFSEngine.grouped_vicinity_blocks`
  and friends): many independent per-source BFS runs advanced together as one
  numpy frontier of ``(source, node)`` pairs, so workloads that need one
  vicinity per node (the vicinity-size index, the density pass over a
  reference sample, importance-weight correction) replace their per-node
  Python loops with a handful of vectorised level expansions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.graph.csr import CSRGraph
from repro.utils import deadlines
from repro.utils.validation import check_non_negative_int, sorted_unique


def _expand_frontier(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Gather the concatenated neighbour lists of every frontier node.

    Returns the neighbour array (with duplicates) and the number of adjacency
    entries scanned, using a fully vectorised gather so the per-level cost is
    dominated by numpy rather than the Python interpreter.
    """
    starts = indptr[frontier]
    lengths = indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), 0
    # Build the flat index array [s_0..s_0+l_0-1, s_1..s_1+l_1-1, ...]
    cumulative = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = np.arange(total, dtype=np.int64) - np.repeat(cumulative, lengths)
    flat += np.repeat(starts, lengths)
    return indices[flat], total


def _expand_frontier_grouped(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Gather neighbours of a grouped frontier of ``(row, node)`` pairs.

    ``rows[i]`` identifies which source's BFS the frontier node ``cols[i]``
    belongs to.  Returns the expanded ``(row, neighbour)`` pairs (with
    duplicates) plus the number of adjacency entries scanned.
    """
    starts = indptr[cols]
    lengths = indptr[cols + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    cumulative = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat = np.arange(total, dtype=np.int64) - np.repeat(cumulative, lengths)
    flat += np.repeat(starts, lengths)
    return np.repeat(rows, lengths), indices[flat], total


#: Memory budget (bytes) for the per-block visit-stamp matrix of the grouped
#: BFS.  The block advances ``budget / (4 * num_nodes)`` sources together, so
#: the grouped traversal's working set stays flat regardless of graph size.
GROUPED_BLOCK_BYTES = 32_000_000


class BFSEngine:
    """Reusable h-hop BFS engine over a :class:`CSRGraph`.

    The engine keeps one ``visited`` stamp array for the lifetime of the
    object.  Each call bumps a stamp counter instead of clearing the array,
    which makes back-to-back searches cheap even on multi-million-node
    graphs.

    The engine also counts how many BFS calls were issued and how many nodes
    and adjacency entries were scanned — the cost accounting that the
    complexity analysis of Section 4.4 reasons about.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self._visited = np.zeros(graph.num_nodes, dtype=np.int64)
        self._stamp = 0
        self.bfs_calls = 0
        self.nodes_scanned = 0
        self.edges_scanned = 0

    def reset_counters(self) -> None:
        """Zero the cost counters (the visit stamps are left untouched)."""
        self.bfs_calls = 0
        self.nodes_scanned = 0
        self.edges_scanned = 0

    def vicinity(self, source: int, hops: int) -> np.ndarray:
        """All nodes within ``hops`` of ``source`` (including the source).

        This is ``V^h_source`` of Definition 1.
        """
        self.graph._check_node(source)
        return self.multi_source_vicinity(np.array([source], dtype=np.int64), hops)

    def multi_source_vicinity(self, sources: Iterable[int], hops: int) -> np.ndarray:
        """All nodes within ``hops`` of at least one source node.

        This is Batch BFS (Algorithm 1): conceptually an ``(h+1)``-hop BFS
        from a virtual node connected to every source.  Returns ``V^h_S`` of
        Definition 2 as a numpy array (sources included, each node once).
        """
        hops = check_non_negative_int(hops, "hops")
        graph = self.graph
        indptr, indices = graph.indptr, graph.indices
        visited = self._visited
        self._stamp += 1
        stamp = self._stamp
        self.bfs_calls += 1

        source_array = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources,
                                  dtype=np.int64)
        if source_array.size and (
            source_array.min() < 0 or source_array.max() >= graph.num_nodes
        ):
            bad = source_array[(source_array < 0) | (source_array >= graph.num_nodes)][0]
            raise NodeNotFoundError(int(bad))

        frontier = sorted_unique(source_array)
        visited[frontier] = stamp
        collected: List[np.ndarray] = [frontier]

        for _ in range(hops):
            if frontier.size == 0:
                break
            neighbours, scanned = _expand_frontier(indptr, indices, frontier)
            self.edges_scanned += scanned
            if neighbours.size == 0:
                frontier = neighbours
                continue
            fresh = neighbours[visited[neighbours] != stamp]
            if fresh.size == 0:
                frontier = fresh
                continue
            frontier = sorted_unique(fresh)
            visited[frontier] = stamp
            collected.append(frontier)

        result = np.concatenate(collected) if len(collected) > 1 else collected[0].copy()
        self.nodes_scanned += int(result.size)
        return result

    # -- grouped per-source BFS --------------------------------------------

    def _check_sources(self, sources: Iterable[int]) -> np.ndarray:
        source_array = np.asarray(
            list(sources) if not isinstance(sources, np.ndarray) else sources,
            dtype=np.int64,
        )
        if source_array.ndim != 1:
            source_array = source_array.ravel()
        if source_array.size and (
            source_array.min() < 0 or source_array.max() >= self.graph.num_nodes
        ):
            bad = source_array[
                (source_array < 0) | (source_array >= self.graph.num_nodes)
            ][0]
            raise NodeNotFoundError(int(bad))
        return source_array

    def _grouped_blocks(
        self,
        sources: np.ndarray,
        hops: int,
        block_size: Optional[int],
    ) -> Iterator[Tuple[int, np.ndarray, Iterator[Tuple[np.ndarray, np.ndarray]]]]:
        """Shared driver of the grouped per-source BFS.

        Splits ``sources`` into blocks sized to the
        :data:`GROUPED_BLOCK_BYTES` stamp-matrix budget and yields
        ``(offset, block, levels)`` where ``levels`` iterates the fresh
        ``(rows, cols)`` pairs of each BFS level (level 0 first; ``rows`` are
        block-local source indices, ascending within a level).  Each level is
        one vectorised expand/filter/dedup pass over the whole block; the
        stamp matrix gives O(1) visited tests without any per-level sorting
        of previously seen nodes.  ``levels`` must be fully consumed before
        the next block is requested (the stamp matrix is reused).

        ``sources`` must already be validated by :meth:`_check_sources` —
        every public entry point validates exactly once.
        """
        hops = check_non_negative_int(hops, "hops")
        num_nodes = self.graph.num_nodes
        source_array = sources
        if block_size is None:
            block_size = max(1, GROUPED_BLOCK_BYTES // (4 * max(num_nodes, 1)))
        block_size = max(1, check_non_negative_int(block_size, "block_size"))

        visited: Optional[np.ndarray] = None
        for index, offset in enumerate(range(0, source_array.size, block_size)):
            # Each block is the grouped pass's natural cancellation grain:
            # one cheap contextvar read per block, no per-node cost.
            deadlines.checkpoint()
            block = source_array[offset:offset + block_size]
            if visited is None:
                visited = np.zeros(
                    (min(block_size, source_array.size), num_nodes),
                    dtype=np.int32,
                )
            self.bfs_calls += block.size
            # Each block consumes ``hops + 1`` stamp values (one per level).
            base_stamp = np.int32(1 + index * (hops + 1))
            yield offset, block, self._grouped_levels(
                block, hops, visited, base_stamp
            )

    def _grouped_levels(
        self,
        block: np.ndarray,
        hops: int,
        visited: np.ndarray,
        base_stamp: np.int32,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        indptr, indices = self.graph.indptr, self.graph.indices
        num_nodes = self.graph.num_nodes
        rows = np.arange(block.size, dtype=np.int64)
        cols = block
        visited[rows, cols] = base_stamp
        self.nodes_scanned += int(rows.size)
        yield rows, cols
        stamp = base_stamp
        block_flat = visited[:block.size].reshape(-1)
        for _ in range(hops):
            if cols.size == 0:
                return
            rows, cols, scanned = _expand_frontier_grouped(
                indptr, indices, rows, cols
            )
            self.edges_scanned += scanned
            if cols.size == 0:
                return
            # Freshness is one stamp gather (values >= base_stamp were
            # visited at an earlier level of this block); duplicates among
            # the fresh candidates are collapsed by the scatter itself, and
            # the deduplicated frontier is recovered — already sorted
            # row-major — by one flat scan for the level's stamp.  No sort
            # ever touches the candidate stream.
            seen = visited[rows, cols] >= base_stamp
            rows = rows[~seen]
            cols = cols[~seen]
            if rows.size == 0:
                return
            stamp = np.int32(stamp + 1)
            if rows.size * 512 < block_flat.size:
                # Sparse level: sorting the (few) fresh candidates beats
                # scanning the whole stamp matrix.
                keys = sorted_unique(rows * num_nodes + cols)
                rows = keys // num_nodes
                cols = keys - rows * num_nodes
                visited[rows, cols] = stamp
            else:
                visited[rows, cols] = stamp
                flat = np.flatnonzero(block_flat == stamp)
                rows = flat // num_nodes
                cols = flat - rows * num_nodes
            self.nodes_scanned += int(rows.size)
            yield rows, cols

    def grouped_vicinity_blocks(
        self,
        sources: Iterable[int],
        hops: int,
        block_size: Optional[int] = None,
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Per-source h-hop BFS for many sources, a block at a time.

        Unlike :meth:`multi_source_vicinity` (which merges all sources into
        one traversal), this runs one *independent* BFS per source, but
        advances a whole block of them together: each level is one vectorised
        expand/filter/dedup pass over a flat frontier of ``(source, node)``
        pairs, so the Python interpreter executes ``O(hops)`` statements per
        block instead of ``O(hops)`` per source.

        Yields ``(offset, offsets, members)`` triples in CSR layout: the
        vicinity of ``sources[offset + i]`` is the sorted id array
        ``members[offsets[i]:offsets[i + 1]]``.
        """
        num_nodes = self.graph.num_nodes
        for offset, block, levels in self._grouped_blocks(
            self._check_sources(sources), hops, block_size
        ):
            collected = [rows * num_nodes + cols for rows, cols in levels]
            keys = (
                np.sort(np.concatenate(collected))
                if len(collected) > 1
                else np.sort(collected[0])
            )
            # Row-major keys: sorting groups members by source, ids ascending.
            member_rows = keys // num_nodes
            members = keys - member_rows * num_nodes
            offsets = np.zeros(block.size + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(member_rows, minlength=block.size), out=offsets[1:]
            )
            yield offset, offsets, members

    def vicinity_sizes(
        self,
        sources: Iterable[int],
        hops: int,
        block_size: Optional[int] = None,
    ) -> np.ndarray:
        """``|V^h_v|`` for every source, via the grouped BFS.

        This is the vectorised offline pass behind
        :meth:`~repro.graph.vicinity.VicinityIndex.precompute`.
        """
        source_array = self._check_sources(sources)
        sizes = np.zeros(source_array.size, dtype=np.int64)
        for offset, block, levels in self._grouped_blocks(
            source_array, hops, block_size
        ):
            for rows, _cols in levels:
                sizes[offset:offset + block.size] += np.bincount(
                    rows, minlength=block.size
                )
        return sizes

    def grouped_marked_counts(
        self,
        sources: Iterable[int],
        hops: int,
        indicator_matrix: np.ndarray,
        block_size: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Marked-node counts of every source's vicinity, for many markings.

        ``indicator_matrix`` is ``(num_markings, num_nodes)`` boolean (one row
        per event).  Returns ``(counts, sizes)`` where ``counts[m, s]`` is the
        number of marked nodes of marking ``m`` inside ``V^h_{sources[s]}``
        and ``sizes[s] = |V^h_{sources[s]}|`` — the numerators and
        denominators of Eq. 2 for a whole reference sample at once.  Per BFS
        level, the counts of *all* markings are one fancy-indexed gather plus
        one segmented reduction instead of one Python loop iteration per
        reference node.
        """
        source_array = self._check_sources(sources)
        # int32 keeps the gathered slices small; per-segment sums are bounded
        # by num_nodes, which always fits.
        indicators = np.ascontiguousarray(indicator_matrix, dtype=np.int32)
        if indicators.ndim != 2 or indicators.shape[1] != self.graph.num_nodes:
            raise ValueError(
                "indicator_matrix must have shape (num_markings, num_nodes), "
                f"got {indicators.shape}"
            )
        counts = np.zeros((indicators.shape[0], source_array.size), dtype=np.int64)
        sizes = np.zeros(source_array.size, dtype=np.int64)
        for offset, block, levels in self._grouped_blocks(
            source_array, hops, block_size
        ):
            for rows, cols in levels:
                sizes[offset:offset + block.size] += np.bincount(
                    rows, minlength=block.size
                )
                if not indicators.shape[0]:
                    continue
                # ``rows`` is ascending within a level, so a reduceat over
                # the row-change boundaries sums each source's segment.
                boundaries = np.concatenate(
                    ([0], np.flatnonzero(np.diff(rows)) + 1)
                )
                row_ids = rows[boundaries]
                counts[:, offset + row_ids] += np.add.reduceat(
                    indicators[:, cols], boundaries, axis=1
                )
        return counts, sizes

    def vicinity_size(self, source: int, hops: int) -> int:
        """``|V^h_source|`` — the normaliser of Eq. 2."""
        return int(self.vicinity(source, hops).size)

    def count_marked_in_vicinity(
        self, source: int, hops: int, marked: np.ndarray
    ) -> Tuple[int, int]:
        """Count marked nodes within ``hops`` of ``source``.

        ``marked`` is a boolean array over all nodes.  Returns the pair
        ``(#marked in vicinity, vicinity size)``, i.e. the numerator and
        denominator of the density of Eq. 2 for a single event.
        """
        nodes = self.vicinity(source, hops)
        return int(marked[nodes].sum()), int(nodes.size)


def bfs_vicinity(graph: CSRGraph, source: int, hops: int) -> np.ndarray:
    """One-shot h-hop BFS; see :meth:`BFSEngine.vicinity`."""
    return BFSEngine(graph).vicinity(source, hops)


def batch_bfs_vicinity(graph: CSRGraph, sources: Iterable[int], hops: int) -> np.ndarray:
    """One-shot Batch BFS (Algorithm 1); see :meth:`BFSEngine.multi_source_vicinity`."""
    return BFSEngine(graph).multi_source_vicinity(sources, hops)


def dirty_vicinity(
    old_graph: CSRGraph,
    new_graph: CSRGraph,
    endpoints: Iterable[int],
    radius: int,
) -> np.ndarray:
    """Nodes whose h-vicinity an edge patch may have changed.

    An edge delta ``(u, v)`` changes ``V^h_r`` only when ``r`` lies within
    ``h - 1`` hops of ``u`` or ``v`` — along a gained path the prefix up to
    the first added edge exists in the *new* graph, along a lost path the
    prefix up to the first removed edge exists in the *old* graph.  The union
    of a ``radius``-hop Batch BFS from the endpoints on both graphs therefore
    covers every node whose vicinity membership could differ; callers pass
    ``radius = h - 1``.  Returns a sorted node array (empty for no
    endpoints).
    """
    endpoint_array = np.asarray(
        list(endpoints) if not isinstance(endpoints, np.ndarray) else endpoints,
        dtype=np.int64,
    )
    if endpoint_array.size == 0:
        return np.empty(0, dtype=np.int64)
    before = BFSEngine(old_graph).multi_source_vicinity(endpoint_array, radius)
    after = BFSEngine(new_graph).multi_source_vicinity(endpoint_array, radius)
    return np.union1d(before, after)


def bfs_vicinity_subgraph(
    graph: CSRGraph, source: int, hops: int
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Return the node set *and* induced edge set of a node's h-vicinity.

    Definition 1 defines the h-vicinity as the induced subgraph; the TESC
    measure itself only needs the node set, but the induced edges are exposed
    for completeness (``E^h_u``) and used by graph metrics and tests.
    """
    nodes = bfs_vicinity(graph, source, hops)
    members = set(int(node) for node in nodes)
    edges: List[Tuple[int, int]] = []
    for u in nodes:
        u = int(u)
        for v in graph.neighbors(u):
            v = int(v)
            if u < v and v in members:
                edges.append((u, v))
    return nodes, edges


def shortest_path_lengths_from(
    graph: CSRGraph, source: int, cutoff: Optional[int] = None
) -> np.ndarray:
    """Hop distances from ``source`` to every node (-1 where unreachable).

    Used by the simulation layer to place event-b nodes at a target distance
    from event-a nodes, and by tests as the ground truth for vicinities.
    """
    graph._check_node(source)
    distances = np.full(graph.num_nodes, -1, dtype=np.int64)
    distances[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (cutoff is None or depth < cutoff):
        depth += 1
        neighbours, _ = _expand_frontier(graph.indptr, graph.indices, frontier)
        if neighbours.size == 0:
            break
        fresh = neighbours[distances[neighbours] < 0]
        if fresh.size == 0:
            break
        frontier = sorted_unique(fresh)
        distances[frontier] = depth
    return distances


def nodes_at_distance(graph: CSRGraph, source: int, distance: int) -> np.ndarray:
    """All nodes exactly ``distance`` hops from ``source``."""
    distance = check_non_negative_int(distance, "distance")
    lengths = shortest_path_lengths_from(graph, source, cutoff=distance)
    return np.flatnonzero(lengths == distance)
