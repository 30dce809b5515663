"""The thread-sharded density pass behind ``workers > 1``.

The only step of a TESC request that gains from a second core is the
grouped-BFS density count: :meth:`~repro.graph.traversal.BFSEngine.grouped_marked_counts`
spends its time in numpy array operations that release the GIL, and it
treats reference nodes independently.  :func:`pooled_density_matrix`
therefore splits the sample's columns into ``workers`` contiguous slices,
counts each slice on its own thread with its own
:class:`~repro.graph.traversal.BFSEngine`, and writes the slices into one
counts/sizes pair, so the matrix is bit-identical to a one-shot serial pass
by construction.

Shard threads run under :func:`contextvars.copy_context`, so each slice's
``density_shard`` span hangs directly under the request's ``density`` stage,
and the request deadline (:func:`repro.utils.deadlines.checkpoint`, called
once per BFS block) cancels every slice.  Estimates always run in the calling
thread: they are GIL-bound, and sharding them across threads is slower than
the serial pass (see ``docs/architecture.md`` for the measurements).
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Tuple

import numpy as np

from repro.core.density import DensityMatrix, densities_from_counts
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.obs.trace import stage


def pooled_density_matrix(
    graph: CSRGraph,
    indicators: np.ndarray,
    sample_nodes: np.ndarray,
    level: int,
    workers: int,
) -> Tuple[DensityMatrix, int]:
    """One density pass over ``sample_nodes``, column-sharded over threads.

    ``indicators`` is the ``(num_events, num_nodes)`` event indicator
    matrix.  The first slice is counted in the calling thread, the other
    ``workers - 1`` on short-lived threads.  Returns the matrix plus the
    number of BFS calls the slices made.
    """
    nodes = np.asarray(sample_nodes, dtype=np.int64)
    # The dtype grouped_marked_counts gathers in, converted once for all slices.
    indicators = np.ascontiguousarray(indicators, dtype=np.int32)
    counts = np.zeros((indicators.shape[0], nodes.size), dtype=np.int64)
    sizes = np.zeros(nodes.size, dtype=np.int64)
    bounds = np.linspace(
        0, nodes.size, max(1, min(int(workers), nodes.size)) + 1, dtype=np.int64
    )

    def count(start: int, stop: int) -> int:
        with stage("density_shard", columns=stop - start):
            engine = BFSEngine(graph)
            counts[:, start:stop], sizes[start:stop] = engine.grouped_marked_counts(
                nodes[start:stop], level, indicators
            )
            return engine.bfs_calls

    slices = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    with ThreadPoolExecutor(max_workers=max(1, len(slices) - 1)) as executor:
        futures = [
            executor.submit(contextvars.copy_context().run, count, start, stop)
            for start, stop in slices[1:]
        ]
        bfs_calls = count(*slices[0])
        bfs_calls += sum(future.result() for future in futures)
    return (
        DensityMatrix(
            reference_nodes=nodes,
            densities=densities_from_counts(counts, sizes),
            counts=counts,
            vicinity_sizes=sizes,
            level=int(level),
        ),
        int(bfs_calls),
    )
