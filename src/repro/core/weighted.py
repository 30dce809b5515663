"""Distance-weighted TESC (the Section 6 extension).

The paper sketches, as future work, a scheme that "get[s] rid of h by
designing a weighted correlation measure where reference nodes closer to
event nodes have higher weights".  This module implements a concrete variant:
instead of the hard h-hop cutoff of Eq. 2, each event occurrence contributes
``decay^d`` to a reference node's density, where ``d`` is the hop distance
(truncated at ``max_hops``).  The same Kendall machinery is then applied to
the weighted densities.

Because the null distribution of the weighted statistic is no longer covered
by the closed-form tie-corrected variance argument (the paper explicitly
notes this difficulty), significance is left to the caller: the function
returns the score, and the ablation benchmarks compare its *ranking* of
planted pairs against the standard measure rather than its z-scores.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ConfigurationError
from repro.graph.traversal import BFSEngine
from repro.stats.kendall import kendall_tau_a
from repro.utils.validation import check_positive_int


def distance_weighted_densities(
    attributed: AttributedGraph,
    event: str,
    reference_nodes: Iterable[int],
    decay: float = 0.5,
    max_hops: int = 3,
) -> np.ndarray:
    """Distance-decayed event density around each reference node.

    For reference node ``r`` the weighted density is
    ``sum_{v in V_event, d(r, v) <= max_hops} decay^{d(r, v)}`` divided by
    ``sum_{u in V^{max_hops}_r} decay^{d(r, u)}`` (the decayed "area").
    """
    if not 0.0 < decay <= 1.0:
        raise ConfigurationError(f"decay must be in (0, 1], got {decay}")
    max_hops = check_positive_int(max_hops, "max_hops")

    engine = BFSEngine(attributed.csr)
    indicator = attributed.event_indicator(event)
    nodes = [int(node) for node in reference_nodes]
    densities = np.zeros(len(nodes), dtype=float)

    for index, reference in enumerate(nodes):
        # Ring-by-ring expansion: nodes first reached at hop d get weight decay^d.
        previous = engine.vicinity(reference, 0)
        numerator = float(indicator[previous].sum())
        denominator = float(previous.size)
        for hop in range(1, max_hops + 1):
            current = engine.vicinity(reference, hop)
            if current.size == previous.size:
                break
            ring = np.setdiff1d(current, previous, assume_unique=False)
            weight = decay ** hop
            numerator += weight * float(indicator[ring].sum())
            denominator += weight * float(ring.size)
            previous = current
        densities[index] = numerator / denominator if denominator > 0 else 0.0
    return densities


def weighted_tesc_score(
    attributed: AttributedGraph,
    event_a: str,
    event_b: str,
    reference_nodes: Iterable[int],
    decay: float = 0.5,
    max_hops: int = 3,
) -> Tuple[float, np.ndarray, np.ndarray]:
    """Kendall τ of the distance-weighted densities of the two events.

    Returns ``(score, weighted_densities_a, weighted_densities_b)``.  The
    decayed densities are near-tie-free, so large reference sets route to
    the O(n log n) merge kernel; the score is exact on every path.
    """
    nodes = [int(node) for node in reference_nodes]
    densities_a = distance_weighted_densities(attributed, event_a, nodes, decay, max_hops)
    densities_b = distance_weighted_densities(attributed, event_b, nodes, decay, max_hops)
    score = kendall_tau_a(densities_a, densities_b)
    return float(score), densities_a, densities_b
