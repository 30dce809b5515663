"""Independent event-pair generation (the null case).

Used to measure the test's Type I error: two events placed uniformly at
random, with no structural relationship.  A calibrated test would declare
them independent roughly ``1 - α`` of the time; this one reads sparse
independent events as repulsion, because its reference nodes come from the
events' own vicinities (``tests/simulation/test_null_bias.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int


def generate_independent_pair(
    graph: CSRGraph,
    num_a_nodes: int,
    num_b_nodes: int = None,
    random_state: RandomState = None,
    allow_overlap: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Two uniformly random, structurally independent event node sets.

    With ``allow_overlap=True`` (default) the two sets are drawn
    independently, so they may share nodes just as two unrelated real events
    could co-occur by chance.
    """
    num_a_nodes = check_positive_int(num_a_nodes, "num_a_nodes")
    if num_b_nodes is None:
        num_b_nodes = num_a_nodes
    num_b_nodes = check_positive_int(num_b_nodes, "num_b_nodes")
    if max(num_a_nodes, num_b_nodes) > graph.num_nodes:
        raise ConfigurationError("event size exceeds the number of graph nodes")
    rng = ensure_rng(random_state)

    nodes_a = np.sort(rng.choice(graph.num_nodes, size=num_a_nodes, replace=False))
    if allow_overlap:
        nodes_b = np.sort(rng.choice(graph.num_nodes, size=num_b_nodes, replace=False))
    else:
        eligible = np.setdiff1d(np.arange(graph.num_nodes), nodes_a)
        if eligible.size < num_b_nodes:
            raise ConfigurationError(
                "not enough nodes left for a disjoint independent pair"
            )
        nodes_b = np.sort(rng.choice(eligible, size=num_b_nodes, replace=False))
    return nodes_a.astype(np.int64), nodes_b.astype(np.int64)
