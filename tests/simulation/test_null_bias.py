"""The test's behaviour on structurally independent events, pinned.

Reference nodes come from ``V^h_{a∪b}``, the vicinity of either event.  A
node near ``a`` alone has ``s_b = 0`` and the reverse, so two independent
sparse events read as repulsion: a selection on the outcome, not sampling
noise (``sampler="exhaustive"`` scores the whole population).  Over all
nodes the same statistic sits near 0.
"""

import numpy as np
import pytest

from repro.core.tesc import measure_tesc
from repro.events import AttributedGraph
from repro.graph.generators import erdos_renyi_graph
from repro.simulation.independent import generate_independent_pair
from repro.stats.hypothesis import CorrelationVerdict


def test_independent_sparse_events_read_as_repulsion():
    """20 seeded independent 30-node pairs on ER(3000, 0.002) at h=1, scored
    exhaustively: every one is rejected as negative, mean τ −0.467.

    These are the measured numbers of the current, uncalibrated null.  A
    calibrated null (for example a Monte-Carlo relocation of ``b``) has to
    change this test on purpose, with the new rates.
    """
    graph = erdos_renyi_graph(3000, 0.002, random_state=1)
    csr = AttributedGraph(graph, {}).csr
    scores, verdicts = [], []
    for seed in range(20):
        nodes_a, nodes_b = generate_independent_pair(csr, 30, random_state=seed)
        result = measure_tesc(
            AttributedGraph(graph, {"a": nodes_a, "b": nodes_b}), "a", "b",
            vicinity_level=1, sampler="exhaustive", random_state=seed,
        )
        scores.append(result.score)
        verdicts.append(result.verdict)
    assert verdicts == [CorrelationVerdict.NEGATIVE] * 20
    assert np.mean(scores) == pytest.approx(-0.467, abs=0.001)
    assert min(scores) == pytest.approx(-0.497, abs=0.001)
    assert max(scores) == pytest.approx(-0.419, abs=0.001)
