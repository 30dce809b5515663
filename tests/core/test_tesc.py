"""Tests for repro.core.tesc — the end-to-end TESC tester."""

import numpy as np
import pytest

from repro.core.config import TescConfig
from repro.core.density import DensityComputer
from repro.core.estimators import importance_weighted_estimate, plain_estimate
from repro.core.tesc import TescTester, measure_tesc
from repro.events.attributed_graph import AttributedGraph
from repro.graph.generators import community_ring_graph, erdos_renyi_graph
from repro.obs.trace import trace
from repro.sampling.registry import available_samplers
from repro.stats.hypothesis import CorrelationVerdict


@pytest.fixture(scope="module")
def clustered_attributed():
    """A ring-of-communities graph with one attracting and one repulsing pair.

    Events "x" and "y" are spread over the same two communities (attraction);
    events "x" and "far" live on opposite sides of the ring (repulsion).
    """
    graph = community_ring_graph(10, 60, 6.0, 20, random_state=5)
    rng = np.random.default_rng(5)
    community = lambda index: np.arange(index * 60, (index + 1) * 60)
    nodes_x = np.concatenate([
        rng.choice(community(0), 30, replace=False),
        rng.choice(community(1), 15, replace=False),
    ])
    nodes_y = np.concatenate([
        rng.choice(community(0), 30, replace=False),
        rng.choice(community(1), 15, replace=False),
    ])
    nodes_far = np.concatenate([
        rng.choice(community(5), 30, replace=False),
        rng.choice(community(6), 15, replace=False),
    ])
    return AttributedGraph(graph, {"x": nodes_x, "y": nodes_y, "far": nodes_far})


class TestTescTester:
    def test_positive_pair_detected(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=250, random_state=1)
        result = TescTester(clustered_attributed, config).test("x", "y")
        assert result.z_score > 2.0
        assert result.verdict is CorrelationVerdict.POSITIVE

    def test_negative_pair_detected(self, clustered_attributed):
        config = TescConfig(vicinity_level=2, sample_size=250, random_state=1)
        result = TescTester(clustered_attributed, config).test("x", "far")
        assert result.z_score < -2.0
        assert result.verdict is CorrelationVerdict.NEGATIVE

    def test_symmetry_of_events(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=200, random_state=3)
        tester = TescTester(clustered_attributed, config)
        forward = tester.test("x", "y")
        backward = tester.test("y", "x")
        assert forward.z_score == pytest.approx(backward.z_score, abs=1e-9)

    def test_reproducible_with_seed(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=11)
        first = TescTester(clustered_attributed, config).test("x", "y")
        second = TescTester(clustered_attributed, config).test("x", "y")
        assert first.z_score == second.z_score
        assert list(first.sample.nodes) == list(second.sample.nodes)

    def test_score_bounds_and_fields(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=2)
        result = TescTester(clustered_attributed, config).test("x", "y")
        assert -1.0 <= result.score <= 1.0
        assert 0.0 <= result.p_value <= 1.0
        assert result.num_reference_nodes == result.sample.num_distinct
        assert "TESC" in str(result)

    def test_phases_record_stage_spans(self, clustered_attributed):
        config = TescConfig(vicinity_level=1, sample_size=150, random_state=2)
        tester = TescTester(clustered_attributed, config)
        with trace("request") as root:
            tester.test("x", "y")
        assert [child.name for child in root.children] == [
            "sampling", "density", "estimate",
        ]
        assert all(child.duration is not None for child in root.children)

    def test_all_samplers_agree_on_strong_signal(self, clustered_attributed):
        for sampler in ("batch_bfs", "importance", "whole_graph", "exhaustive"):
            config = TescConfig(
                vicinity_level=1, sample_size=200, sampler=sampler, random_state=5
            )
            result = TescTester(clustered_attributed, config).test("x", "y")
            assert result.z_score > 1.5, sampler

    def test_test_levels_returns_all_levels(self, clustered_attributed):
        config = TescConfig(sample_size=100, random_state=5)
        results = TescTester(clustered_attributed, config).test_levels("x", "y", levels=(1, 2))
        assert set(results) == {1, 2}
        assert results[1].vicinity_level == 1

    def test_one_sided_alternative_respected(self, clustered_attributed):
        config = TescConfig(
            vicinity_level=1, sample_size=200, alternative="less", random_state=5
        )
        result = TescTester(clustered_attributed, config).test("x", "y")
        # Strong positive correlation is *not* significant under the "less" test.
        assert result.verdict is CorrelationVerdict.INDEPENDENT


class TestPerNodeOracle:
    """The grouped density pass against one BFS per reference node."""

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("sampler", available_samplers())
    def test_matches_per_node_oracle(self, clustered_attributed, per_node_densities,
                                     monkeypatch, sampler, level):
        matrices = []
        grouped_pass = DensityComputer.density_matrix

        def recording_pass(computer, *args, **kwargs):
            matrices.append(grouped_pass(computer, *args, **kwargs))
            return matrices[-1]

        monkeypatch.setattr(DensityComputer, "density_matrix", recording_pass)
        config = TescConfig(
            vicinity_level=level, sample_size=150, sampler=sampler, random_state=3
        )
        result = TescTester(clustered_attributed, config).test("x", "far")

        sample = result.sample
        expected = [
            per_node_densities(
                clustered_attributed.csr, sample.nodes,
                clustered_attributed.event_indicator(event), level,
            )
            for event in ("x", "far")
        ]
        (matrix,) = matrices
        assert np.array_equal(matrix.reference_nodes, sample.nodes)
        assert np.array_equal(matrix.densities[0], expected[0])
        assert np.array_equal(matrix.densities[1], expected[1])
        if sample.weighted:
            oracle = importance_weighted_estimate(
                *expected, sample.frequencies, sample.probabilities
            )
        else:
            oracle = plain_estimate(*expected)
        assert result.score == oracle.estimate
        assert result.z_score == oracle.z_score


class TestMeasureTesc:
    def test_convenience_wrapper(self, clustered_attributed):
        result = measure_tesc(
            clustered_attributed, "x", "y", vicinity_level=1, sample_size=150, random_state=1
        )
        assert result.event_a == "x"
        assert result.vicinity_level == 1

    def test_independent_events_usually_not_significant(self):
        # Use a graph dense enough that reference vicinities see several
        # occurrences of each event; with very sparse events the V^h_{a∪b}
        # selection itself induces a small negative bias (Berkson-style
        # conditioning), which is a property of the measure, not a bug.
        graph = erdos_renyi_graph(400, 0.05, random_state=9)
        rng = np.random.default_rng(0)
        detections = 0
        trials = 10
        for trial in range(trials):
            attributed = AttributedGraph(
                graph,
                {
                    "a": rng.choice(400, 60, replace=False),
                    "b": rng.choice(400, 60, replace=False),
                },
            )
            result = measure_tesc(
                attributed, "a", "b", vicinity_level=1, sample_size=150, random_state=trial
            )
            if result.significant:
                detections += 1
        # The Type I error should be near alpha; allow generous head-room.
        assert detections <= 3

    def test_unknown_event_raises(self, clustered_attributed):
        from repro.exceptions import UnknownEventError

        with pytest.raises(UnknownEventError):
            measure_tesc(clustered_attributed, "x", "missing", sample_size=50)
