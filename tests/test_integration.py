"""End-to-end integration tests across the whole library.

These tests wire the full pipeline together the way a user of the library
would: generate a dataset, run TESC with several samplers, compare against
the baselines, and round-trip through the file formats and CLI-facing APIs.
"""

import pytest

from repro import AttributedGraph, CorrelationVerdict, TescConfig, TescTester, measure_tesc
from repro.baselines import ProximityPatternMiner, transaction_correlation
from repro.core.estimators import exact_tau
from repro.datasets import make_dblp_like, make_intrusion_like
from repro.graph.io import read_edge_list, read_event_file, write_edge_list, write_event_file
from repro.sampling.batch_bfs import ExhaustiveSampler


@pytest.fixture(scope="module")
def dblp():
    return make_dblp_like(
        num_communities=10, community_size=70, num_positive_pairs=2,
        num_negative_pairs=2, num_background_keywords=2, random_state=99,
    )


class TestEndToEndOnDblpLike:
    def test_planted_pairs_detected_with_every_sampler(self, dblp):
        event_a, event_b = dblp.positive_pairs[0]
        for sampler in ("batch_bfs", "importance", "batch_importance", "whole_graph"):
            result = measure_tesc(
                dblp.attributed, event_a, event_b,
                vicinity_level=1, sampler=sampler, sample_size=200, random_state=5,
            )
            assert result.verdict is CorrelationVerdict.POSITIVE, sampler

    def test_sampled_estimate_close_to_exhaustive_tau(self, dblp):
        event_a, event_b = dblp.positive_pairs[0]
        exhaustive = measure_tesc(
            dblp.attributed, event_a, event_b,
            vicinity_level=1, sampler="exhaustive", sample_size=1, random_state=1,
        )
        sampled = measure_tesc(
            dblp.attributed, event_a, event_b,
            vicinity_level=1, sampler="batch_bfs", sample_size=300, random_state=1,
        )
        assert sampled.score == pytest.approx(exhaustive.score, abs=0.15)

    def test_tesc_and_tc_disagree_on_negative_pairs(self, dblp):
        event_a, event_b = dblp.negative_pairs[0]
        tesc = measure_tesc(
            dblp.attributed, event_a, event_b,
            vicinity_level=1, sample_size=250, random_state=2,
        )
        tc = transaction_correlation(dblp.attributed.events, event_a, event_b)
        assert tesc.verdict is CorrelationVerdict.NEGATIVE
        assert tc.z_score > tesc.z_score

    def test_file_round_trip_preserves_test_result(self, dblp, tmp_path):
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(dblp.graph, str(edges_path))
        event_a, event_b = dblp.positive_pairs[0]
        write_event_file(
            {
                event_a: dblp.attributed.event_nodes(event_a).tolist(),
                event_b: dblp.attributed.event_nodes(event_b).tolist(),
            },
            str(events_path),
        )
        graph, labels = read_edge_list(str(edges_path))
        label_to_id = {label: index for index, label in enumerate(labels)}
        events = read_event_file(str(events_path), label_to_id=label_to_id)
        # Node ids may be permuted by the round trip, but the verdict and the
        # approximate strength of the correlation must survive.
        reloaded = AttributedGraph(graph, events)
        original = measure_tesc(dblp.attributed, event_a, event_b, vicinity_level=1,
                                sample_size=200, random_state=7)
        recovered = measure_tesc(reloaded, event_a, event_b, vicinity_level=1,
                                 sample_size=200, random_state=7)
        assert recovered.verdict is original.verdict

    def test_exhaustive_sampler_matches_manual_tau(self, dblp, per_node_densities):
        event_a, event_b = dblp.positive_pairs[1]
        attributed = dblp.attributed
        sampler = ExhaustiveSampler(attributed.csr, random_state=1)
        sample = sampler.sample(attributed.event_union(event_a, event_b), 1)
        densities_a, densities_b = (
            per_node_densities(
                attributed.csr, sample.nodes, attributed.event_indicator(event), 1
            )
            for event in (event_a, event_b)
        )
        manual_tau = exact_tau(densities_a, densities_b)
        result = measure_tesc(attributed, event_a, event_b, vicinity_level=1,
                              sampler="exhaustive", sample_size=1)
        assert result.score == pytest.approx(manual_tau)


class TestEndToEndOnIntrusionLike:
    def test_rare_pair_story(self):
        dataset = make_intrusion_like(num_subnets=60, subnet_size=30, random_state=17)
        attributed = dataset.attributed
        tester = TescTester(attributed, TescConfig(sample_size=250, random_state=3,
                                                   alternative="greater"))
        miner = ProximityPatternMiner(attributed, minsup=10 / attributed.num_nodes)
        detected_by_tesc = 0
        missed_by_pfp = 0
        for event_a, event_b in dataset.rare_pairs:
            result = tester.test(event_a, event_b)
            if result.significant:
                detected_by_tesc += 1
            if not miner.discovers_pair(event_a, event_b):
                missed_by_pfp += 1
        assert detected_by_tesc >= 1
        assert missed_by_pfp == len(dataset.rare_pairs)
