"""Tests for the concrete reference-node samplers (Section 4 algorithms)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import EmptyReferenceSetError, SamplingError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.traversal import batch_bfs_vicinity
from repro.graph.vicinity import VicinityIndex
from repro.sampling.batch_bfs import BatchBFSSampler, ExhaustiveSampler
from repro.sampling.cache import SampleMemo
from repro.sampling.importance import ImportanceSampler
from repro.sampling.reject import RejectionSampler
from repro.sampling.whole_graph import WholeGraphSampler


@pytest.fixture(scope="module")
def sampling_graph():
    """A connected random graph used by all sampler tests."""
    return erdos_renyi_graph(300, 0.025, random_state=31).to_csr()


@pytest.fixture(scope="module")
def event_nodes():
    rng = np.random.default_rng(8)
    return np.sort(rng.choice(300, size=40, replace=False))


def reference_population(graph, event_nodes, level):
    return set(int(x) for x in batch_bfs_vicinity(graph, event_nodes, level))


class TestBatchBFSSampler:
    def test_population_matches_batch_bfs(self, sampling_graph, event_nodes):
        sampler = BatchBFSSampler(sampling_graph, random_state=1)
        population = sampler.population(event_nodes, 1)
        assert set(int(x) for x in population) == reference_population(
            sampling_graph, event_nodes, 1
        )

    def test_sample_within_population(self, sampling_graph, event_nodes):
        sampler = BatchBFSSampler(sampling_graph, random_state=1)
        sample = sampler.sample(event_nodes, 1, 30)
        population = reference_population(sampling_graph, event_nodes, 1)
        assert sample.num_distinct == 30
        assert set(int(x) for x in sample.nodes) <= population
        assert not sample.weighted
        assert sample.population_size == len(population)

    def test_sample_size_larger_than_population(self, sampling_graph, event_nodes):
        sampler = BatchBFSSampler(sampling_graph, random_state=1)
        sample = sampler.sample(event_nodes, 1, 10_000)
        assert sample.num_distinct == sample.population_size

    def test_cost_counters_filled(self, sampling_graph, event_nodes):
        sample = BatchBFSSampler(sampling_graph, random_state=1).sample(event_nodes, 1, 10)
        assert sample.cost.bfs_calls == 1
        assert sample.cost.nodes_scanned > 0

    def test_empty_event_set_rejected(self, sampling_graph):
        with pytest.raises(EmptyReferenceSetError):
            BatchBFSSampler(sampling_graph).sample(np.array([], dtype=int), 1, 5)

    def test_event_node_outside_graph_rejected(self, sampling_graph):
        with pytest.raises(SamplingError):
            BatchBFSSampler(sampling_graph).sample(np.array([10_000]), 1, 5)


class TestExhaustiveSampler:
    def test_returns_whole_population(self, sampling_graph, event_nodes):
        sample = ExhaustiveSampler(sampling_graph).sample(event_nodes, 1)
        assert set(int(x) for x in sample.nodes) == reference_population(
            sampling_graph, event_nodes, 1
        )


class TestRejectionSampler:
    def test_sample_is_uniform_subset_of_population(self, sampling_graph, event_nodes):
        sampler = RejectionSampler(sampling_graph, random_state=3)
        sample = sampler.sample(event_nodes, 1, 25)
        population = reference_population(sampling_graph, event_nodes, 1)
        assert sample.num_distinct == 25
        assert set(int(x) for x in sample.nodes) <= population
        assert not sample.weighted

    def test_uniformity_over_many_runs(self, sampling_graph):
        """Every population node should be reachable by RejectSamp (Prop. 1)."""
        event_nodes = np.array([0, 1, 2, 3, 4])
        population = reference_population(sampling_graph, event_nodes, 1)
        seen = set()
        for seed in range(30):
            sampler = RejectionSampler(sampling_graph, random_state=seed)
            sample = sampler.sample(event_nodes, 1, min(5, len(population)))
            seen.update(int(x) for x in sample.nodes)
        assert seen <= population
        assert len(seen) > len(population) * 0.5

    def test_shared_vicinity_index_reused(self, sampling_graph, event_nodes):
        index = VicinityIndex(sampling_graph, levels=(1,))
        sampler = RejectionSampler(sampling_graph, vicinity_index=index, random_state=1)
        sample = sampler.sample(event_nodes, 1, 10)
        assert sample.num_distinct == 10

    def test_invalid_max_attempts(self, sampling_graph):
        with pytest.raises(SamplingError):
            RejectionSampler(sampling_graph, max_attempts_per_node=0)


class TestImportanceSampler:
    def test_sample_has_weights_and_probabilities(self, sampling_graph, event_nodes):
        sampler = ImportanceSampler(sampling_graph, random_state=5)
        sample = sampler.sample(event_nodes, 1, 30)
        assert sample.weighted
        assert sample.probabilities is not None
        assert np.all(sample.probabilities > 0)
        assert np.all(sample.probabilities <= 1)
        assert np.all(sample.frequencies >= 1)
        assert sample.num_distinct >= 30

    def test_nodes_within_population(self, sampling_graph, event_nodes):
        sampler = ImportanceSampler(sampling_graph, random_state=5)
        sample = sampler.sample(event_nodes, 2, 40)
        population = reference_population(sampling_graph, event_nodes, 2)
        assert set(int(x) for x in sample.nodes) <= population

    def test_probabilities_match_definition(self, sampling_graph, event_nodes):
        """p(r) must equal |V^h_r ∩ V_{a∪b}| / N_sum (Section 4.2)."""
        index = VicinityIndex(sampling_graph, levels=(1,))
        sampler = ImportanceSampler(sampling_graph, vicinity_index=index, random_state=5)
        sample = sampler.sample(event_nodes, 1, 20)
        total = index.total_size(event_nodes, 1)
        event_set = set(int(x) for x in event_nodes)
        for node, probability in zip(sample.nodes, sample.probabilities):
            vicinity = batch_bfs_vicinity(sampling_graph, [int(node)], 1)
            overlap = sum(1 for x in vicinity if int(x) in event_set)
            assert probability == pytest.approx(overlap / total)

    def test_batched_variant_draws_more_per_bfs(self, sampling_graph, event_nodes):
        single = ImportanceSampler(sampling_graph, batch_per_vicinity=1, random_state=7)
        batched = ImportanceSampler(sampling_graph, batch_per_vicinity=5, random_state=7)
        sample_single = single.sample(event_nodes, 1, 30)
        sample_batched = batched.sample(event_nodes, 1, 30)
        # The batched variant needs fewer BFS calls to reach the same sample size.
        assert sample_batched.cost.bfs_calls < sample_single.cost.bfs_calls

    def test_invalid_batch_size(self, sampling_graph):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            ImportanceSampler(sampling_graph, batch_per_vicinity=0)


class TestWholeGraphSampler:
    def test_sample_within_population(self, sampling_graph, event_nodes):
        sampler = WholeGraphSampler(sampling_graph, random_state=9)
        sample = sampler.sample(event_nodes, 2, 30)
        population = reference_population(sampling_graph, event_nodes, 2)
        assert set(int(x) for x in sample.nodes) <= population
        assert sample.num_distinct == 30

    def test_out_of_sight_draws_counted(self, sampling_graph):
        # A tiny event set leaves most of the graph out of sight at h=1.
        sampler = WholeGraphSampler(sampling_graph, random_state=9, max_draw_factor=500)
        sample = sampler.sample(np.array([0, 1]), 1, 3)
        assert sample.cost.out_of_sight_draws > 0

    def test_gives_up_on_hopeless_input(self):
        # A graph with no edges and a single event node: only one eligible
        # reference node exists, so asking for many must fail.
        graph = erdos_renyi_graph(500, 0.0, random_state=1).to_csr()
        sampler = WholeGraphSampler(graph, random_state=2, max_draw_factor=5)
        with pytest.raises(SamplingError):
            sampler.sample(np.array([7]), 1, 50)


class TestSampleMemo:
    @pytest.fixture
    def attributed(self, sampling_graph):
        return AttributedGraph(sampling_graph)

    def test_same_population_sampled_once(self, attributed, event_nodes):
        memo = SampleMemo()
        config = TescConfig(sample_size=50, random_state=4)
        first = memo.sample(attributed, config, event_nodes)
        second = memo.sample(attributed, config, event_nodes)
        assert first is second
        assert (memo.hits, memo.misses) == (1, 1)
        # Order of the requested node set must not matter.
        third = memo.sample(attributed, config, event_nodes[::-1].copy())
        assert third is first

    def test_distinct_requests_miss(self, attributed, event_nodes):
        memo = SampleMemo()
        config = TescConfig(sample_size=50, random_state=4)
        memo.sample(attributed, config, event_nodes)
        memo.sample(attributed, replace(config, random_state=5), event_nodes)
        memo.sample(attributed, replace(config, sample_size=60), event_nodes)
        assert memo.misses == 3
        assert memo.num_cached == 3
        memo.clear()
        assert memo.num_cached == 0
