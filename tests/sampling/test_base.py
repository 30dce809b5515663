"""Tests for repro.sampling.base."""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.sampling.base import ReferenceSample, SamplingCost


class TestReferenceSample:
    def test_valid_sample(self):
        sample = ReferenceSample(nodes=[1, 2, 3], frequencies=[1, 2, 1])
        assert sample.num_distinct == 3
        assert sample.num_draws == 4

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(SamplingError):
            ReferenceSample(nodes=[1, 1, 2], frequencies=[1, 1, 1])

    def test_frequency_shape_mismatch_rejected(self):
        with pytest.raises(SamplingError):
            ReferenceSample(nodes=[1, 2], frequencies=[1])

    def test_probabilities_shape_mismatch_rejected(self):
        with pytest.raises(SamplingError):
            ReferenceSample(nodes=[1, 2], frequencies=[1, 1], probabilities=[0.5])

    def test_arrays_are_int64(self):
        sample = ReferenceSample(nodes=[3, 1], frequencies=[1, 1])
        assert sample.nodes.dtype == np.int64


class TestSamplingCost:
    def test_merge_engine(self, random_graph):
        from repro.graph.traversal import BFSEngine

        engine = BFSEngine(random_graph.to_csr())
        engine.vicinity(0, 2)
        cost = SamplingCost()
        cost.merge_engine(engine)
        assert cost.bfs_calls == 1
        assert cost.nodes_scanned > 0

    def test_default_zeroes(self):
        cost = SamplingCost()
        assert cost.bfs_calls == 0
        assert cost.rejections == 0
        assert cost.out_of_sight_draws == 0
