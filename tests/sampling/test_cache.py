"""Tests for the sample memo: reuse, epochs, fresh draws and LRU eviction."""

import numpy as np
import pytest

from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.sampling import cache
from repro.sampling.cache import SampleMemo, event_nodes_fingerprint
from repro.sampling.registry import make_config_sampler


@pytest.fixture
def attributed(random_graph):
    return AttributedGraph(random_graph)


def _config(**kwargs):
    kwargs.setdefault("sample_size", 40)
    kwargs.setdefault("random_state", 3)
    return TescConfig(**kwargs)


class TestFingerprint:
    def test_order_insensitive(self):
        assert event_nodes_fingerprint(np.array([3, 1, 2])) == event_nodes_fingerprint(
            np.array([1, 2, 3])
        )

    def test_distinguishes_sets(self):
        assert event_nodes_fingerprint(np.array([1, 2])) != event_nodes_fingerprint(
            np.array([1, 3])
        )


class TestSampleMemo:
    def test_hit_returns_same_object(self, attributed):
        memo = SampleMemo()
        config = _config(sample_size=30)
        nodes = np.arange(20)
        first = memo.sample(attributed, config, nodes)
        second = memo.sample(attributed, config, nodes)
        assert first is second
        assert memo.hits == 1
        assert memo.misses == 1

    def test_memoises_per_population_and_epoch(self, attributed, monkeypatch):
        calls = {"n": 0}

        def counting(graph, cfg):
            calls["n"] += 1
            return make_config_sampler(graph, cfg)

        monkeypatch.setattr(cache, "make_config_sampler", counting)
        memo = SampleMemo()
        config = _config()
        nodes = np.arange(25)
        first = memo.sample(attributed, config, nodes, epoch=0)
        assert memo.sample(attributed, config, nodes, epoch=0) is first
        assert calls["n"] == 1
        memo.sample(attributed, config, nodes, epoch=1)
        assert calls["n"] == 2
        assert memo.hits == 1
        assert memo.misses == 2

    def test_fresh_factory_draw_matches_from_scratch_sampler(self, attributed):
        """Every miss reproduces a brand-new seeded sampler's draw, whatever
        the memo drew before."""
        config = _config(random_state=9)
        memo = SampleMemo()
        nodes = np.arange(30)
        # Draw another population first, then the same population at two
        # epochs: each draw must equal a from-scratch sampler's.
        memo.sample(attributed, config, np.arange(50, 90))
        first = memo.sample(attributed, config, nodes, epoch=0)
        second = memo.sample(attributed, config, nodes, epoch=1)
        reference = make_config_sampler(attributed, config).sample(
            nodes, config.vicinity_level, config.sample_size
        )
        np.testing.assert_array_equal(first.nodes, reference.nodes)
        np.testing.assert_array_equal(second.nodes, reference.nodes)

    def test_distinct_configs_are_distinct_entries(self, attributed):
        memo = SampleMemo()
        nodes = np.arange(25)
        for config in (
            _config(), _config(random_state=4), _config(sampler="exhaustive"),
            _config(sample_size=41), _config(vicinity_level=2),
        ):
            memo.sample(attributed, config, nodes)
        assert memo.misses == memo.num_cached == 5

    def test_eviction_respects_max_entries(self, attributed):
        memo = SampleMemo(max_entries=2)
        config = _config(sample_size=15)
        for offset in range(4):
            memo.sample(attributed, config, np.arange(10 + offset))
        assert memo.num_cached == 2

    def test_hit_refreshes_recency(self, attributed):
        """A sample re-hit between misses is never the one evicted."""
        memo = SampleMemo(max_entries=3)
        config = _config(sample_size=15)
        hot = np.arange(10)
        first = memo.sample(attributed, config, hot)
        for offset in range(2 * memo.max_entries):
            memo.sample(attributed, config, np.arange(11 + offset))
            assert memo.sample(attributed, config, hot) is first
        assert memo.misses == 1 + 2 * memo.max_entries
        assert memo.num_cached == memo.max_entries

    def test_clear(self, attributed):
        memo = SampleMemo()
        memo.sample(attributed, _config(sample_size=15), np.arange(10))
        memo.clear()
        assert memo.num_cached == 0
