"""Tests for the sample memo of one population: reuse, fresh draws and LRU
eviction."""

import numpy as np
import pytest

from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.sampling import cache
from repro.sampling.cache import SampleMemo
from repro.sampling.registry import make_config_sampler


@pytest.fixture
def attributed(random_graph):
    return AttributedGraph(random_graph)


def _config(**kwargs):
    kwargs.setdefault("sample_size", 40)
    kwargs.setdefault("random_state", 3)
    return TescConfig(**kwargs)


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
        """One memo per population at one graph state: each draws once."""
        calls = {"n": 0}

        def counting(graph, cfg):
            calls["n"] += 1
            return make_config_sampler(graph, cfg)

        monkeypatch.setattr(cache, "make_config_sampler", counting)
        config = _config()
        memos = {size: SampleMemo() for size in (25, 40)}
        first = {
            n: memo.sample(attributed, config, np.arange(n)) for n, memo in memos.items()
        }
        for n, memo in memos.items():
            assert memo.sample(attributed, config, np.arange(n)) is first[n]
            assert (memo.hits, memo.misses) == (1, 1)
        assert calls["n"] == 2
        assert first[25] is not first[40]

    def test_fresh_factory_draw_matches_from_scratch_sampler(self, attributed):
        """Every miss reproduces a brand-new seeded sampler's draw, whatever
        the memo drew before."""
        config = _config(random_state=9)
        nodes = np.arange(30)
        # Draw under other seeds first, then under this one in two memos:
        # each draw must equal a from-scratch sampler's.
        memo = SampleMemo()
        for seed in (1, 2):
            memo.sample(attributed, _config(random_state=seed), nodes)
        first = memo.sample(attributed, config, nodes)
        second = SampleMemo().sample(attributed, config, nodes)
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
            _config(sample_size=41),
        ):
            memo.sample(attributed, config, nodes)
        assert memo.misses == memo.num_cached == 4

    def test_eviction_respects_max_entries(self, attributed):
        memo = SampleMemo(max_entries=2)
        nodes = np.arange(10)
        for seed in range(4):
            memo.sample(attributed, _config(sample_size=15, random_state=seed), nodes)
        assert memo.num_cached == 2

    def test_hit_refreshes_recency(self, attributed):
        """A sample re-hit between misses is never the one evicted."""
        memo = SampleMemo(max_entries=3)
        nodes = np.arange(10)
        hot = _config(sample_size=15)
        first = memo.sample(attributed, hot, nodes)
        for seed in range(2 * memo.max_entries):
            cold = _config(sample_size=15, random_state=10 + seed)
            memo.sample(attributed, cold, nodes)
            assert memo.sample(attributed, hot, nodes) is first
        assert memo.misses == 1 + 2 * memo.max_entries
        assert memo.num_cached == memo.max_entries

    def test_clear(self, attributed):
        memo = SampleMemo()
        memo.sample(attributed, _config(sample_size=15), np.arange(10))
        memo.clear()
        assert memo.num_cached == 0
