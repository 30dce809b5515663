"""Epoch-keyed result caching: no interleaving may ever serve stale data.

The service finds a rank's cached pair estimates through row digests keyed
per ``(config, events, epoch)``, so the property that matters is: after ANY
sequence of stream commits and rank queries, every answer is bit-identical to a fresh from-scratch static
ranking of the graph *as it stands at that moment*.  The suites below drive
randomised interleavings (seeded, reproducible) plus the targeted cases —
cache hits within an epoch, invalidation across epochs, no-op commits.
"""

import random
import sys
import threading
import weakref
from dataclasses import replace

import pytest

from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import InsufficientSampleError
from repro.graph.generators import community_ring_graph
from repro.service import engine as engine_module
from repro.service.engine import ServiceEngine, pair_record


def reference_records(engine, pairs):
    """What a fresh serial in-process engine answers right now."""
    return [pair_record(pair) for pair in engine.reference_ranking(pairs)]


def random_delta(rng, event_names, num_nodes):
    kind = rng.randrange(4)
    if kind == 0:
        return {
            "op": "event_attach",
            "event": rng.choice(event_names),
            "node": rng.randrange(num_nodes),
        }
    if kind == 1:
        return {
            "op": "event_detach",
            "event": rng.choice(event_names),
            "node": rng.randrange(num_nodes),
        }
    u = rng.randrange(num_nodes)
    v = rng.randrange(num_nodes)
    if u == v:
        v = (v + 1) % num_nodes
    op = "edge_add" if kind == 2 else "edge_remove"
    return {"op": op, "u": u, "v": v}


class TestEpochCacheProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleavings_never_serve_stale_results(
        self, seed, dynamic_graph, service_dataset
    ):
        """Randomised commit/rank interleaving: every rank answer must match
        a fresh static ranking at the answering epoch, bit for bit."""
        _dataset, config = service_dataset
        rng = random.Random(seed)
        engine = ServiceEngine(dynamic_graph, config)
        event_names = dynamic_graph.event_names()
        num_nodes = dynamic_graph.num_nodes
        all_pairs = [
            (event_names[i], event_names[j])
            for i in range(0, len(event_names), 3)
            for j in range(1, len(event_names), 5)
            if event_names[i] != event_names[j]
        ][:12]

        queries = 0
        for _step in range(24):
            if rng.random() < 0.4:
                deltas = [
                    random_delta(rng, event_names, num_nodes)
                    for _ in range(rng.randint(1, 3))
                ]
                engine.commit(deltas)
            else:
                pairs = rng.sample(all_pairs, k=rng.randint(1, 4))
                result = engine.rank(pairs)
                assert result["pairs"] == reference_records(engine, pairs)
                assert result["epoch"] == engine.current_epoch()
                queries += 1
        assert queries > 0
        # The interleaving must actually have exercised the cache.
        assert engine.metrics.value("tesc_pair_cache_misses_total") > 0
        engine.close()

    def test_same_epoch_queries_hit_the_cache(self, dynamic_graph, service_dataset):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        pairs = [(names[0], names[1]), (names[2], names[3])]
        first = engine.rank(pairs)
        assert first["computed_pairs"] == 2 and first["cached_pairs"] == 0
        second = engine.rank(pairs)
        assert second["cached_pairs"] == 2 and second["computed_pairs"] == 0
        assert second["pairs"] == first["pairs"]
        # A subset request spans a different event universe, so it draws a
        # different shared reference sample: the cache must NOT conflate the
        # two, and the recomputed answer must still match a fresh engine.
        subset = engine.rank(pairs[:1])
        assert subset["cached_pairs"] == 0 and subset["computed_pairs"] == 1
        assert subset["pairs"] == reference_records(engine, pairs[:1])
        engine.close()

    def test_commit_invalidates_exactly_by_epoch(
        self, dynamic_graph, service_dataset
    ):
        """A commit that changes a watched event's occurrences must change
        the served answer; the stale epoch's entries are never reused."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        pairs = [(names[0], names[1])]
        before = engine.rank(pairs)
        # Toggle many occurrences of a watched event: the restricted
        # population shifts, so a correct answer must be recomputed.
        occupied = set(dynamic_graph.event_nodes(names[0]).tolist())
        free = [n for n in range(dynamic_graph.num_nodes) if n not in occupied]
        engine.commit(
            [{"op": "event_attach", "event": names[0], "node": n}
             for n in free[:40]]
        )
        after = engine.rank(pairs)
        assert after["epoch"] == before["epoch"] + 1
        assert after["cached_pairs"] == 0  # nothing reused across the epoch
        assert after["pairs"] == reference_records(engine, pairs)
        record_before = before["pairs"][0]
        record_after = after["pairs"][0]
        assert (
            record_before["num_reference_nodes"]
            != record_after["num_reference_nodes"]
            or record_before["score"] != record_after["score"]
        )
        engine.close()

    def test_noop_commit_still_safe(self, dynamic_graph, service_dataset):
        """Attach of an existing occurrence nets to nothing; whether or not
        the epoch moves, answers must stay correct and bit-identical."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        node = int(dynamic_graph.event_nodes(names[0])[0])
        pairs = [(names[0], names[1])]
        before = engine.rank(pairs)
        engine.commit([{"op": "event_attach", "event": names[0], "node": node}])
        after = engine.rank(pairs)
        assert after["pairs"] == reference_records(engine, pairs)
        assert [r["score"] for r in after["pairs"]] == [
            r["score"] for r in before["pairs"]
        ]
        engine.close()

    def test_topk_cache_respects_epochs(self, dynamic_graph, service_dataset):
        """Top-k reads the epoch's memoised sample: a repeat at one epoch
        reuses the draw, and every answer is that epoch's reference."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        first = engine.topk(3)
        again = engine.topk(3)
        assert again == first
        assert engine.metrics.value("tesc_sample_memo_misses_total") == 1
        assert engine.metrics.value("tesc_sample_memo_hits_total") == 1
        reference = engine.reference_ranking("all", top_k=3)
        assert first["pairs"] == [pair_record(pair) for pair in reference]
        occupied = set(dynamic_graph.event_nodes(names[0]).tolist())
        free = [n for n in range(dynamic_graph.num_nodes) if n not in occupied]
        engine.commit(
            [{"op": "event_attach", "event": names[0], "node": n}
             for n in free[:30]]
        )
        fresh = engine.topk(3)
        assert fresh["epoch"] == first["epoch"] + 1
        assert engine.metrics.value("tesc_sample_memo_misses_total") == 2
        reference = engine.reference_ranking("all", top_k=3)
        assert fresh["pairs"] == [pair_record(pair) for pair in reference]
        engine.close()


class TestTopkDraws:
    """Service top-k runs the progressive engine over the memoised draw."""

    def test_unseeded_topk_repeats_within_an_epoch(
        self, dynamic_graph, service_dataset
    ):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, replace(config, random_state=None))
        first = engine.topk(3)
        assert engine.topk(3) == first
        engine.close()

    def test_rank_and_topk_share_one_draw(self, dynamic_graph, service_dataset):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        misses = engine.metrics.value("tesc_sample_memo_misses_total")
        hits = engine.metrics.value("tesc_sample_memo_hits_total")
        engine.rank("all")
        engine.topk(3, "all")
        assert engine.metrics.value("tesc_sample_memo_misses_total") == misses + 1
        assert engine.metrics.value("tesc_sample_memo_hits_total") == hits + 1
        engine.close()

    def test_raise_after_keep_at_one_epoch(self):
        """``on_insufficient="raise"`` raises on a second call at the same
        epoch too, as it does on a fresh engine and for ``rank``."""
        graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
        attributed = AttributedGraph(
            graph,
            {"a": range(0, 120), "b": range(10, 130), "c": [200], "d": [300]},
        )
        engine = ServiceEngine(
            attributed, TescConfig(sample_size=30, random_state=1)
        )
        pairs = [("c", "d"), ("a", "b")]
        kept = engine.topk(1, pairs, on_insufficient="keep")
        assert [(p["event_a"], p["event_b"]) for p in kept["pairs"]] == [("a", "b")]
        with pytest.raises(InsufficientSampleError):
            engine.topk(1, pairs, on_insufficient="raise")
        engine.close()


class TestSampleMemoBound:
    def test_per_seed_memos_stay_bounded(
        self, dynamic_graph, service_dataset, monkeypatch
    ):
        """Samples of every request seed share their epoch state's memo,
        evicted LRU beyond ``MAX_CACHED_SAMPLES``; an evicted seed redraws
        the identical sample."""
        _dataset, config = service_dataset
        monkeypatch.setattr(engine_module, "MAX_CACHED_SAMPLES", 3)
        # A one-row digest index never knows both rows of a pair, so every
        # re-rank below goes back to the sample.
        monkeypatch.setattr(engine_module, "MAX_CACHED_RESULTS", 1)
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        pairs = [(names[0], names[1])]
        first = engine.rank(pairs, config_overrides={"random_state": 0})
        for seed in range(1, 12):
            engine.rank(pairs, config_overrides={"random_state": seed})
            [state] = engine._states.values()
            assert state.draws.num_cached <= 3
        misses = engine.metrics.value("tesc_sample_memo_misses_total")
        again = engine.rank(pairs, config_overrides={"random_state": 0})
        assert engine.metrics.value("tesc_sample_memo_misses_total") == misses + 1
        assert again["pairs"] == first["pairs"]
        reference = engine.reference_ranking(
            pairs, config_overrides={"random_state": 0}
        )
        assert again["pairs"] == [pair_record(pair) for pair in reference]
        [state] = engine._states.values()
        assert state.draws.num_cached <= 3
        engine.close()

    def test_draws_leave_with_their_state(
        self, dynamic_graph, service_dataset, monkeypatch
    ):
        """Ranking more event sets than the engine holds epoch states for
        evicts the first set's state and its draws: returning to it at the
        same seed draws once more, identically."""
        _dataset, config = service_dataset
        # A one-row digest index never knows both rows of a pair, so every
        # rank below goes back to the sample.
        monkeypatch.setattr(engine_module, "MAX_CACHED_RESULTS", 1)
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        shapes = [[(names[i], names[i + 1])] for i in range(4)]
        assert len(shapes) > engine_module.MAX_CACHED_TABLES
        first = engine.rank(shapes[0])
        for pairs in shapes[1:]:
            engine.rank(pairs)
        misses = engine.metrics.value("tesc_sample_memo_misses_total")
        hits = engine.metrics.value("tesc_sample_memo_hits_total")
        again = engine.rank(shapes[0])
        assert engine.metrics.value("tesc_sample_memo_misses_total") == misses + 1
        assert engine.metrics.value("tesc_sample_memo_hits_total") == hits
        assert again["pairs"] == first["pairs"]
        assert again["pairs"] == reference_records(engine, shapes[0])
        engine.close()

    def test_cached_samples_sum_over_the_states(
        self, dynamic_graph, service_dataset
    ):
        """``describe()["cached_samples"]`` counts every held state's draws,
        so it is bounded by both LRUs together."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        shapes = [[(names[i], names[i + 1])] for i in range(3)]
        bound = engine_module.MAX_CACHED_SAMPLES * engine_module.MAX_CACHED_TABLES
        for pairs in shapes:
            for seed in range(engine_module.MAX_CACHED_SAMPLES + 2):
                engine.rank(pairs, config_overrides={"random_state": seed})
                cached = engine.describe()["cached_samples"]
                assert cached == sum(
                    state.draws.num_cached for state in engine._states.values()
                )
                assert cached <= bound
        assert cached == bound
        engine.close()


class TestOnePairCache:
    """A repeated rank is answered from the content-keyed pair cache through
    the row-digest index; a density matrix lives for one request."""

    @staticmethod
    def _counters(engine):
        return tuple(
            engine.metrics.value(name)
            for name in (
                "tesc_matrices_computed_total",
                "tesc_sample_memo_hits_total",
                "tesc_sample_memo_misses_total",
            )
        )

    def test_rereads_need_no_sample_or_matrix(self, dynamic_graph, service_dataset):
        """Hot-read's traffic: more event sets than the sample memo holds,
        each re-ranked after all were ranked once."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        shapes = [[(names[i], names[i + 1])] for i in range(12)]
        assert len(shapes) > engine_module.MAX_CACHED_SAMPLES
        first = [engine.rank(pairs) for pairs in shapes]
        assert all(response["computed_pairs"] == 1 for response in first)
        counters = self._counters(engine)
        for pairs, before in zip(shapes, first):
            again = engine.rank(pairs)
            assert again["computed_pairs"] == 0 and again["cached_pairs"] == 1
            assert again["pairs"] == before["pairs"]
            assert self._counters(engine) == counters
        engine.close()

    def test_rereads_build_no_universe_or_fingerprint(
        self, dynamic_graph, service_dataset, monkeypatch
    ):
        """More event sets than the engine holds epoch states for: a
        re-rank finds its rows by its events and epoch, so it neither
        builds the events' universe nor hashes it."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        shapes = [[(names[i], names[i + 1])] for i in range(12)]
        assert len(shapes) > engine_module.MAX_CACHED_TABLES
        for pairs in shapes:
            engine.rank(pairs)
        calls = []

        def spy(name, original):
            def recorded(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return recorded

        monkeypatch.setattr(
            engine_module, "event_universe",
            spy("event_universe", engine_module.event_universe),
        )
        for pairs in shapes:
            assert engine.rank(pairs)["computed_pairs"] == 0
        assert calls == []
        engine.close()

    def test_fresh_seeds_cache_each_pair_once(self, dynamic_graph, service_dataset):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        pairs = [(names[0], names[1]), (names[2], names[3]), (names[0], names[3])]
        seeds = range(5)
        for seed in seeds:
            overrides = {"random_state": seed}
            response = engine.rank(pairs, config_overrides=overrides)
            assert response["computed_pairs"] == len(pairs)
            reference = engine.reference_ranking(pairs, config_overrides=overrides)
            assert response["pairs"] == [pair_record(pair) for pair in reference]
        assert engine.describe()["cached_pair_results"] == len(seeds) * len(pairs)
        assert engine.metrics.value("tesc_cached_pair_results") == len(seeds) * len(pairs)
        assert engine.metrics.value("tesc_matrices_computed_total") == len(seeds)
        engine.close()

    def test_request_matrices_are_not_held(self, dynamic_graph, service_dataset):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        gather = engine._gather_columns
        made = []

        def recording_gather(*args, **kwargs):
            matrix = gather(*args, **kwargs)
            made.append(weakref.ref(matrix))
            return matrix

        engine._gather_columns = recording_gather
        names = dynamic_graph.event_names()
        engine.rank([(names[0], names[1])])
        engine.topk(2)
        assert len(made) == 2
        assert [ref() for ref in made] == [None, None]
        engine.close()

    def test_row_digest_index_stays_bounded(
        self, dynamic_graph, service_dataset, monkeypatch
    ):
        _dataset, config = service_dataset
        monkeypatch.setattr(engine_module, "MAX_CACHED_RESULTS", 5)
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        pairs = [(names[0], names[1]), (names[2], names[3])]
        for seed in range(6):
            overrides = {"random_state": seed}
            response = engine.rank(pairs, config_overrides=overrides)
            reference = engine.reference_ranking(pairs, config_overrides=overrides)
            assert response["pairs"] == [pair_record(pair) for pair in reference]
            assert engine.describe()["cached_row_digests"] <= 5
            assert engine.metrics.value("tesc_cached_row_digests") <= 5
            assert engine.describe()["cached_pair_results"] <= 5
        engine.close()

    def test_racing_readers_under_eviction(
        self, dynamic_graph, service_dataset, monkeypatch
    ):
        """Readers race on the lock-free hit path while misses fill and
        evict a tiny pair cache and digest index: every answer stays the
        reference, and every pair is counted once as a hit or a miss."""
        _dataset, config = service_dataset
        monkeypatch.setattr(engine_module, "MAX_CACHED_RESULTS", 6)
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        shapes = [
            [(names[i], names[i + 1]), (names[i + 2], names[i + 3])] for i in range(4)
        ]
        references = {
            index: reference_records(engine, pairs) for index, pairs in enumerate(shapes)
        }
        errors = []
        rounds = 6

        def reader(offset):
            try:
                for step in range(rounds):
                    index = (offset + step) % len(shapes)
                    response = engine.rank(shapes[index])
                    assert response["pairs"] == references[index], index
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        value = engine.metrics.value
        misses = value("tesc_pair_cache_misses_total")
        assert value("tesc_pair_cache_hits_total") + misses == 4 * rounds * 2
        assert misses == (
            value("tesc_pair_estimates_total", outcome="estimated")
            + value("tesc_pair_estimates_total", outcome="reused")
            + value("tesc_singleflight_coalesced_total")
        )
        assert len(engine._digests) <= 6 and len(engine._estimates) <= 6
        engine.close()
