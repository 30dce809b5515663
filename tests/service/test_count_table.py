"""The service engine's node-indexed density count tables.

Every ``rank`` and ``topk`` gathers its density columns from one count
table per ``(level, events, epoch)``, so on a static graph a node is
BFS-counted once, whatever sample or request first needed it, and a new
epoch's table is advanced from an older one through the commit journal.
The cases here pin the column counters across seeds and verbs, top-k
answers over advanced and lagging tables, the table LRU bound, the
per-stage request timings, and the reference population each
``(level, events, epoch)`` keeps beside its table.
"""

import numpy as np
import pytest

from repro.core.config import TescConfig
from repro.core.topk import ProgressiveTopKEngine, draw_order
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.sampling.batch_bfs import BatchBFSSampler
from repro.service.engine import MAX_CACHED_TABLES, ServiceEngine, pair_record
from repro.streaming.dynamic_graph import DynamicAttributedGraph

#: A multi-round schedule for the fixtures' 200- and 800-node budgets.
SCHEDULE = {"topk_initial_sample_size": 64, "topk_growth_factor": 2.0}


@pytest.fixture
def separable():
    """A dynamic graph whose top-2 scan prunes most pairs in its rounds."""
    dataset = make_dblp_like(
        num_communities=24, community_size=60, num_positive_pairs=2,
        num_negative_pairs=1, num_background_keywords=4,
        cooccurrence_fraction=0.6, keyword_coverage=0.8, communities_per_pair=4,
        random_state=13,
    )
    attributed = dataset.attributed
    graph = DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )
    return graph, TescConfig(vicinity_level=1, sample_size=800, random_state=17)


def _columns(engine):
    return tuple(
        int(engine.metrics.value("tesc_density_columns_total", outcome=outcome))
        for outcome in ("computed", "carried")
    )


def _sample_nodes(engine, seed, at_epoch=None):
    """The draw a request at ``seed`` reads (the oracle draws it afresh)."""
    ranking = engine.reference_ranking(
        "all", config_overrides={"random_state": seed}, at_epoch=at_epoch
    )
    return ranking.sample


def _in_process_topk(engine, k, epoch, **overrides):
    """A fresh in-process progressive run on the epoch's snapshot."""
    cfg = engine._merge_config(dict(SCHEDULE, **overrides))
    if not isinstance(engine.graph, DynamicAttributedGraph):
        return ProgressiveTopKEngine(engine.graph, cfg).top_k(k)
    lease = engine.graph.pin(epoch)
    try:
        return ProgressiveTopKEngine(lease.graph, cfg).top_k(k)
    finally:
        lease.release()


def _assert_topk_matches(engine, response, k, **overrides):
    epoch = response["epoch"]
    reference = engine.reference_ranking(
        "all", top_k=k, at_epoch=epoch,
        config_overrides=dict(SCHEDULE, **overrides),
    )
    assert response["pairs"] == [pair_record(pair) for pair in reference]
    in_process = _in_process_topk(engine, k, epoch, **overrides)
    assert response["pairs_pruned"] == in_process.topk_stats.pairs_pruned
    assert response["pairs_survived"] == in_process.topk_stats.pairs_survived


class TestCountOnce:
    def test_later_requests_count_only_unseen_nodes(self, service_dataset):
        """On a static graph each request BFS-counts exactly the sampled
        nodes no earlier request counted, whichever verb drew them."""
        dataset, config = service_dataset
        engine = ServiceEngine(dataset.attributed, config)
        seen = np.zeros(dataset.attributed.num_nodes, dtype=bool)
        for verb, seed in [("rank", 1), ("rank", 2), ("rank", 3),
                           ("topk", 4), ("rank", 5)]:
            nodes = draw_order(_sample_nodes(engine, seed))
            before = _columns(engine)
            if verb == "rank":
                engine.rank("all", config_overrides={"random_state": seed})
            else:
                engine.topk(
                    3, "all", config_overrides=dict(SCHEDULE, random_state=seed)
                )
            computed, carried = np.subtract(_columns(engine), before)
            unseen = int(np.count_nonzero(~seen[nodes]))
            assert (computed, carried) == (unseen, nodes.size - unseen), verb
            seen[nodes] = True
        assert engine.metrics.value("tesc_cached_density_tables") == 1
        engine.close()


class TestTopkOverTables:
    def test_advanced_and_lagging_tables_match_references(self, separable):
        dynamic_graph, config = separable
        engine = ServiceEngine(dynamic_graph, config)
        csr = dynamic_graph.csr
        u, v = next(iter(csr.edges()))
        w = next(
            node for node in range(dynamic_graph.num_nodes)
            if node not in (u, v) and not csr.has_edge(u, node)
        )

        oldest = dynamic_graph.pin()
        try:
            # Toggles on the leading pair's event move the answer itself.
            top = engine.topk(2, config_overrides=SCHEDULE)["pairs"][0]["event_a"]
            carriers = dynamic_graph.event_nodes(top).tolist()
            free = [n for n in range(dynamic_graph.num_nodes) if n not in carriers]
            # A rewire plus toggles: the epoch-1 table advances from epoch 0.
            receipt = engine.commit(
                [{"op": "edge_remove", "u": u, "v": v},
                 {"op": "edge_add", "u": u, "v": w}]
                + [{"op": "event_attach", "event": top, "node": n}
                   for n in free[:5]]
                + [{"op": "event_detach", "event": top, "node": n}
                   for n in carriers[:5]]
            )
            before = _columns(engine)
            advanced = engine.topk(2, config_overrides=SCHEDULE)
            assert advanced["epoch"] == receipt["epoch"]
            assert advanced["pairs_pruned"] > 0
            assert _columns(engine)[1] > before[1]
            _assert_topk_matches(engine, advanced, 2)

            # A view behind the newest table: epoch 1's table is still held.
            lagging = dynamic_graph.pin()
            try:
                engine.commit(
                    [{"op": "event_detach", "event": top, "node": n}
                     for n in free[:2]]
                )
                engine.rank("all")
                before = _columns(engine)
                behind = engine.topk(
                    2, config_overrides=dict(SCHEDULE, random_state=5),
                    at_epoch=lagging.epoch,
                )
                assert _columns(engine)[1] > before[1]
                _assert_topk_matches(engine, behind, 2, random_state=5)
            finally:
                lagging.release()

            # Older than every held table: the table starts empty.
            before = _columns(engine)
            first = engine.topk(2, config_overrides=SCHEDULE, at_epoch=oldest.epoch)
            assert _columns(engine)[1] == before[1]
            _assert_topk_matches(engine, first, 2)
        finally:
            oldest.release()
        engine.close()


class TestTableBound:
    def test_gauge_never_exceeds_the_lru_bound(self, dynamic_graph, service_dataset):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        shapes = ["all", [(names[0], names[1])], [(names[2], names[3])]]
        held = []
        for step in range(6):
            for pairs in shapes:
                engine.rank(pairs)
                held.append(engine.metrics.value("tesc_cached_density_tables"))
            engine.commit([{"op": "event_attach", "event": names[0], "node": step}])
        assert max(held) == MAX_CACHED_TABLES
        engine.close()


class TestStageSeconds:
    def test_rank_and_topk_stages_are_observed(self, service_dataset):
        dataset, config = service_dataset
        engine = ServiceEngine(dataset.attributed, config)
        engine.rank("all")
        engine.topk(3, config_overrides=SCHEDULE)
        engine.rank("all")  # a pair-cache hit: no compute stage

        def count(verb, stage):
            return engine.metrics.value("tesc_stage_seconds", verb=verb, stage=stage)

        for stage in ("sampling", "density", "estimate"):
            assert count("rank", stage) == 1
        # Top-k's density rounds are summed into one observation a request.
        for stage in ("sampling", "density", "screening", "estimate"):
            assert count("topk", stage) == 1
        engine.close()

    @pytest.mark.parametrize("verb", ["rank", "topk"])
    def test_stage_sums_stay_within_the_request(self, service_dataset, verb):
        dataset, config = service_dataset
        engine = ServiceEngine(dataset.attributed, config)
        if verb == "rank":
            engine.rank("all")
        else:
            engine.topk(3, config_overrides=SCHEDULE)
        snapshot = engine.metrics.snapshot()
        request = next(
            entry["sum"]
            for entry in snapshot["tesc_request_seconds"]["values"]
            if entry["labels"] == {"method": verb}
        )
        stages = sum(
            entry["sum"] for entry in snapshot["tesc_stage_seconds"]["values"]
            if entry["labels"]["verb"] == verb
        )
        assert 0 < stages <= request
        engine.close()


def _populations(engine):
    return tuple(
        int(engine.metrics.value("tesc_population_total", outcome=outcome))
        for outcome in ("computed", "reused")
    )


def _assert_rank_matches(engine, response, **overrides):
    reference = engine.reference_ranking(
        "all", at_epoch=response["epoch"], config_overrides=overrides
    )
    assert response["pairs"] == [pair_record(pair) for pair in reference]


class TestPopulationEntry:
    def test_static_graph_enumerates_once(self, service_dataset, monkeypatch):
        """Three ranks and two top-ks at fresh seeds: one enumeration, four
        draws from it, and no sampler-side BFS."""
        dataset, config = service_dataset
        engine = ServiceEngine(dataset.attributed, config)
        enumerations = []
        population = BatchBFSSampler.population

        def spy(self, event_nodes, level):
            enumerations.append(level)
            return population(self, event_nodes, level)

        answers = []
        with monkeypatch.context() as patch:
            patch.setattr(BatchBFSSampler, "population", spy)
            for verb, seed in [("rank", 1), ("topk", 2), ("rank", 3),
                               ("topk", 4), ("rank", 5)]:
                if verb == "rank":
                    answer = engine.rank("all", config_overrides={"random_state": seed})
                else:
                    answer = engine.topk(
                        3, "all", config_overrides=dict(SCHEDULE, random_state=seed)
                    )
                answers.append((verb, seed, answer))
        assert enumerations == []
        assert _populations(engine) == (1, 4)
        for verb, seed, answer in answers:
            if verb == "rank":
                _assert_rank_matches(engine, answer, random_state=seed)
            else:
                _assert_topk_matches(engine, answer, 3, random_state=seed)
        engine.close()

    def test_cache_hits_neither_make_nor_evict_entries(self, service_dataset):
        dataset, config = service_dataset
        engine = ServiceEngine(dataset.attributed, config)
        names = dataset.attributed.event_names()
        shapes = [[(names[0], names[1])], [(names[2], names[3])], [(names[4], names[5])]]
        for pairs in shapes:
            engine.rank(pairs)
        held = list(engine._states)
        assert len(held) == MAX_CACHED_TABLES
        computed = _populations(engine)
        for pairs in shapes:  # all pair-cache hits, the first one evicted
            assert engine.rank(pairs)["cached_pairs"] == 1
        assert list(engine._states) == held
        assert _populations(engine) == computed
        engine.close()

    def test_commits_and_older_views_match_references(self, dynamic_graph, service_dataset):
        """A structural commit and a toggle-only commit each make a new
        epoch's population; an older view reads its own epoch's."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config)
        names = dynamic_graph.event_names()
        csr = dynamic_graph.csr
        u, v = next(iter(csr.edges()))
        older = dynamic_graph.pin()
        try:
            engine.rank("all")
            engine.topk(3, config_overrides=SCHEDULE)
            carriers = dynamic_graph.event_nodes(names[0]).tolist()
            free = [n for n in range(dynamic_graph.num_nodes) if n not in carriers]
            commits = [
                [{"op": "edge_remove", "u": u, "v": v}],
                [{"op": "event_attach", "event": names[0], "node": n} for n in free[:4]]
                + [{"op": "event_detach", "event": names[1], "node": n}
                   for n in dynamic_graph.event_nodes(names[1]).tolist()[:3]],
            ]
            for step, deltas in enumerate(commits):
                before = _populations(engine)
                receipt = engine.commit(deltas)
                seed = 30 + step
                for at_epoch in (None, older.epoch):
                    ranked = engine.rank(
                        "all", config_overrides={"random_state": seed}, at_epoch=at_epoch
                    )
                    assert ranked["epoch"] == (
                        receipt["epoch"] if at_epoch is None else older.epoch
                    )
                    _assert_rank_matches(engine, ranked, random_state=seed)
                    top = engine.topk(
                        3, config_overrides=dict(SCHEDULE, random_state=seed),
                        at_epoch=at_epoch,
                    )
                    _assert_topk_matches(engine, top, 3, random_state=seed)
                assert _populations(engine)[0] > before[0]
                assert len(engine._states) <= MAX_CACHED_TABLES
        finally:
            older.release()
        engine.close()

    @pytest.mark.parametrize("sampler", ["reject", "whole_graph"])
    def test_other_samplers_draw_as_before(self, service_dataset, sampler):
        """Samplers that do not enumerate the population never read an
        entry's, and draw what a fresh sampler draws."""
        dataset, config = service_dataset
        engine = ServiceEngine(dataset.attributed, config)
        for seed in (3, 4):
            overrides = {"sampler": sampler, "random_state": seed}
            _assert_rank_matches(engine, engine.rank("all", config_overrides=overrides),
                                 **overrides)
            top = engine.topk(3, config_overrides=dict(SCHEDULE, **overrides))
            _assert_topk_matches(engine, top, 3, **overrides)
        assert _populations(engine) == (0, 0)
        engine.close()
