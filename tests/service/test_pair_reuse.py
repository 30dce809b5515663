"""Content-keyed reuse of pair estimates across epochs in the service engine.

A result-cache miss keys each pair by ``(pair, alpha, alternative, digest of
its two density rows over its own population)`` and reuses the stored
estimate when an earlier request fed exactly the same inputs.  The cases
here pin which pairs are re-estimated after event-only commits and distant
rewires, that a decision-config override never borrows another config's
answer, that density threads change nothing about which pairs are
re-estimated, and — under
random commit/rank/``at_epoch`` interleavings — that every answer stays
field-by-field equal to the from-scratch ``reference_ranking`` at its epoch.
"""

import itertools

import numpy as np
import pytest

import repro.service.engine as engine_module
from repro import TescConfig, open_session
from repro.cli import _render_status
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.graph.traversal import BFSEngine
from repro.streaming import Delta

from tests.service.test_incremental_density import (
    _assert_matches_reference,
    _random_batch,
)


@pytest.fixture(scope="module")
def dataset():
    return make_dblp_like(
        num_communities=10, community_size=40, num_positive_pairs=2,
        num_negative_pairs=2, num_background_keywords=4, random_state=31,
    )


def _session(dataset, workers=1, **config):
    config.setdefault("random_state", 3)
    return open_session(
        dataset.graph.copy(), TescConfig(**config),
        events=dataset.attributed.events.copy(), workers=workers,
    )


class _Estimates:
    """Reads the estimated/reused counters as per-call deltas."""

    def __init__(self, session):
        self.session = session
        self.last = self._read()

    def _read(self):
        return tuple(
            int(self.session.metrics.value("tesc_pair_estimates_total", outcome=outcome))
            for outcome in ("estimated", "reused")
        )

    def delta(self):
        now = self._read()
        estimated, reused = now[0] - self.last[0], now[1] - self.last[1]
        self.last = now
        return estimated, reused


def _record_calls(monkeypatch):
    """Wrap the engine's ``estimate_pair_list`` to record each call's pairs."""
    original = engine_module.estimate_pair_list
    calls = []

    def recording(pairs, *args, **kwargs):
        calls.append(list(pairs))
        return original(pairs, *args, **kwargs)

    monkeypatch.setattr(engine_module, "estimate_pair_list", recording)
    return calls


def _pairs_and_toggle(dataset, session):
    """All pairs over the planted events, one event named both first and
    second in some pair, and a node of the universe that lacks it but
    already lies in its population (so every pair keeps its columns and
    only the toggled event's density values move)."""
    events = sorted({e for pair in dataset.positive_pairs + dataset.negative_pairs
                     for e in pair})
    pairs = list(itertools.combinations(events, 2))
    toggled = events[len(events) // 2]
    graph = session.graph
    population = set(BFSEngine(graph.csr).multi_source_vicinity(
        graph.event_nodes(toggled), session.config.vicinity_level
    ).tolist())
    carrier = next(
        int(node) for event in events if event != toggled
        for node in graph.event_nodes(event)
        if not graph.event_indicator(toggled)[node] and int(node) in population
    )
    return pairs, toggled, carrier


class TestWhichPairsAreReEstimated:
    def test_event_only_commit_re_estimates_pairs_naming_the_event(
        self, dataset, monkeypatch
    ):
        # Exhaustive sampling over an unchanged universe keeps the columns,
        # so only the toggled event's row moves.
        with _session(dataset, sampler="exhaustive") as session:
            pairs, toggled, carrier = _pairs_and_toggle(dataset, session)
            session.rank(pairs)
            calls = _record_calls(monkeypatch)
            estimates = _Estimates(session)
            session.commit([Delta.event_attach(toggled, carrier)])
            response = session.rank(pairs)
            naming = [pair for pair in pairs if toggled in pair]
            assert calls == [naming]
            assert estimates.delta() == (len(naming), len(pairs) - len(naming))
            assert response["computed_pairs"] == len(pairs)
            _assert_matches_reference(session, response, pairs)
            status = _render_status(session.describe())
            assert "tesc_pair_estimates_total{outcome=reused}" in status
            assert "tesc_pair_estimates_total{outcome=estimated}" in status

    def test_rewire_outside_the_population_reuses_the_pair(self, dataset):
        pair = dataset.positive_pairs[0]
        with _session(dataset, sampler="exhaustive") as session:
            graph = session.graph
            universe = np.unique(np.concatenate(
                [graph.event_nodes(event) for event in pair]
            ))
            # Two hops past the population: no column's vicinity sees it.
            near = set(BFSEngine(graph.csr).multi_source_vicinity(universe, 3).tolist())
            far = [node for node in range(graph.num_nodes) if node not in near]
            u, v = next(
                (u, v) for u, v in graph.csr.edges() if u in far and v in far
            )
            w = next(
                node for node in far
                if node not in (u, v) and not graph.csr.has_edge(u, node)
            )
            session.rank([pair])
            estimates = _Estimates(session)
            receipt = session.commit([Delta.edge_remove(u, v), Delta.edge_add(u, w)])
            assert receipt["changed"]
            response = session.rank([pair])
            assert response["epoch"] == receipt["epoch"]
            assert response["computed_pairs"] == 1
            assert estimates.delta() == (0, 1)
            _assert_matches_reference(session, response, [pair])

    def test_decision_overrides_never_share_an_estimate(self, dataset):
        pair = dataset.positive_pairs[0]
        with _session(dataset, sampler="exhaustive") as session:
            session.rank([pair])
            estimates = _Estimates(session)
            overrides = [
                {"alpha": 0.2}, {"alternative": "greater"},
                {"alpha": 0.2, "alternative": "less"},
            ]
            for config in overrides:
                response = session.rank([pair], **config)
                assert estimates.delta() == (1, 0), config
                _assert_matches_reference(session, response, [pair], **config)
            # An irrelevant commit: each config now reuses its own answer.
            session.commit([Delta.event_attach("bg_0", int(
                session.graph.event_nodes("bg_1")[0]
            ))])
            for config in [{}] + overrides:
                response = session.rank([pair], **config)
                assert estimates.delta() == (0, 1), config
                _assert_matches_reference(session, response, [pair], **config)


class TestThreadedReuse:
    def test_only_non_reused_pairs_are_estimated_at_two_workers(
        self, dataset, monkeypatch
    ):
        with _session(dataset, workers=2, sampler="exhaustive") as session:
            pairs, toggled, carrier = _pairs_and_toggle(dataset, session)
            calls = _record_calls(monkeypatch)
            session.rank(pairs)
            session.commit([Delta.event_attach(toggled, carrier)])
            response = session.rank(pairs)
            assert calls == [pairs, [pair for pair in pairs if toggled in pair]]
            _assert_matches_reference(session, response, pairs)


class TestRandomInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_answer_matches_the_reference(self, dataset, seed):
        rng = np.random.default_rng(seed)
        pair_sets = [
            dataset.positive_pairs + dataset.negative_pairs,
            dataset.positive_pairs,
            [dataset.negative_pairs[0], ("bg_0", "bg_1")],
        ]
        events = sorted({e for pairs in pair_sets for pair in pairs for e in pair})
        configs = [{}, {"alpha": 0.2}, {"alternative": "greater"}]
        sampler = ["batch_bfs", "exhaustive", "whole_graph"][seed]
        with _session(dataset, sample_size=150, sampler=sampler) as session:
            estimates = _Estimates(session)
            views = []
            try:
                for _ in range(30):
                    roll = rng.random()
                    if roll < 0.3:
                        if rng.random() < 0.5:
                            batch = [
                                Delta.event_attach(
                                    events[int(rng.integers(0, len(events)))],
                                    int(rng.integers(0, session.graph.num_nodes)),
                                )
                            ]
                        else:
                            batch = _random_batch(
                                rng, session.graph, events, num_edges=2,
                                num_events=1,
                            )
                        session.commit(batch)
                        if rng.random() < 0.5:
                            views.append(session.at_epoch())
                        continue
                    pairs = pair_sets[int(rng.integers(0, len(pair_sets)))]
                    config = configs[int(rng.integers(0, len(configs)))]
                    if views and roll < 0.6:
                        view = views[int(rng.integers(0, len(views)))]
                        response = view.rank(pairs, **config)
                        assert response["epoch"] == view.epoch
                    else:
                        response = session.rank(pairs, **config)
                    _assert_matches_reference(session, response, pairs, **config)
            finally:
                for view in views:
                    view.close()
            estimated, reused = estimates.delta()
            assert estimated > 0 and reused > 0
