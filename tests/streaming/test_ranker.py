"""Equivalence suite for ranking over a changing graph through a session.

After *any* sequence of commits, every post-commit ``rank`` — whose density
matrix carries clean columns forward from the previous epoch through the
commit journal — must be bit-identical, field by field, to the from-scratch
``reference_ranking`` at its epoch, across samplers and worker counts.  The
carry-forward mechanics and fallbacks are pinned in
``tests/service/test_incremental_density.py``, which also holds the shared
helpers.
"""

import numpy as np
import pytest

from repro import TescConfig, open_session
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.datasets.synthetic_twitter import make_twitter_like
from repro.exceptions import ConfigurationError
from repro.service.engine import pair_record
from repro.service.protocol import BadRequestError
from repro.streaming import Delta

from tests.service.test_incremental_density import (
    _assert_matches_reference,
    _Columns,
    _random_batch,
    _session,
)


@pytest.fixture
def dataset():
    return make_dblp_like(
        num_communities=10, community_size=40, num_positive_pairs=2,
        num_negative_pairs=2, num_background_keywords=4, random_state=31,
    )


class TestEquivalenceProperty:
    """Random commit sequences stay bit-identical to the reference."""

    @pytest.mark.parametrize("sampler", ["batch_bfs", "whole_graph", "exhaustive"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dblp_like_stream(self, sampler, workers, dataset):
        pairs = (
            dataset.positive_pairs
            + dataset.negative_pairs
            + [("bg_0", "bg_1"), ("bg_2", "bg_3")]
        )
        events = sorted({event for pair in pairs for event in pair})
        rng = np.random.default_rng(100 + workers)
        with open_session(
            dataset.graph.copy(),
            TescConfig(vicinity_level=1, sample_size=120, sampler=sampler,
                       random_state=7),
            events=dataset.attributed.events.copy(), workers=workers,
        ) as session:
            columns = _Columns(session)
            _assert_matches_reference(session, session.rank(pairs), pairs)
            carried = 0
            for _ in range(4):
                receipt = session.commit(_random_batch(rng, session.graph, events))
                response = session.rank(pairs, at_epoch=receipt["epoch"])
                _assert_matches_reference(session, response, pairs)
                carried += columns.delta()[1]
            assert carried > 0

    @pytest.mark.parametrize("sampler", ["batch_bfs", "whole_graph"])
    def test_twitter_like_stream(self, sampler):
        graph = make_twitter_like(num_nodes=600, edges_per_node=4, random_state=3)
        rng = np.random.default_rng(17)
        events = {
            name: rng.choice(600, size=60, replace=False)
            for name in ("a", "b", "c", "d")
        }
        config = TescConfig(
            vicinity_level=2, sample_size=100, sampler=sampler, random_state=23,
        )
        with open_session(graph, config, events=events) as session:
            _assert_matches_reference(session, session.rank(), "all")
            for _ in range(3):
                session.commit(
                    _random_batch(rng, session.graph, list(events), num_edges=6)
                )
                _assert_matches_reference(session, session.rank(), "all")

    def test_worker_counts_agree_exactly(self):
        data = make_dblp_like(
            num_communities=8, community_size=30, num_positive_pairs=2,
            num_negative_pairs=1, num_background_keywords=2, random_state=5,
        )
        rng = np.random.default_rng(55)
        probe = _session(data)
        batches = []
        for _ in range(3):
            batches.append(
                _random_batch(rng, probe.graph, probe.graph.event_names())
            )
            probe.commit(batches[-1])
        probe.close()

        answers = {}
        for workers in (1, 2):
            with open_session(
                data.graph.copy(), TescConfig(sample_size=90, random_state=11),
                events=data.attributed.events.copy(), workers=workers,
            ) as session:
                session.rank()
                for batch in batches:
                    session.commit(batch)
                    answers.setdefault(workers, []).append(session.rank()["pairs"])
        assert answers[1] == answers[2]


class TestIncrementalBehaviour:
    def test_first_commit_reports_every_pair_as_new(self, dataset):
        """The first rank computes every pair and every density column."""
        with _session(dataset, sample_size=100) as session:
            columns = _Columns(session)
            first = session.rank()
            assert first["computed_pairs"] == len(first["pairs"])
            assert first["cached_pairs"] == 0
            computed, carried = columns.delta()
            assert computed > 0 and carried == 0

    def test_empty_commit_changes_nothing(self, dataset):
        with _session(dataset, sample_size=100) as session:
            first = session.rank()
            columns = _Columns(session)
            receipt = session.commit([])
            assert receipt["epoch"] == first["epoch"]
            again = session.rank()
            assert again["pairs"] == first["pairs"]
            assert again["computed_pairs"] == 0
            assert columns.delta() == (0, 0)

    def test_localised_edit_carries_columns(self, dataset):
        pairs = dataset.positive_pairs + dataset.negative_pairs
        with _session(dataset, sample_size=150) as session:
            session.rank(pairs)
            # Toggle one occurrence of one monitored event: no structural
            # change, so no carried column needs a BFS — counts are patched.
            event = dataset.positive_pairs[0][0]
            node = int(session.graph.event_nodes(event)[0])
            columns = _Columns(session)
            session.commit([Delta.event_detach(event, node)])
            response = session.rank(pairs)
            computed, carried = columns.delta()
            assert carried > 0
            assert computed <= carried // 10
            _assert_matches_reference(session, response, pairs)

    def test_unmonitored_event_toggle_keeps_sample(self, dataset):
        pairs = dataset.positive_pairs
        with _session(dataset, sample_size=100) as session:
            first = session.rank(pairs)
            columns = _Columns(session)
            session.commit([Delta.event_attach("bg_0", 5)])
            response = session.rank(pairs)
            computed, carried = columns.delta()
            assert computed == 0 and carried > 0
            assert response["pairs"] == first["pairs"]
            _assert_matches_reference(session, response, pairs)

    def test_out_of_band_mutation_is_detected(self, dataset):
        pairs = dataset.positive_pairs + dataset.negative_pairs
        with _session(dataset, sample_size=100) as session:
            session.rank(pairs)
            # Mutate behind the engine's back, then commit through it: the
            # out-of-band epoch was never journaled, so nothing carries.
            u, v = next(iter(session.graph.csr.edges()))
            session.graph.apply([Delta.edge_remove(u, v)])
            session.commit([Delta.event_attach("bg_0", 5)])
            columns = _Columns(session)
            response = session.rank(pairs)
            assert columns.delta()[1] == 0
            _assert_matches_reference(session, response, pairs)

    def test_watch_and_unwatch(self, dataset):
        """A changed event tuple has no base; the next epoch carries again."""
        monitored = dataset.positive_pairs
        widened = monitored + [("bg_0", "bg_1")]
        with _session(dataset, sample_size=100) as session:
            session.rank(monitored)
            session.commit([Delta.event_attach("bg_2", 5)])
            columns = _Columns(session)
            response = session.rank(widened)
            assert columns.delta()[1] == 0
            _assert_matches_reference(session, response, widened)
            session.commit([Delta.event_attach("bg_2", 6)])
            response = session.rank(widened)
            assert columns.delta()[1] > 0
            _assert_matches_reference(session, response, widened)

    def test_top_k_trims_public_ranking_only(self, dataset):
        with _session(dataset, sample_size=100) as session:
            assert len(session.rank(top_k=2)["pairs"]) == 2
            event = dataset.positive_pairs[0][0]
            node = int(session.graph.event_nodes(event)[0])
            session.commit([Delta.event_detach(event, node)])
            response = session.rank(top_k=2)
            reference = session.reference_ranking(top_k=2)
            assert response["pairs"] == [pair_record(pair) for pair in reference]

    def test_verdict_flip_surfaces_in_delta(self, dataset):
        pair = dataset.positive_pairs[0]
        with _session(dataset, sample_size=150) as session:
            assert session.rank([pair])["pairs"][0]["verdict"] == "positive"
            # Detaching every occurrence of one side forces the pair to
            # insufficient/independent — the carried columns must follow.
            nodes = [int(n) for n in session.graph.event_nodes(pair[0])]
            session.commit([Delta.event_detach(pair[0], n) for n in nodes])
            response = session.rank([pair])
            assert response["pairs"][0]["verdict"] != "positive"
            _assert_matches_reference(session, response, [pair])




class TestValidation:
    def test_requires_dynamic_graph(self, dataset):
        with open_session(dataset.attributed, TescConfig(sample_size=60),
                          dynamic=False) as session:
            with pytest.raises(BadRequestError):
                session.commit([Delta.event_attach("bg_0", 5)])

    def test_rejects_weighted_samplers(self, dataset):
        with pytest.raises(ConfigurationError):
            open_session(dataset.attributed, TescConfig(sampler="importance"))

    def test_rejects_bad_sort_key(self, dataset):
        with _session(dataset, sample_size=60) as session:
            with pytest.raises(ConfigurationError):
                session.rank(sort_by="banana")
