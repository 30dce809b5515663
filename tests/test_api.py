"""Tests for the public Session façade (repro.api)."""

import warnings

import pytest

import repro
from repro import EpochView, Session, TescConfig, open_session
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import SnapshotExpiredError
from repro.graph.generators import community_ring_graph
from repro.service.protocol import BadRequestError
from repro.streaming import DynamicAttributedGraph


EVENTS = {"a": range(0, 40), "b": range(20, 60), "c": range(120, 160)}


def _config():
    return TescConfig(sample_size=80, random_state=13)


@pytest.fixture()
def session():
    graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
    with open_session(graph, _config(), events=EVENTS) as handle:
        yield handle


class TestOpenSession:
    def test_exported_from_package_root(self):
        assert repro.open_session is open_session
        assert repro.Session is Session
        assert repro.EpochView is EpochView

    def test_bare_graph_becomes_dynamic(self, session):
        assert session.dynamic
        assert isinstance(session.graph, DynamicAttributedGraph)
        assert session.epoch == 0

    def test_attributed_graph_accepted(self):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        attributed = AttributedGraph(graph, EVENTS)
        with open_session(attributed, _config()) as handle:
            assert handle.dynamic
            # The wrap shares storage instead of copying it.
            assert handle.graph.csr is attributed.csr

    def test_static_session_rejects_commits(self):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        with open_session(graph, _config(), events=EVENTS,
                          dynamic=False) as handle:
            assert not handle.dynamic
            with pytest.raises(BadRequestError):
                handle.commit([("edge_add", 0, 100)])

    def test_rejects_junk_graph(self):
        with pytest.raises(TypeError):
            open_session("not a graph", _config())


class TestSessionReads:
    def test_rank_carries_epoch(self, session):
        response = session.rank()
        assert response["epoch"] == 0
        assert response["pairs"]

    def test_rank_matches_reference(self, session):
        response = session.rank()
        reference = session.reference_ranking()
        assert response["pairs"] == [
            {
                "rank": pair.rank, "event_a": pair.event_a,
                "event_b": pair.event_b, "score": pair.score,
                "z_score": pair.z_score, "p_value": pair.p_value,
                "verdict": pair.verdict.value,
                "num_reference_nodes": pair.num_reference_nodes,
                "degenerate": pair.degenerate,
                "insufficient": pair.insufficient,
            }
            for pair in reference.pairs
        ]

    def test_topk_carries_epoch(self, session):
        response = session.topk(2)
        assert response["epoch"] == 0
        assert len(response["pairs"]) == 2

    def test_config_overrides_per_call(self, session):
        small = session.rank(sample_size=40)
        assert small["pairs"]
        assert session.config.sample_size == 80  # session default untouched


class TestSessionCommits:
    def test_commit_shapes(self, session):
        from repro.streaming import Delta, DeltaBatch

        tuple_receipt = session.commit([("event_attach", "a", 100)])
        delta_receipt = session.commit([Delta.event_attach("a", 101)])
        record_receipt = session.commit(
            [{"op": "event_attach", "event": "a", "node": 102}]
        )
        batch_receipt = session.commit(
            DeltaBatch.coerce([Delta.event_attach("a", 103)])
        )
        epochs = [tuple_receipt["epoch"], delta_receipt["epoch"],
                  record_receipt["epoch"], batch_receipt["epoch"]]
        assert epochs == [1, 2, 3, 4]

    def test_unknown_tuple_op_rejected(self, session):
        with pytest.raises(ValueError):
            session.commit([("explode", 1, 2)])

    def test_read_your_writes(self, session):
        before = session.rank()
        receipt = session.commit([("event_attach", "a", 100)])
        after = session.rank(at_epoch=receipt["epoch"])
        assert after["epoch"] == before["epoch"] + 1
        assert after["pairs"] != before["pairs"]


class TestEpochView:
    def test_view_pins_history(self, session):
        before = session.rank()
        with session.at_epoch() as view:
            session.commit([("event_attach", "a", 100)])
            replay = view.rank()
        assert view.epoch == 0
        assert replay["epoch"] == 0
        assert replay["pairs"] == before["pairs"]

    def test_view_reference_ranking_pins(self, session):
        with session.at_epoch() as view:
            session.commit([("event_attach", "a", 100)])
            reference = view.reference_ranking()
            live = session.reference_ranking()
        assert [p.score for p in reference.pairs] != [p.score for p in live.pairs]

    def test_expired_epoch_rejected(self, session):
        session.commit([("event_attach", "a", 100)])
        with pytest.raises(SnapshotExpiredError):
            session.at_epoch(0)
        with pytest.raises(SnapshotExpiredError):
            session.rank(at_epoch=0)

    def test_snapshot_is_frozen(self, session):
        frozen = session.snapshot()
        nodes = list(frozen.event_nodes("a"))
        session.commit([("event_attach", "a", 100)])
        assert list(frozen.event_nodes("a")) == nodes


class TestDeprecationShims:
    def test_session_reads_do_not_warn(self, session):
        # The façade constructs the engines internally; no read path may
        # emit a deprecation warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.rank()
            session.reference_ranking()
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
