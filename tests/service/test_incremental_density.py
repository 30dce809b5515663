"""Carried-forward density columns in the service engine.

A density-matrix miss gathers its columns from the epoch's count table,
which is advanced from the newest older table at the same vicinity level
and event tuple: nodes no commit dirtied structurally stay filled (patched
by ``± 1`` for event toggles) and only unfilled sampled nodes are
BFS-counted.  The cases here pin the fallbacks to a full pass (an
``at_epoch`` behind every held table, a ``vicinity_level`` override,
journal overflow), lagging reads, copy-on-write of older epochs,
the ``tesc_density_columns_total`` counters and readers racing commits;
every answer is compared field by field with the from-scratch
``reference_ranking`` at its epoch.  The random-commit equivalence suite
across samplers and worker counts lives in ``tests/streaming/
test_ranker.py`` and shares the helpers below.
"""

import numpy as np
import pytest

from repro import TescConfig, open_session
from repro.cli import _render_status
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.graph.traversal import BFSEngine, dirty_vicinity
from repro.service.engine import pair_record
from repro.streaming import Delta, DirtyTracker


def _random_batch(rng, graph, events, num_edges=4, num_events=2):
    """A mixed batch of random structural and event deltas."""
    deltas = []
    edges = list(graph.csr.edges())
    num_nodes = graph.num_nodes
    for _ in range(num_edges):
        if rng.random() < 0.5 and edges:
            u, v = edges.pop(int(rng.integers(0, len(edges))))
            deltas.append(Delta.edge_remove(u, v))
        else:
            u, v = int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes))
            if u != v:
                deltas.append(Delta.edge_add(u, v))
    for _ in range(num_events):
        event = events[int(rng.integers(0, len(events)))]
        node = int(rng.integers(0, num_nodes))
        if rng.random() < 0.5:
            deltas.append(Delta.event_attach(event, node))
        else:
            deltas.append(Delta.event_detach(event, node))
    return deltas


def _assert_matches_reference(session, response, pairs, **overrides):
    reference = session.reference_ranking(
        pairs, at_epoch=response["epoch"], **overrides
    )
    assert response["pairs"] == [pair_record(pair) for pair in reference]


class _Columns:
    """Reads the computed/carried column counters as per-call deltas."""

    def __init__(self, session):
        self.session = session
        self.last = self._read()

    def _read(self):
        return tuple(
            self.session.metrics.value("tesc_density_columns_total", outcome=outcome)
            for outcome in ("computed", "carried")
        )

    def delta(self):
        now = self._read()
        computed, carried = (now[0] - self.last[0], now[1] - self.last[1])
        self.last = now
        return int(computed), int(carried)


@pytest.fixture
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


class TestCarryForward:
    def test_reads_lagging_several_commits(self, dataset):
        pairs = dataset.positive_pairs + dataset.negative_pairs
        events = sorted({event for pair in pairs for event in pair})
        rng = np.random.default_rng(8)
        with _session(dataset, sample_size=150) as session:
            session.rank(pairs)
            columns = _Columns(session)
            for _ in range(3):
                session.commit(_random_batch(rng, session.graph, events))
            response = session.rank(pairs)
            assert columns.delta()[1] > 0
            _assert_matches_reference(session, response, pairs)

    def test_at_epoch_behind_cached_base(self, dataset):
        pairs = dataset.positive_pairs
        event = pairs[0][0]
        with _session(dataset, sample_size=150) as session:
            session.commit([Delta.event_attach(event, 7)])
            with session.at_epoch() as view:
                session.commit([Delta.event_detach(event, 7)])
                session.rank(pairs)
                columns = _Columns(session)
                # Every cached matrix is newer than the view: a full pass.
                behind = view.rank(pairs)
                assert columns.delta()[1] == 0
                _assert_matches_reference(session, behind, pairs)
                # A second matrix at the view's epoch carries from the first.
                reseeded = view.rank(pairs, random_state=4)
                assert columns.delta()[1] > 0
                _assert_matches_reference(
                    session, reseeded, pairs, random_state=4
                )

    def test_vicinity_level_override_is_full_pass(self, dataset):
        pairs = dataset.positive_pairs
        with _session(dataset, sample_size=150) as session:
            session.rank(pairs, vicinity_level=2)
            session.commit([Delta.event_attach("bg_0", 5)])
            columns = _Columns(session)
            response = session.rank(pairs, vicinity_level=2)
            computed, carried = columns.delta()
            assert computed > 0 and carried == 0
            _assert_matches_reference(session, response, pairs, vicinity_level=2)

    def test_journal_overflow_is_full_pass(self, dataset):
        pairs = dataset.positive_pairs
        overflow = DirtyTracker(1).journal_size + 1
        with _session(dataset, sample_size=100) as session:
            session.rank(pairs)
            for step in range(overflow):
                op = Delta.event_attach if step % 2 == 0 else Delta.event_detach
                session.commit([op("bg_0", 5)])
            columns = _Columns(session)
            response = session.rank(pairs)
            assert columns.delta()[1] == 0
            _assert_matches_reference(session, response, pairs)

    def test_older_epoch_matrix_is_never_patched(self, dataset):
        """Carried columns are copies: a later epoch's ±1 patches must not
        reach the matrix cached for the epoch a view still reads."""
        (a, b), (c, _d) = dataset.positive_pairs[0], dataset.negative_pairs[0]
        with _session(dataset, sample_size=150) as session:
            with session.at_epoch() as view:
                view.rank([(a, b), (b, c)])
                for node in session.graph.event_nodes(a)[:5]:
                    session.commit([Delta.event_detach(a, int(node))])
                    session.rank([(a, b), (b, c)])
                # Same event tuple at the view's epoch: a matrix-cache hit.
                pairs = [(a, b), (a, c), (b, c)]
                _assert_matches_reference(session, view.rank(pairs), pairs)


class TestCarryAcrossWorkerCounts:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_carried_and_counted_columns_match_reference(self, dataset, workers):
        """After mixed commits a read carries the clean columns and counts
        the dirty ones on ``workers`` density threads; every answer equals
        the reference ranking at its epoch, whatever the worker count."""
        pairs = dataset.positive_pairs + dataset.negative_pairs
        events = sorted({event for pair in pairs for event in pair})
        rng = np.random.default_rng(8)
        with _session(dataset, workers=workers, sample_size=150) as session:
            session.rank(pairs)
            columns = _Columns(session)
            for _ in range(3):
                session.commit(_random_batch(rng, session.graph, events))
                response = session.rank(pairs)
                _assert_matches_reference(session, response, pairs)
            computed, carried = columns.delta()
            assert computed > 0 and carried > 0


class TestColumnCounters:
    def test_event_only_commit_computes_no_column(self, dataset):
        """Toggles that stay inside the population reuse every column."""
        a, b = dataset.positive_pairs[0]
        with _session(dataset, sample_size=150, sampler="exhaustive") as session:
            session.rank([(a, b)])
            carrier = next(
                int(node) for node in session.graph.event_nodes(b)
                if not session.graph.event_indicator(a)[node]
            )
            columns = _Columns(session)
            session.commit([Delta.event_attach(a, carrier)])
            response = session.rank([(a, b)])
            computed, carried = columns.delta()
            assert computed == 0 and carried > 0
            _assert_matches_reference(session, response, [(a, b)])
            # `tesc status` renders the status payload's metrics table.
            status = _render_status(session.describe())
            assert "tesc_density_columns_total{outcome=carried}" in status
            assert "tesc_density_columns_total{outcome=computed}" in status

    def test_one_edge_rewire_computes_at_most_dirty_sample_columns(self, dataset):
        pairs = dataset.positive_pairs
        level = 2
        with _session(dataset, vicinity_level=level, sample_size=5000,
                      sampler="exhaustive") as session:
            session.rank(pairs)
            old_csr = session.graph.csr
            u, v = next(iter(old_csr.edges()))
            w = next(
                node for node in range(session.graph.num_nodes)
                if node not in (u, v) and not old_csr.has_edge(u, node)
            )
            columns = _Columns(session)
            session.commit([Delta.edge_remove(u, v), Delta.edge_add(u, w)])
            response = session.rank(pairs)
            computed, _carried = columns.delta()
            dirty = dirty_vicinity(old_csr, session.graph.csr, [u, v, w], level - 1)
            universe = np.unique(np.concatenate(
                [session.graph.event_nodes(e) for pair in pairs for e in pair]
            ))
            sample = BFSEngine(session.graph.csr).multi_source_vicinity(
                universe, level
            )
            assert computed <= np.intersect1d(dirty, sample).size
            _assert_matches_reference(session, response, pairs)


class TestConcurrentCarry:
    def test_readers_racing_commits_stay_exact(self, dataset):
        """Readers carrying columns while a writer journals commits: every
        answer equals a serial replay's reference at the epoch it reports."""
        import sys
        import threading

        from repro.streaming import DynamicAttributedGraph

        pairs = dataset.positive_pairs + dataset.negative_pairs
        events = sorted({event for pair in pairs for event in pair})
        rng = np.random.default_rng(12)
        config = TescConfig(sample_size=150, random_state=3)
        batches = []
        answers = []
        errors = []
        with _session(dataset, sample_size=150) as session:
            session.rank(pairs)
            stop = threading.Event()

            def reader():
                try:
                    while not stop.is_set():
                        response = session.rank(pairs)
                        answers.append((response["epoch"], response["pairs"]))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=reader) for _ in range(3)]
            try:
                for thread in threads:
                    thread.start()
                for _ in range(8):
                    batch = _random_batch(rng, session.graph, events)
                    batches.append(batch)
                    session.commit(batch)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

        replay = DynamicAttributedGraph(
            dataset.graph.copy(), dataset.attributed.events.copy()
        )
        reference = {}
        for batch in [[]] + batches:
            replay.apply(batch)
            if replay.epoch not in reference:
                with open_session(replay.snapshot(), config, dynamic=False) as oracle:
                    reference[replay.epoch] = [
                        pair_record(pair) for pair in oracle.reference_ranking(pairs)
                    ]
        assert answers
        for epoch, records in answers:
            assert records == reference[epoch]
