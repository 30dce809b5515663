"""The thread-sharded density pass: exactness, cleanup, deadlines, spans."""

import threading
import time

import numpy as np
import pytest

from repro.core.batch import event_universe, make_config_sampler
from repro.core.density import DensityComputer
from repro.exceptions import DeadlineExceededError
from repro.graph.traversal import BFSEngine
from repro.service.engine import ServiceEngine
from repro.service.pool import pooled_density_matrix
from repro.utils import deadlines


def _sample(dataset, config, num_events, sample_size):
    attributed = dataset.attributed
    events = sorted(attributed.event_names())[:num_events]
    universe = event_universe(attributed, events)
    sample = make_config_sampler(attributed, config).sample(
        universe, config.vicinity_level, sample_size
    )
    return attributed, attributed.indicator_matrix(events), sample.nodes


class TestPooledDensity:
    def test_matches_serial_density_pass_exactly(self, service_dataset):
        """Column-sharded counts/sizes/densities are bit-identical to the
        one-shot serial pass, for any shard count."""
        dataset, config = service_dataset
        attributed, indicators, nodes = _sample(
            dataset, config, 12, config.sample_size
        )
        engine = BFSEngine(attributed.csr)
        serial = DensityComputer(attributed.csr, engine).density_matrix(
            nodes, indicators, config.vicinity_level
        )
        for workers in (1, 2, 3):
            matrix, bfs_calls = pooled_density_matrix(
                attributed.csr, indicators, nodes, config.vicinity_level,
                workers,
            )
            np.testing.assert_array_equal(matrix.reference_nodes, nodes)
            np.testing.assert_array_equal(matrix.counts, serial.counts)
            np.testing.assert_array_equal(
                matrix.vicinity_sizes, serial.vicinity_sizes
            )
            np.testing.assert_array_equal(matrix.densities, serial.densities)
            assert bfs_calls == engine.bfs_calls

    def test_density_threads_do_not_outlive_the_pass(self, service_dataset):
        """The shard threads exist only for the duration of one pass."""
        dataset, config = service_dataset
        attributed, indicators, nodes = _sample(dataset, config, 6, 50)
        before = threading.active_count()
        pooled_density_matrix(
            attributed.csr, indicators, nodes, config.vicinity_level, 3
        )
        assert threading.active_count() == before

    def test_more_workers_than_columns(self, service_dataset):
        dataset, config = service_dataset
        attributed, indicators, nodes = _sample(dataset, config, 4, 50)
        serial, _calls = pooled_density_matrix(
            attributed.csr, indicators, nodes[:2], config.vicinity_level, 1
        )
        matrix, bfs_calls = pooled_density_matrix(
            attributed.csr, indicators, nodes[:2], config.vicinity_level, 8
        )
        np.testing.assert_array_equal(matrix.counts, serial.counts)
        assert bfs_calls == 2


def _slowed_density(monkeypatch, seconds):
    """Make every grouped BFS call sleep first; return (started, finished)."""
    started, finished = [], []
    original = BFSEngine.grouped_marked_counts

    def slowed(self, *args, **kwargs):
        started.append(threading.current_thread().name)
        time.sleep(seconds)
        result = original(self, *args, **kwargs)
        finished.append(threading.current_thread().name)
        return result

    monkeypatch.setattr(BFSEngine, "grouped_marked_counts", slowed)
    return started, finished


class TestDeadlines:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_deadline_expiring_mid_density_pass(
        self, service_dataset, dynamic_graph, monkeypatch, workers
    ):
        """A deadline that passes while the density pass runs fails the
        request with the same DeadlineExceededError at every worker count:
        each shard sees the request's deadline and stops at its next BFS
        block, so no shard finishes its columns."""
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config, workers=workers)
        try:
            started, finished = _slowed_density(monkeypatch, 0.4)
            with deadlines.deadline_scope(time.monotonic() + 0.2):
                with pytest.raises(DeadlineExceededError, match="deadline exceeded"):
                    engine.rank()
            assert len(started) == workers
            assert finished == []
        finally:
            engine.close()


class TestShardSpans:
    def test_shard_spans_hang_under_the_density_stage(
        self, service_dataset, dynamic_graph
    ):
        _dataset, config = service_dataset
        engine = ServiceEngine(dynamic_graph, config, workers=2)
        try:
            engine.rank()
            root = engine.trace_buffer.spans()[-1]
            (density,) = root.find("density")
            shards = [
                child for child in density.children
                if child.name == "density_shard"
            ]
            assert len(shards) == 2
            assert root.find("density_shard") == shards
            assert sum(shard.tags["columns"] for shard in shards) == (
                config.sample_size
            )
            for shard in shards:
                assert shard.trace_id == root.trace_id
                assert shard.parent_id == density.span_id
                assert shard.duration <= density.duration
        finally:
            engine.close()
