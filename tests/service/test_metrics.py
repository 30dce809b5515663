"""End-to-end telemetry: exact counter reconciliation and span coverage.

A scripted session (N ranks, K topks, M commits, one queue-full burst)
must reconcile the metrics registry *exactly* against the request history —
no lost increments, no phantom counts — and the recorded span trees must
cover the measured wall time of the requests they describe.
"""

import gc
import threading
import time

import pytest

from repro.service import (
    CorrelationClient,
    CorrelationServer,
    OverloadedError,
)
from repro.core.batch import BatchTescEngine
from repro.service.engine import ServiceEngine, pair_record
from repro.streaming.dynamic_graph import DynamicAttributedGraph


def metric(snapshot, name, **labels):
    """One value out of a ``metrics`` snapshot (histograms: their count)."""
    family = snapshot[name]
    wanted = {key: str(value) for key, value in labels.items()}
    for entry in family["values"]:
        if entry["labels"] == wanted:
            if family["type"] == "histogram":
                return entry["count"]
            return entry["value"]
    raise AssertionError(f"no {labels!r} series in {name}: {family['values']}")


def fresh_dynamic(service_dataset):
    dataset, _config = service_dataset
    attributed = dataset.attributed
    return DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name)
         for name in attributed.event_names()},
    )


class TestScriptedSessionReconciliation:
    def test_counters_reconcile_exactly(self, service_dataset):
        """N ranks + K topks + M commits + a 429 burst, reconciled exactly."""
        _dataset, config = service_dataset
        graph = fresh_dynamic(service_dataset)
        release = threading.Event()
        entered = threading.Event()
        holding = {"on": False}

        def throttle(_method):
            if holding["on"]:
                entered.set()
                release.wait(timeout=10.0)

        server = CorrelationServer(
            graph, config, workers=1,
            max_concurrency=1, max_queue=1, queue_timeout=30.0,
            throttle=throttle,
        )
        server.start()
        try:
            host, port = server.address
            names = graph.event_names()
            rank_specs = [
                [(names[0], names[1])],
                [(names[0], names[1]), (names[2], names[3])],
                [(names[0], names[1])],          # repeat: pure cache hits
                [(names[4], names[5])],
                [(names[0], names[1]), (names[2], names[3])],  # repeat again
            ]
            num_topk, num_commits = 2, 3
            with CorrelationClient(host, port, timeout=60.0) as client:
                for spec in rank_specs:
                    client.rank(list(spec))
                topks = [client.topk(2) for _ in range(num_topk)]
                reference = BatchTescEngine(graph, config).rank_pairs(
                    "all", top_k=2
                )
                for answer in topks:
                    assert answer["pairs"] == [
                        pair_record(pair) for pair in reference
                    ]
                free_node = graph.num_nodes - 1
                for index in range(num_commits):
                    client.stream([{
                        "op": "event_attach", "event": names[0],
                        "node": free_node - index,
                    }])

                # Queue-full burst: 1 running + 1 queued, the rest 429.
                holding["on"] = True
                outcomes = []
                lock = threading.Lock()

                def attempt():
                    try:
                        with CorrelationClient(host, port, timeout=60.0) as c:
                            c.rank([(names[0], names[1])])
                        with lock:
                            outcomes.append("ok")
                    except OverloadedError:
                        with lock:
                            outcomes.append("rejected")

                threads = [threading.Thread(target=attempt) for _ in range(5)]
                threads[0].start()
                assert entered.wait(timeout=10.0)
                for thread in threads[1:]:
                    thread.start()
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    with lock:
                        if outcomes.count("rejected") >= 3:
                            break
                    time.sleep(0.02)
                release.set()
                for thread in threads:
                    thread.join(timeout=60)
                holding["on"] = False
                assert sorted(set(outcomes)) == ["ok", "rejected"]
                ok = outcomes.count("ok")
                rejected = outcomes.count("rejected")
                assert ok + rejected == 5

                snap = client.metrics()["metrics"]

            # -- request counters reconcile with the script, exactly --------
            num_ranks = len(rank_specs) + ok
            assert metric(snap, "tesc_requests_total", method="rank") == num_ranks
            assert metric(snap, "tesc_requests_total", method="topk") == num_topk
            assert metric(
                snap, "tesc_requests_total", method="commit"
            ) == num_commits
            assert metric(
                snap, "tesc_request_seconds", method="rank"
            ) == num_ranks
            assert metric(
                snap, "tesc_request_seconds", method="topk"
            ) == num_topk
            assert metric(
                snap, "tesc_request_seconds", method="commit"
            ) == num_commits
            assert metric(snap, "tesc_commits_total") == num_commits

            # -- every requested pair is a hit or a miss, nothing lost -------
            pairs_requested = sum(len(spec) for spec in rank_specs) + ok
            hits = metric(snap, "tesc_pair_cache_hits_total")
            misses = metric(snap, "tesc_pair_cache_misses_total")
            assert hits + misses == pairs_requested
            assert misses >= 3  # three distinct rank workloads
            assert hits >= 3    # the repeats and the burst (same epoch)

            # -- admission reconciles with the burst -------------------------
            gated = num_ranks + num_topk + num_commits
            assert metric(snap, "tesc_admission_admitted_total") == gated
            assert metric(snap, "tesc_admission_rejected_total") == rejected
            assert metric(snap, "tesc_admission_timed_out_total") == 0
            assert metric(snap, "tesc_admission_running") == 0
            assert metric(snap, "tesc_admission_queue_depth") == 0

            # -- MVCC accounting: reads pin, and every pin was released ------
            assert metric(
                snap, "tesc_snapshots_pinned_total"
            ) == num_ranks + num_topk
            assert metric(snap, "tesc_reader_pins") == 0
            assert metric(snap, "tesc_retained_epochs") >= 1
        finally:
            release.set()
            server.close()

    def test_metrics_verb_is_ungated_and_serves_exposition(
        self, service_dataset
    ):
        _dataset, config = service_dataset
        graph = fresh_dynamic(service_dataset)
        with CorrelationServer(graph, config, workers=1) as server:
            host, port = server.address
            with CorrelationClient(host, port) as client:
                names = graph.event_names()
                client.rank([(names[0], names[1])])
                payload = client.metrics(traces=4)
        text = payload["exposition"]
        assert "# TYPE tesc_requests_total counter" in text
        assert 'tesc_requests_total{method="rank"} 1' in text
        assert "tesc_request_seconds_bucket" in text
        trees = payload["traces"]
        assert [tree["name"] for tree in trees] == ["request"]
        assert trees[0]["tags"]["method"] == "rank"
        stages = {child["name"] for child in trees[0]["children"]}
        assert "admission" in stages and "rank" in stages


class TestSpanCoverage:
    def test_span_trees_cover_measured_wall_time(self, service_dataset):
        """Recorded root spans cover >= 95% of the wall time around calls."""
        _dataset, config = service_dataset
        graph = fresh_dynamic(service_dataset)
        engine = ServiceEngine(graph, config, workers=1)
        try:
            names = graph.event_names()
            workloads = [
                [(names[0], names[1])],
                [(names[2], names[3]), (names[4], names[5])],
                [(names[1], names[2])],
            ]
            walls = []
            # A collection between the span's end and the call's return
            # would count against the span; keep it out of the timed calls.
            gc.disable()
            try:
                for spec in workloads:
                    t0 = time.perf_counter()
                    engine.rank(spec)
                    walls.append(time.perf_counter() - t0)
            finally:
                gc.enable()
            roots = engine.trace_buffer.spans()
            assert len(roots) == len(workloads)
            for root, wall in zip(roots, walls):
                assert root.name == "rank"
                assert root.duration <= wall
                assert root.duration >= 0.95 * wall, (
                    f"span {root.duration:.6f}s covers less than 95% of "
                    f"the measured {wall:.6f}s"
                )
                # Children never exceed their parent and the cache-missing
                # stages are all present.
                assert root.child_seconds() <= root.duration + 1e-6
                stages = {child.name for child in root.children}
                assert {"sampling", "density", "estimate"} <= stages
        finally:
            engine.close()

    def test_worker_span_attribution_bounded_by_stage(self, service_dataset):
        """Density-thread spans hang under their stage and never exceed it."""
        _dataset, config = service_dataset
        graph = fresh_dynamic(service_dataset)
        engine = ServiceEngine(graph, config, workers=2)
        try:
            names = graph.event_names()
            pairs = [
                (names[i], names[j])
                for i in range(4) for j in range(4) if i < j
            ]
            engine.rank(pairs)
            root = engine.trace_buffer.spans()[-1]
            shards = root.find("density_shard")
            assert len(shards) == 2
            (density,) = root.find("density")
            assert all(shard in density.children for shard in shards)
            for shard in shards:
                # A thread's span is bounded by the wall time of the stage
                # that started it.
                assert shard.duration <= density.duration + 1e-6
        finally:
            engine.close()


class TestThreadHammerExactness:
    def test_no_lost_increments_under_threads(self, service_dataset):
        """4 threads x mixed direct requests: counters reconcile exactly."""
        _dataset, config = service_dataset
        graph = fresh_dynamic(service_dataset)
        engine = ServiceEngine(graph, config, workers=1)
        try:
            names = graph.event_names()
            per_thread = 12
            num_threads = 4
            errors = []

            def hammer(thread_id):
                try:
                    for index in range(per_thread):
                        which = (thread_id + index) % 3
                        if which == 0:
                            engine.rank([(names[0], names[1])])
                        elif which == 1:
                            engine.topk(2)
                        else:
                            engine.commit([{
                                "op": "event_attach", "event": names[2],
                                "node": (thread_id * per_thread + index)
                                % graph.num_nodes,
                            }])
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not errors

            total = per_thread * num_threads
            expected = {"rank": 0, "topk": 0, "commit": 0}
            for thread_id in range(num_threads):
                for index in range(per_thread):
                    which = (thread_id + index) % 3
                    expected[("rank", "topk", "commit")[which]] += 1
            snap = engine.metrics.snapshot()
            for method, count in expected.items():
                assert metric(
                    snap, "tesc_requests_total", method=method
                ) == count
                assert metric(
                    snap, "tesc_request_seconds", method=method
                ) == count
            assert sum(expected.values()) == total
            assert metric(snap, "tesc_commits_total") == expected["commit"]
            hits = metric(snap, "tesc_pair_cache_hits_total")
            misses = metric(snap, "tesc_pair_cache_misses_total")
            assert hits + misses == expected["rank"]  # one pair per rank
            assert metric(snap, "tesc_reader_pins") == 0
            assert metric(
                snap, "tesc_snapshots_pinned_total"
            ) == expected["rank"] + expected["topk"]
            # The trace buffer saw every request (its ring may have evicted
            # older trees, but the recorded count is lossless).
            assert engine.trace_buffer.recorded == total
        finally:
            engine.close()
