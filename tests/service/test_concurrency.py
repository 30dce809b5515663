"""Concurrency: interleaved clients stay bit-identical; backpressure is clean.

Satellite 1 of the service PR.  Two obligations:

* N threads hammering ``rank``/``topk`` interleaved over one server get
  answers bit-identical to the serial in-process engine — caching must
  never leak state between requests;
* when the admission queue fills, excess requests get a clean 429/408
  error response — never a hang, never a corrupted connection.
"""

import threading
import time

import pytest

from repro.core.batch import BatchTescEngine
from repro.service.client import CorrelationClient, rank_records
from repro.service.engine import pair_record
from repro.service.protocol import OverloadedError, RequestTimeoutError
from repro.service.server import CorrelationServer


@pytest.fixture(scope="module")
def static_graph(service_dataset):
    dataset, _config = service_dataset
    return dataset.attributed


@pytest.fixture(scope="module")
def serial_references(static_graph, service_dataset):
    """Precomputed serial answers for every workload the threads will send."""
    _dataset, config = service_dataset
    names = sorted(static_graph.event_names())
    workloads = []
    for offset in range(6):
        pairs = [
            (names[(offset + i) % len(names)], names[(offset + 3 * i + 1) % len(names)])
            for i in range(1, 5)
        ]
        pairs = [p for p in pairs if p[0] != p[1]]
        workloads.append(tuple(pairs))
    # One FRESH engine per workload: a long-lived engine's sampler RNG
    # advances across calls, while the service reproduces a from-scratch
    # engine's draw for every (universe, epoch) — that is the contract.
    references = {
        pairs: [
            pair_record(pair)
            for pair in BatchTescEngine(static_graph, config).rank_pairs(
                list(pairs)
            )
        ]
        for pairs in set(workloads)
    }
    topk_reference = [
        pair_record(pair)
        for pair in BatchTescEngine(static_graph, config).rank_pairs(
            "all", top_k=3
        )
    ]
    return workloads, references, topk_reference


class TestInterleavedClients:
    def test_n_threads_bit_identical_to_serial(
        self, static_graph, service_dataset, serial_references
    ):
        _dataset, config = service_dataset
        workloads, references, topk_reference = serial_references
        errors = []
        with CorrelationServer(static_graph, config, workers=1) as server:
            host, port = server.address

            def hammer(thread_id):
                try:
                    with CorrelationClient(host, port) as client:
                        for round_no in range(3):
                            pairs = workloads[(thread_id + round_no) % len(workloads)]
                            result = client.rank(list(pairs))
                            assert result["pairs"] == references[pairs], (
                                f"thread {thread_id} round {round_no}: "
                                "rank diverged from serial"
                            )
                            if (thread_id + round_no) % 2 == 0:
                                top = client.topk(3)
                                assert top["pairs"] == topk_reference, (
                                    f"thread {thread_id} round {round_no}: "
                                    "topk diverged from serial"
                                )
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append((thread_id, exc))

            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "client thread hung"
        assert errors == [], f"thread failures: {errors}"

    def test_rank_records_helper_orders_consistently(
        self, static_graph, service_dataset, serial_references
    ):
        """Two clients asking for the same thing concurrently see the same
        wire-level records (one computes, one is served from cache)."""
        _dataset, config = service_dataset
        workloads, references, _ = serial_references
        pairs = workloads[0]
        with CorrelationServer(static_graph, config, workers=1) as server:
            host, port = server.address
            results = [None, None]

            def fetch(slot):
                with CorrelationClient(host, port) as client:
                    results[slot] = client.rank(list(pairs))

            threads = [
                threading.Thread(target=fetch, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert results[0] is not None and results[1] is not None
            assert rank_records(results[0]) == rank_records(results[1])
            assert results[0]["pairs"] == references[pairs]
            with CorrelationClient(host, port) as client:
                # Racing identical requests shared one matrix computation
                # (the loser of the miss-lock race is filled by re-check).
                metrics = client.status()["metrics"]
                computed = metrics["tesc_matrices_computed_total"]["values"]
                assert computed[0]["value"] == 1
                # And a later identical request is a pure cache hit.
                third = client.rank(list(pairs))
            assert third["cached_pairs"] == len(pairs)
            assert third["computed_pairs"] == 0
            assert third["pairs"] == references[pairs]


class TestBackpressure:
    def test_queue_full_rejects_cleanly_not_hangs(
        self, static_graph, service_dataset, serial_references
    ):
        """max_concurrency=1, max_queue=1, slow handler: with six clients in
        flight at once, at least one is turned away with a 429 — and every
        thread terminates, no request wedges the server."""
        _dataset, config = service_dataset
        workloads, references, _ = serial_references
        pairs = workloads[0]
        release = threading.Event()
        entered = threading.Event()

        def throttle(method):
            entered.set()
            release.wait(timeout=10.0)

        outcomes = []
        outcomes_lock = threading.Lock()
        server = CorrelationServer(
            static_graph, config, workers=1,
            max_concurrency=1, max_queue=1, queue_timeout=30.0,
            throttle=throttle,
        )
        server.start()
        try:
            host, port = server.address

            def attempt(thread_id):
                try:
                    with CorrelationClient(host, port, timeout=60.0) as client:
                        result = client.rank(list(pairs))
                    with outcomes_lock:
                        outcomes.append(("ok", result))
                except OverloadedError as exc:
                    with outcomes_lock:
                        outcomes.append(("rejected", exc))
                except Exception as exc:  # pragma: no cover - failure detail
                    with outcomes_lock:
                        outcomes.append(("error", exc))

            threads = [
                threading.Thread(target=attempt, args=(i,)) for i in range(6)
            ]
            threads[0].start()
            assert entered.wait(timeout=10.0), "first request never admitted"
            for thread in threads[1:]:
                thread.start()
            # One slot running + one queued: the rest must be rejected
            # promptly, while the first two are still blocked.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                with outcomes_lock:
                    if sum(1 for kind, _ in outcomes if kind == "rejected") >= 4:
                        break
                time.sleep(0.02)
            release.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), "a rejected/queued client hung"

            kinds = sorted(kind for kind, _ in outcomes)
            assert kinds.count("ok") == 2, f"outcomes: {kinds}"
            assert kinds.count("rejected") == 4, f"outcomes: {kinds}"
            assert kinds.count("error") == 0, f"outcomes: {outcomes}"
            for kind, payload in outcomes:
                if kind == "ok":
                    assert payload["pairs"] == references[pairs]

            # The server is still healthy after the burst.
            with CorrelationClient(host, port) as client:
                assert client.ping()
                after = client.rank(list(pairs))
            assert after["pairs"] == references[pairs]
            stats = server.admission.stats
            assert stats.rejected >= 4
        finally:
            release.set()
            server.close()

    def test_queue_timeout_surfaces_as_408(
        self, static_graph, service_dataset, serial_references
    ):
        """A queued request whose wait exceeds queue_timeout gets a clean
        RequestTimeoutError, and the slot-holder still completes."""
        _dataset, config = service_dataset
        workloads, references, _ = serial_references
        pairs = workloads[1]
        release = threading.Event()
        entered = threading.Event()

        def throttle(method):
            entered.set()
            release.wait(timeout=10.0)

        server = CorrelationServer(
            static_graph, config, workers=1,
            max_concurrency=1, max_queue=4, queue_timeout=0.2,
            throttle=throttle,
        )
        server.start()
        try:
            host, port = server.address
            holder_result = {}

            def hold():
                with CorrelationClient(host, port, timeout=60.0) as client:
                    holder_result["value"] = client.rank(list(pairs))

            holder = threading.Thread(target=hold)
            holder.start()
            assert entered.wait(timeout=10.0)
            with CorrelationClient(host, port, timeout=60.0) as client:
                with pytest.raises(RequestTimeoutError):
                    client.rank(list(pairs))
            release.set()
            holder.join(timeout=60)
            assert not holder.is_alive()
            assert holder_result["value"]["pairs"] == references[pairs]
            assert server.admission.stats.timed_out >= 1
        finally:
            release.set()
            server.close()
