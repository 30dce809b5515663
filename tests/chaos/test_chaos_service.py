"""End-to-end chaos: the self-healing service under injected faults.

The acceptance bar for every scenario is *bit-identity*: whatever faults
fire, a retrying client must produce exactly the answer a fault-free
serial run produces.
"""

import threading

import pytest

from repro.service import faults
from repro.service.client import CorrelationClient
from repro.service.engine import ServiceEngine
from repro.service.protocol import UnavailableError
from repro.streaming.delta import WriteAheadLog

from tests.chaos.conftest import running_server
from tests.service.conftest import shm_segments


def _event_pair(chaos_dataset):
    dataset, _config = chaos_dataset
    return sorted(dataset.attributed.event_names())[0]


@pytest.fixture(scope="module")
def serial_reference(chaos_dataset):
    """The fault-free serial answer every chaos scenario must reproduce."""
    from repro.streaming.dynamic_graph import DynamicAttributedGraph

    dataset, config = chaos_dataset
    attributed = dataset.attributed
    graph = DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )
    engine = ServiceEngine(graph, config, workers=1)
    try:
        rank = engine.rank()
        topk = engine.topk(k=3)
    finally:
        engine.close()
    return {"rank": rank["pairs"], "topk": topk["pairs"]}


class TestSocketChaos:
    def test_drop_after_third_response_retrying_client_completes(
        self, make_dynamic_graph, chaos_dataset, serial_reference
    ):
        _dataset, config = chaos_dataset
        with running_server(make_dynamic_graph(), config, workers=1) as server:
            with CorrelationClient(*server.address, max_retries=3,
                                   backoff_base=0.01, retry_seed=7) as client:
                with faults.armed(
                    faults.FaultRule(faults.SOCKET_SEND, action="drop", at=3)
                ):
                    answers = [client.rank()["pairs"] for _ in range(5)]
                assert all(a == serial_reference["rank"] for a in answers)
                assert client.retry_stats.reconnects >= 1

    def test_density_threads_reproduce_serial_answers_through_drops(
        self, make_dynamic_graph, chaos_dataset, serial_reference
    ):
        """A ``workers=2`` server behind a flaky socket: every retried rank
        and top-k equals the fault-free serial answer."""
        _dataset, config = chaos_dataset
        with running_server(make_dynamic_graph(), config, workers=2) as server:
            with CorrelationClient(*server.address, max_retries=3,
                                   backoff_base=0.01, retry_seed=7) as client:
                with faults.armed(
                    faults.FaultRule(faults.SOCKET_SEND, action="drop", at=1,
                                     times=2)
                ):
                    rank = client.rank()["pairs"]
                    topk = client.topk(3)["pairs"]
                assert client.retry_stats.reconnects >= 1
        assert rank == serial_reference["rank"]
        assert topk == serial_reference["topk"]

    def test_recv_drop_kills_request_before_processing(
        self, make_dynamic_graph, chaos_dataset
    ):
        """A connection dropped on *read* never reaches dispatch — the
        retried request is the first one the engine sees."""
        _dataset, config = chaos_dataset
        with running_server(make_dynamic_graph(), config, workers=1) as server:
            requests_before = server.engine._m_requests.labels(method="rank").value
            with CorrelationClient(*server.address, max_retries=2,
                                   backoff_base=0.01, retry_seed=7) as client:
                with faults.armed(
                    faults.FaultRule(faults.SOCKET_RECV, action="drop", at=1)
                ):
                    client.rank()
            assert (
                server.engine._m_requests.labels(method="rank").value
                == requests_before + 1
            )


    def test_newline_free_flood_is_cut_off_while_others_are_served(
        self, make_dynamic_graph, chaos_dataset, serial_reference
    ):
        """A peer streaming a frame that never ends is answered with a 400
        and disconnected at the cap; concurrent clients keep getting the
        fault-free answer."""
        import socket

        from repro.service.server import MAX_FRAME_BYTES

        _dataset, config = chaos_dataset
        with running_server(make_dynamic_graph(), config, workers=1) as server:
            outcome = {}

            def flood():
                chunk = b"{" * 65536
                sent = 0
                with socket.create_connection(server.address, timeout=30) as sock:
                    try:
                        while sent < 4 * MAX_FRAME_BYTES:
                            sock.sendall(chunk)
                            sent += len(chunk)
                    except OSError:
                        pass  # the server hung up mid-flood
                    outcome["sent"] = sent
                    try:
                        outcome["reply"] = sock.makefile("rb").readline()
                    except OSError:
                        outcome["reply"] = b""

            flooder = threading.Thread(target=flood)
            flooder.start()
            with CorrelationClient(*server.address) as client:
                answers = [client.rank()["pairs"] for _ in range(3)]
            flooder.join(timeout=120)
            assert not flooder.is_alive()
            assert all(answer == serial_reference["rank"] for answer in answers)
            # Cut off near the cap, never after reading the whole flood.
            assert outcome["sent"] < 4 * MAX_FRAME_BYTES
            if outcome["reply"]:
                assert b'"code":400' in outcome["reply"]
            with CorrelationClient(*server.address) as client:
                assert client.rank()["pairs"] == serial_reference["rank"]


class TestIdempotentCommits:
    def test_stream_retry_advances_epoch_exactly_once(
        self, make_dynamic_graph, chaos_dataset
    ):
        _dataset, config = chaos_dataset
        event = _event_pair(chaos_dataset)
        with running_server(make_dynamic_graph(), config, workers=1) as server:
            with CorrelationClient(*server.address, max_retries=3,
                                   backoff_base=0.01, retry_seed=7) as client:
                epoch0 = client.status()["epoch"]
                with faults.armed(
                    faults.FaultRule(faults.SOCKET_SEND, action="drop", at=1,
                                     match={"method": "stream"})
                ):
                    result = client.stream(
                        [{"op": "event_attach", "event": event, "node": 0}]
                    )
                # The commit applied once; the client's answer is the
                # replayed record of that single application.
                assert result["epoch"] == epoch0 + 1
                assert result.get("replayed") is True
                assert client.status()["epoch"] == epoch0 + 1
                assert server.engine._m_commit_replays.value == 1

    def test_distinct_commits_are_not_deduplicated(
        self, make_dynamic_graph, chaos_dataset
    ):
        _dataset, config = chaos_dataset
        event = _event_pair(chaos_dataset)
        with running_server(make_dynamic_graph(), config, workers=1) as server:
            with CorrelationClient(*server.address) as client:
                epoch0 = client.status()["epoch"]
                for node in (0, 1, 2):
                    result = client.stream(
                        [{"op": "event_attach", "event": event, "node": node}]
                    )
                    assert result.get("replayed") is None
                assert client.status()["epoch"] == epoch0 + 3


class TestWalFaults:
    def test_fsync_failure_rejects_then_retry_commits(
        self, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        _dataset, config = chaos_dataset
        event = _event_pair(chaos_dataset)
        wal_path = tmp_path / "deltas.wal"
        with running_server(make_dynamic_graph(), config, workers=1,
                            wal=str(wal_path)) as server:
            with CorrelationClient(*server.address, max_retries=3,
                                   backoff_base=0.01, retry_seed=7) as client:
                epoch0 = client.status()["epoch"]
                with faults.armed(
                    faults.FaultRule(faults.WAL_FSYNC, action="error", at=1)
                ):
                    result = client.stream(
                        [{"op": "event_attach", "event": event, "node": 0}]
                    )
                assert result["epoch"] == epoch0 + 1
                assert client.retry_stats.retries == 1
                assert server.engine._m_wal_failures.value == 1
                assert server.engine._m_wal_commits.value == 1
        # The log holds exactly the one committed batch — the failed
        # attempt rolled back and the retry wrote it once.
        recovered = WriteAheadLog(wal_path)
        try:
            assert recovered.recovered_batches == 1
        finally:
            recovered.close()

    def test_fsync_failure_without_retries_is_a_503(
        self, make_dynamic_graph, chaos_dataset, tmp_path
    ):
        _dataset, config = chaos_dataset
        event = _event_pair(chaos_dataset)
        with running_server(make_dynamic_graph(), config, workers=1,
                            wal=str(tmp_path / "deltas.wal")) as server:
            with CorrelationClient(*server.address) as client:
                epoch0 = client.status()["epoch"]
                with faults.armed(
                    faults.FaultRule(faults.WAL_FSYNC, action="error", at=1)
                ):
                    with pytest.raises(UnavailableError) as excinfo:
                        client.stream(
                            [{"op": "event_attach", "event": event, "node": 0}]
                        )
                assert excinfo.value.retryable
                # Nothing applied: graph and epoch are untouched.
                assert client.status()["epoch"] == epoch0


class TestOverloadChaos:
    def test_retrying_clients_all_complete_and_counters_reconcile(
        self, make_dynamic_graph, chaos_dataset, serial_reference
    ):
        _dataset, config = chaos_dataset
        with running_server(make_dynamic_graph(), config, workers=1,
                            max_concurrency=1, max_queue=0,
                            queue_timeout=0.5) as server:
            clients = 4
            per_client = 3
            answers = []
            errors = []
            lock = threading.Lock()

            def _worker(seed):
                try:
                    with CorrelationClient(*server.address, max_retries=40,
                                           backoff_base=0.02,
                                           retry_seed=seed) as client:
                        mine = [client.rank()["pairs"] for _ in range(per_client)]
                        with lock:
                            answers.extend(mine)
                            stats.append(client.retry_stats)
                except Exception as exc:  # pragma: no cover - fails the test
                    with lock:
                        errors.append(exc)

            stats = []
            threads = [
                threading.Thread(target=_worker, args=(seed,))
                for seed in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors, errors
            assert len(answers) == clients * per_client
            assert all(a == serial_reference["rank"] for a in answers)
            admission = server.admission.stats
            total_attempts = sum(s.attempts for s in stats)
            # Every wire attempt of a gated request ended in exactly one of
            # the admission outcomes; the ledgers must agree to the unit.
            assert total_attempts == (
                admission.admitted + admission.rejected + admission.timed_out
            )
            assert admission.admitted == clients * per_client

    def test_shm_is_clean_after_chaos(self):
        assert all(name.split("_")[1] in ("indptr", "indices", "evnodes",
                                          "evoffs")
                   for name in shm_segments())
