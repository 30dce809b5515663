"""Server protocol edge cases, lifecycle, and shared-memory hygiene."""

import errno
import json
import socket
import time

import pytest

from repro.service.client import CorrelationClient
from repro.service.protocol import BadRequestError, RemoteError
from repro.service.server import MAX_FRAME_BYTES, CorrelationServer
from repro.streaming.dynamic_graph import DynamicAttributedGraph

from tests.service.conftest import shm_segments


@pytest.fixture()
def static_server(service_dataset):
    dataset, config = service_dataset
    with CorrelationServer(dataset.attributed, config, workers=1) as server:
        yield server


def raw_exchange(address, payload: bytes) -> dict:
    """Send raw bytes over a fresh socket, return the decoded response."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as reader:
            line = reader.readline()
    assert line, "server closed the connection without answering"
    return json.loads(line.decode("utf-8"))


class TestProtocolEdges:
    def test_malformed_json_gets_400_not_disconnect(self, static_server):
        response = raw_exchange(static_server.address, b"this is not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == 400
        assert response["id"] is None

    def test_non_object_message_gets_400(self, static_server):
        response = raw_exchange(static_server.address, b"[1, 2, 3]\n")
        assert response["ok"] is False
        assert response["error"]["code"] == 400

    def test_request_id_echoed_on_errors(self, static_server):
        payload = json.dumps({"id": 42, "method": "nope", "params": {}})
        response = raw_exchange(static_server.address, payload.encode() + b"\n")
        assert response["id"] == 42
        assert response["ok"] is False
        assert response["error"]["code"] == 400

    def test_missing_method_gets_400(self, static_server):
        payload = json.dumps({"id": 1, "params": {}})
        response = raw_exchange(static_server.address, payload.encode() + b"\n")
        assert response["error"]["code"] == 400

    def test_connection_survives_a_bad_request(self, static_server):
        """One bad line must not poison the connection for the next request."""
        host, port = static_server.address
        with CorrelationClient(host, port) as client:
            with pytest.raises(BadRequestError):
                client.request("rank", {"pairs": [["no_such_event", "also_no"]]})
            assert client.ping()

    def test_unknown_event_and_bad_config_are_400(self, static_server):
        host, port = static_server.address
        with CorrelationClient(host, port) as client:
            with pytest.raises(BadRequestError):
                client.rank([("ghost_event", "bg_0")])
            with pytest.raises(BadRequestError):
                client.rank("all", config={"not_a_field": 3})
            with pytest.raises(BadRequestError):
                client.rank("all", config={"kendall_kernel": "fast"})
            with pytest.raises(BadRequestError):
                client.rank("all", config={"kendall_crossover": 2})
            for retired in ({"topk_bound": "certified"}, {"topk_confidence": 0.999}):
                with pytest.raises(BadRequestError, match="unknown config field"):
                    client.rank("all", config=retired)
                with pytest.raises(BadRequestError, match="unknown config field"):
                    client.topk(2, config=retired)
            # The progressive schedule fields stay on the wire.
            schedule = {"topk_initial_sample_size": 512, "topk_growth_factor": 4.0}
            assert len(client.topk(2, config=schedule)["pairs"]) == 2
            with pytest.raises(BadRequestError):
                client.request("topk", {"k": "three"})
            with pytest.raises(BadRequestError):
                client.request("topk", {})  # k missing entirely

    def test_batch_per_vicinity_override_is_400(self, static_server):
        """Only the importance samplers read ``batch_per_vicinity`` and the
        service rejects those, so the field is not a wire override."""
        payload = json.dumps({
            "id": 7, "method": "rank",
            "params": {"pairs": "all", "config": {"batch_per_vicinity": 4}},
        })
        response = raw_exchange(static_server.address, payload.encode() + b"\n")
        assert response["ok"] is False
        assert response["error"]["code"] == 400
        assert response["error"]["type"] == "bad_request"
        assert "batch_per_vicinity" in response["error"]["message"]

    def test_oversize_frame_gets_400_and_closes(self, static_server):
        """A frame past the cap with no newline is answered with a 400 and
        its connection closed; other connections keep being served."""
        host, port = static_server.address
        with CorrelationClient(host, port) as bystander:
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))
                with sock.makefile("rb") as reader:
                    response = json.loads(reader.readline().decode("utf-8"))
                    assert reader.readline() == b""  # closed by the server
            assert response["ok"] is False
            assert response["error"]["code"] == 400
            assert bystander.ping()
        with CorrelationClient(host, port) as fresh:
            assert fresh.ping()

    def test_frame_at_the_cap_is_accepted(self, static_server):
        payload = json.dumps({"id": 3, "method": "ping", "params": {}}).encode()
        frame = payload.ljust(MAX_FRAME_BYTES) + b"\n"  # trailing JSON spaces
        response = raw_exchange(static_server.address, frame)
        assert response["ok"] is True and response["id"] == 3

    def test_static_graph_rejects_stream(self, static_server):
        host, port = static_server.address
        with CorrelationClient(host, port) as client:
            with pytest.raises(BadRequestError):
                client.stream([{"op": "edge_add", "u": 0, "v": 5}])


class TestStatusAndLifecycle:
    def test_status_reports_admission_and_engine_state(self, static_server):
        host, port = static_server.address
        with CorrelationClient(host, port) as client:
            status = client.status()
            assert status["dynamic"] is False
            assert status["epoch"] == 0
            assert status["admission"]["max_concurrency"] == 4
            assert status["admission"]["running"] == 0
            client.rank([("bg_0", "bg_1")])
            status = client.status()
            assert status["admission"]["admitted"] == 1
            requests = status["metrics"]["tesc_requests_total"]["values"]
            assert [
                entry["value"] for entry in requests
                if entry["labels"] == {"method": "rank"}
            ] == [1]
            assert status["cached_pair_results"] == 1

    def test_shutdown_stops_accepting(self, service_dataset):
        dataset, config = service_dataset
        server = CorrelationServer(dataset.attributed, config, workers=1)
        server.start()
        host, port = server.address
        with CorrelationClient(host, port) as client:
            assert client.shutdown()["stopping"] is True
        assert server._stopping.wait(timeout=30)
        server.close()  # idempotent with the shutdown-triggered teardown
        # The shutdown-triggered teardown runs on its own thread; give the
        # listener a bounded window to actually disappear from the port.
        deadline = time.monotonic() + 30
        refused = False
        while time.monotonic() < deadline:
            try:
                with socket.create_connection((host, port), timeout=5):
                    pass
            except OSError as exc:
                assert exc.errno in (
                    errno.ECONNREFUSED, errno.ECONNRESET, errno.ETIMEDOUT
                )
                refused = True
                break
            time.sleep(0.05)
        assert refused, "listener still accepting 30s after shutdown"

    def test_close_leaves_no_shared_memory(self, service_dataset):
        dataset, config = service_dataset
        attributed = dataset.attributed
        graph = DynamicAttributedGraph(
            attributed.csr,
            {name: attributed.event_nodes(name)
             for name in attributed.event_names()},
        )
        before = shm_segments()
        server = CorrelationServer(graph, config, workers=2)
        server.start()
        host, port = server.address
        with CorrelationClient(host, port) as client:
            client.rank([("bg_0", "bg_1"), ("bg_2", "pos_a_0")])
            client.stream([{"op": "event_attach", "event": "bg_0", "node": 1}])
            client.rank([("bg_0", "bg_1")])
        server.close()
        assert shm_segments() == before

    def test_client_raises_remote_error_after_server_gone(self, service_dataset):
        dataset, config = service_dataset
        server = CorrelationServer(dataset.attributed, config, workers=1)
        server.start()
        host, port = server.address
        client = CorrelationClient(host, port)
        assert client.ping()
        server.close()
        with pytest.raises(RemoteError):
            client.ping()
        client.close()
