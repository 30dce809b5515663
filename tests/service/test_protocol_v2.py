"""Tests for the protocol envelope: versions, epoch stamps, at_epoch pins.

v2 added the versioned envelope and epoch stamps; v3 (PR 9) added request
ids and deadlines without changing any of the semantics pinned here."""

import pytest

from repro.service.client import CorrelationClient
from repro.service.protocol import (
    BadRequestError,
    PROTO_VERSION,
    RemoteError,
    check_proto,
    error_response,
    ok_response,
    parse_at_epoch,
    raise_for_error,
)
from repro.service.server import CorrelationServer


class TestEnvelope:
    def test_ok_response_carries_proto(self):
        response = ok_response(1, {"pong": True})
        assert response["proto"] == PROTO_VERSION == 3
        assert "epoch" not in response

    def test_ok_response_mirrors_result_epoch(self):
        response = ok_response(1, {"epoch": 7, "pairs": []})
        assert response["epoch"] == 7

    def test_explicit_epoch_wins(self):
        response = ok_response(1, {"epoch": 7}, epoch=9)
        assert response["epoch"] == 9

    def test_error_response_carries_proto(self):
        response = error_response(1, BadRequestError("nope"))
        assert response["proto"] == PROTO_VERSION


class TestCheckProto:
    def test_missing_proto_rejected(self):
        with pytest.raises(RemoteError, match="no protocol version"):
            check_proto({"ok": True})

    def test_older_major_rejected(self):
        with pytest.raises(RemoteError, match="v2"):
            check_proto({"proto": PROTO_VERSION - 1})

    def test_current_version_accepted(self):
        assert check_proto({"proto": PROTO_VERSION}) == PROTO_VERSION

    def test_newer_major_rejected(self):
        with pytest.raises(RemoteError, match="v4"):
            check_proto({"proto": 4})

    def test_malformed_version_rejected(self):
        with pytest.raises(RemoteError, match="malformed"):
            check_proto({"proto": "two"})
        with pytest.raises(RemoteError, match="malformed"):
            check_proto({"proto": 0})

    def test_raise_for_error_checks_proto_first(self):
        with pytest.raises(RemoteError, match="v4"):
            raise_for_error({"proto": 4, "ok": True, "result": {}})


class TestParseAtEpoch:
    def test_absent_is_none(self):
        assert parse_at_epoch({}) is None

    def test_integer_coerced(self):
        assert parse_at_epoch({"at_epoch": "4"}) == 4

    def test_junk_rejected(self):
        with pytest.raises(BadRequestError):
            parse_at_epoch({"at_epoch": "soon"})


@pytest.fixture(scope="module")
def server_and_client(service_dataset):
    from repro.streaming.dynamic_graph import DynamicAttributedGraph

    dataset, config = service_dataset
    attributed = dataset.attributed
    dynamic = DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )
    with CorrelationServer(dynamic, config, workers=1) as server:
        client = CorrelationClient(*server.address)
        yield server, client, dynamic
        client.close()


class TestOverTheWire:
    def test_responses_stamp_epoch_and_last_epoch(self, server_and_client):
        _server, client, dynamic = server_and_client
        names = sorted(dynamic.event_names())
        pairs = [(names[0], names[1])]
        response = client.rank(pairs)
        assert response["epoch"] == dynamic.epoch
        assert client.last_epoch == dynamic.epoch
        assert client.server_proto == PROTO_VERSION

    def test_commit_then_read_your_writes(self, server_and_client):
        _server, client, dynamic = server_and_client
        names = sorted(dynamic.event_names())
        pairs = [(names[0], names[1])]
        event = names[0]
        attached = set(int(n) for n in dynamic.event_nodes(event))
        fresh = next(n for n in range(dynamic.num_nodes) if n not in attached)
        lease = dynamic.pin()  # keep the pre-commit epoch readable
        old_epoch = lease.epoch
        before = client.rank(pairs)
        receipt = client.stream(
            [{"op": "event_attach", "event": event, "node": fresh}]
        )
        assert receipt["epoch"] == old_epoch + 1
        assert client.last_epoch == receipt["epoch"]
        after = client.rank(pairs, at_epoch=receipt["epoch"])
        assert after["epoch"] == receipt["epoch"]
        replay = client.rank(pairs, at_epoch=old_epoch)
        assert replay["pairs"] == before["pairs"]
        assert client.last_epoch == old_epoch
        lease.release()

    def test_expired_at_epoch_maps_to_bad_request(self, server_and_client):
        _server, client, _dynamic = server_and_client
        with pytest.raises(BadRequestError, match="not retained"):
            client.rank(at_epoch=9999)

    def test_topk_accepts_at_epoch(self, server_and_client):
        _server, client, dynamic = server_and_client
        response = client.topk(2, at_epoch=dynamic.epoch)
        assert response["epoch"] == dynamic.epoch
        assert len(response["pairs"]) == 2


class TestDefaultTopK:
    def test_server_default_caps_rank_and_topk(self, service_dataset):
        dataset, config = service_dataset
        with CorrelationServer(
            dataset.attributed, config, default_top_k=2
        ) as server:
            client = CorrelationClient(*server.address)
            try:
                assert len(client.rank()["pairs"]) == 2
                # topk may omit k entirely and fall back to the default.
                response = client.request("topk", {"pairs": "all"})
                assert len(response["pairs"]) <= 2
                # An explicit top_k still wins over the server default.
                assert len(client.rank(top_k=1)["pairs"]) == 1
            finally:
                client.close()

    def test_topk_without_k_or_default_rejected(self, service_dataset):
        dataset, config = service_dataset
        with CorrelationServer(dataset.attributed, config) as server:
            client = CorrelationClient(*server.address)
            try:
                with pytest.raises(BadRequestError, match="'k'"):
                    client.request("topk", {"pairs": "all"})
            finally:
                client.close()
