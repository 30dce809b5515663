"""Seeded protocol fuzzing against a live ``CorrelationServer``.

Every malformed frame — random bytes, truncated JSON, JSON that is not an
object, invalid UTF-8, deep nesting — must be answered with a 400 on the
same connection (or, past the frame cap, a 400 and a closed connection),
and a well-formed ``rank`` must still succeed afterwards.
"""

import json
import socket

import numpy as np
import pytest

from repro.service.client import CorrelationClient
from repro.service.server import MAX_FRAME_BYTES, CorrelationServer

#: A request whose prefixes are the truncated-JSON frames.
VALID_REQUEST = json.dumps({
    "id": 7, "method": "rank", "rid": "fuzz-rid",
    "params": {"pairs": [["bg_0", "bg_1"]], "config": {"alpha": 0.01}},
}).encode()


@pytest.fixture(scope="module")
def server(service_dataset):
    dataset, config = service_dataset
    with CorrelationServer(dataset.attributed, config, workers=1) as server:
        yield server


def _random_bytes(rng):
    raw = rng.integers(0, 256, size=int(rng.integers(1, 300)), dtype=np.uint8)
    frame = bytes(raw).replace(b"\n", b"x")
    # An all-whitespace line is skipped without an answer; keep one byte.
    return frame if frame.strip() else frame + b"x"


def _truncated_json(rng):
    return VALID_REQUEST[: int(rng.integers(1, len(VALID_REQUEST)))]


def _non_object_json(rng):
    values = [[1, 2, 3], "rank", 42, 3.5, None, True, [{"method": "rank"}]]
    return json.dumps(values[int(rng.integers(0, len(values)))]).encode()


def _invalid_utf8(rng):
    junk = bytes([0xFF, 0xFE, 0xC3, 0x28, 0xA0, 0xA1, 0xED, 0xA0, 0x80])
    cut = int(rng.integers(1, len(VALID_REQUEST)))
    return VALID_REQUEST[:cut] + junk[: int(rng.integers(1, len(junk) + 1))]


def _deep_nesting(rng):
    depth = int(rng.integers(2_000, 200_001))
    if rng.random() < 0.5:
        return b"[" * depth
    # A params object nested ``depth`` levels deep inside a valid envelope.
    return (
        b'{"id":1,"method":"rank","params":' + b'{"a":' * depth + b"1"
        + b"}" * (depth + 1)
    )


def _nested_just_parseable(rng):
    # Shallow enough for the decoder, deep enough to hurt a recursive repr
    # of the offending value in an error message.
    depth = int(rng.integers(500, 990))
    field = ["pairs", "config", "at_epoch", "top_k", "sort_by"][int(rng.integers(0, 5))]
    return (
        b'{"id":2,"method":"rank","params":{"' + field.encode() + b'":'
        + b'{"a":' * depth + b"1" + b"}" * depth + b"}}"
    )


GENERATORS = [
    _random_bytes, _truncated_json, _non_object_json, _invalid_utf8,
    _deep_nesting, _nested_just_parseable,
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_malformed_frames_get_400_and_rank_still_works(server, seed):
    rng = np.random.default_rng(seed)
    host, port = server.address
    with socket.create_connection((host, port), timeout=60) as sock:
        with sock.makefile("rb") as reader:
            for _ in range(60):
                make = GENERATORS[int(rng.integers(0, len(GENERATORS)))]
                frame = make(rng)
                sock.sendall(frame + b"\n")
                line = reader.readline()
                assert line, f"{make.__name__}: connection closed"
                response = json.loads(line.decode("utf-8"))
                assert response["ok"] is False, make.__name__
                assert response["error"]["code"] == 400, (
                    make.__name__, response["error"],
                )
    with CorrelationClient(host, port) as client:
        ranked = client.rank([("bg_0", "bg_1")])
        assert len(ranked["pairs"]) == 1


def test_frame_over_the_cap_is_cut_off(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(b"[" * (MAX_FRAME_BYTES + 1))
        with sock.makefile("rb") as reader:
            response = json.loads(reader.readline().decode("utf-8"))
            assert reader.readline() == b""  # closed by the server
    assert response["error"]["code"] == 400
    with CorrelationClient(host, port) as client:
        assert len(client.rank([("bg_0", "bg_1")])["pairs"]) == 1
