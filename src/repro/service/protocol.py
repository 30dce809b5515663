"""Wire protocol of the correlation service (v3).

Newline-delimited JSON over a local TCP (or Unix) socket: each request is
one line ``{"id": ..., "method": ..., "params": {...}}``, each response one
line ``{"id": ..., "proto": 3, "epoch": ..., "ok": true, "result": {...}}``
or ``{"id": ..., "proto": 3, "ok": false, "error": {"code": ..., "type":
..., "message": ...}}``.  JSON floats round-trip Python's float64 exactly
(``repr`` shortest-round-trip), which is what lets the bit-identity suites
compare service answers against in-process rankings field by field.

Methods: ``ping``, ``status``, ``metrics``, ``rank``, ``topk``, ``stream``,
``checkpoint``, ``shutdown``.  ``metrics`` is ungated (like
``ping``/``status``) and returns the server's metrics registry as a plain
snapshot dict plus its Prometheus text exposition; ``params: {"traces": N}``
additionally returns the last ``N`` request span trees from the server's
trace buffer.  ``checkpoint`` (also ungated — it runs off the commit path
against a leased snapshot) forces a durable checkpoint on a server started
with ``--store``; ``params: {"force": true}`` overrides the unchanged-epoch
skip.

Every response carries two envelope fields: ``proto``, the protocol
**major version**, and ``epoch``, the commit epoch the response was
computed at (present on every success whose result is epoch-bound; mirrored
from the result for ``rank``/``topk``/``stream``).  The only client is the
in-tree one, so it speaks exactly this build's version: a response whose
``proto`` is missing or differs is rejected.  Requests may pass
``at_epoch`` in ``rank``/``topk`` params to read a pinned historical
snapshot (added in v2, the snapshot-isolation release).

Protocol v3 (the fault-tolerance release) adds two *request* envelope
fields — ``rid``, a client-generated idempotency key (the server dedups
``stream`` commits on it, so a retried commit whose first response was lost
in flight is returned from cache instead of applied twice), and
``deadline``, the client's remaining budget in seconds (relative, so clock
skew is irrelevant) propagated into admission waits and cooperative
cancellation checkpoints — and two *error*-body fields: ``retryable``
(whether an identical retry can succeed) and an optional ``retry_after``
backoff hint in seconds.

Error codes follow the familiar HTTP shape so backpressure is recognisable:
``400`` malformed/invalid request (never retryable), ``408`` queue-wait or
deadline timeout (retryable), ``429`` overloaded — bounded queue full
(retryable, honouring ``retry_after``), ``500`` internal failure (not
retryable), ``503`` durable log unavailable (retryable: the write-ahead
append failed *before* any state change).  The client maps each code back
onto the exception classes below.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

#: The protocol major version this build speaks.
PROTO_VERSION = 3

#: Config fields a request may override, and the coercions applied to them.
#: ``batch_per_vicinity`` is absent: only the importance samplers read it,
#: and the service rejects those.
CONFIG_FIELDS: Dict[str, type] = {
    "vicinity_level": int,
    "sample_size": int,
    "sampler": str,
    "alpha": float,
    "alternative": str,
    "topk_initial_sample_size": int,
    "topk_growth_factor": float,
    "random_state": int,
}


class ServiceError(Exception):
    """Base class of every error the service reports to a client.

    ``retryable`` is the class default for the wire field of the same name;
    :func:`raise_for_error` overrides the instance attribute from the
    response body, and attaches ``retry_after`` (seconds, or ``None``) so
    retry loops can read both off any caught :class:`ServiceError`.
    """

    code = 500
    kind = "internal"
    retryable = False
    retry_after: Optional[float] = None


class BadRequestError(ServiceError):
    """Malformed request, unknown method/event, or invalid configuration."""

    code = 400
    kind = "bad_request"


class RequestTimeoutError(ServiceError):
    """The queue wait or the request's own deadline expired."""

    code = 408
    kind = "timeout"
    retryable = True


class OverloadedError(ServiceError):
    """The server's bounded wait queue is full (back off and retry)."""

    code = 429
    kind = "overloaded"
    retryable = True


class RemoteError(ServiceError):
    """The server failed internally while handling the request."""

    code = 500
    kind = "internal"


class UnavailableError(ServiceError):
    """A dependency (the write-ahead log) failed before any state change."""

    code = 503
    kind = "unavailable"
    retryable = True


class ConnectionLostError(RemoteError):
    """Client side only: the socket died before a response arrived.

    Synthesised by :class:`~repro.service.client.CorrelationClient` (never
    sent on the wire).  Retryable — for reads trivially, for ``stream``
    because the server dedups commits on the request's ``rid``.
    """

    kind = "connection"
    retryable = True


#: code -> client-side exception class.
ERRORS_BY_CODE = {
    cls.code: cls
    for cls in (
        BadRequestError,
        RequestTimeoutError,
        OverloadedError,
        RemoteError,
        UnavailableError,
    )
}


def encode(message: Dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises :class:`BadRequestError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"malformed JSON line: {exc}") from exc
    except RecursionError as exc:
        # The decoder recurses once per nesting level; a deeply nested
        # frame is the client's fault, not an internal failure.
        raise BadRequestError("JSON line is nested too deeply") from exc
    if not isinstance(message, dict):
        raise BadRequestError(
            f"protocol messages must be JSON objects, got {type(message).__name__}"
        )
    return message


def error_response(request_id: Any, error: BaseException) -> Dict[str, Any]:
    """The error-response message for ``error``."""
    if isinstance(error, ServiceError):
        code, kind = error.code, error.kind
        retryable = bool(error.retryable)
        retry_after = error.retry_after
    else:
        code, kind = 500, "internal"
        retryable, retry_after = False, None
    body: Dict[str, Any] = {
        "code": code,
        "type": kind,
        "exception": type(error).__name__,
        "message": str(error),
        "retryable": retryable,
    }
    if retry_after is not None:
        body["retry_after"] = float(retry_after)
    return {
        "id": request_id,
        "proto": PROTO_VERSION,
        "ok": False,
        "error": body,
    }


def ok_response(request_id: Any, result: Dict[str, Any],
                epoch: Optional[int] = None) -> Dict[str, Any]:
    """The success-response message wrapping ``result``.

    ``epoch`` stamps the envelope; when omitted it is mirrored from
    ``result["epoch"]`` if the result carries one, so every epoch-bound
    answer advertises its snapshot at the envelope level.
    """
    if epoch is None and isinstance(result, dict):
        epoch = result.get("epoch")
    response: Dict[str, Any] = {
        "id": request_id,
        "proto": PROTO_VERSION,
        "ok": True,
        "result": result,
    }
    if epoch is not None:
        response["epoch"] = int(epoch)
    return response


def check_proto(response: Dict[str, Any]) -> int:
    """Client side: reject responses from any other major version.

    Every response this build's server sends carries ``proto``, so a
    missing field or a different major version raises :class:`RemoteError`
    (the safe interpretation of a message whose semantics we cannot know).
    """
    if "proto" not in response:
        raise RemoteError("response carries no protocol version")
    proto = response["proto"]
    if not isinstance(proto, int) or proto < 1:
        raise RemoteError(f"malformed protocol version {proto!r} in response")
    if proto != PROTO_VERSION:
        raise RemoteError(
            f"server speaks protocol v{proto}, this client speaks "
            f"v{PROTO_VERSION}"
        )
    return proto


def raise_for_error(response: Dict[str, Any]) -> Dict[str, Any]:
    """Client side: unwrap a response, raising the mapped exception."""
    check_proto(response)
    if response.get("ok"):
        return response.get("result", {})
    error = response.get("error") or {}
    cls = ERRORS_BY_CODE.get(error.get("code"), RemoteError)
    exception = error.get("exception")
    message = error.get("message", "unknown server error")
    raised = cls(f"{exception}: {message}" if exception else message)
    retryable = error.get("retryable")
    if isinstance(retryable, bool):
        raised.retryable = retryable
    retry_after = error.get("retry_after")
    if isinstance(retry_after, (int, float)) and retry_after >= 0:
        raised.retry_after = float(retry_after)
    raise raised


def parse_pairs(raw: Any) -> Any:
    """Normalise a request's ``pairs`` param into a :data:`PairSpec`."""
    if raw is None or raw == "all":
        return "all"
    if not isinstance(raw, list):
        raise BadRequestError(
            f'pairs must be "all" or a list of [event_a, event_b] pairs, got {raw!r}'
        )
    pairs = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise BadRequestError(
                f"each pair must be a two-element list, got {entry!r}"
            )
        pairs.append((str(entry[0]), str(entry[1])))
    return pairs


def parse_config_overrides(raw: Any) -> Dict[str, Any]:
    """Validate and coerce a request's ``config`` override mapping.

    Only whitelisted :class:`~repro.core.config.TescConfig` fields pass
    (``seed`` is accepted as an alias for ``random_state``); anything else
    is a :class:`BadRequestError` — clients cannot smuggle arbitrary kwargs
    into the engine.
    """
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise BadRequestError(f"config must be an object, got {raw!r}")
    overrides: Dict[str, Any] = {}
    for key, value in raw.items():
        field = "random_state" if key == "seed" else key
        coerce = CONFIG_FIELDS.get(field)
        if coerce is None:
            raise BadRequestError(f"unknown config field {key!r}")
        if value is None:
            overrides[field] = None
            continue
        try:
            overrides[field] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(
                f"config field {key!r} has invalid value {value!r}: {exc}"
            ) from exc
    return overrides


def parse_at_epoch(params: Dict[str, Any]) -> Optional[int]:
    """Extract the optional ``at_epoch`` pin from request params."""
    at_epoch = params.get("at_epoch")
    if at_epoch is None:
        return None
    try:
        return int(at_epoch)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"at_epoch must be an integer, got {at_epoch!r}"
        ) from exc


def parse_sort_and_k(params: Dict[str, Any]) -> Tuple[Optional[int], str]:
    """Extract ``(top_k, sort_by)`` from request params."""
    top_k = params.get("top_k")
    if top_k is not None:
        try:
            top_k = int(top_k)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"top_k must be an integer, got {top_k!r}") from exc
    sort_by = params.get("sort_by", "score")
    if not isinstance(sort_by, str):
        raise BadRequestError(f"sort_by must be a string, got {sort_by!r}")
    return top_k, sort_by


def parse_deadline(request: Dict[str, Any]) -> Optional[float]:
    """Extract the optional relative ``deadline`` (seconds) from a request.

    The wire value is *relative* remaining budget, not a wall-clock
    instant, so client/server clock skew cannot shrink or inflate it; the
    server converts it to an absolute monotonic deadline on receipt.
    """
    deadline = request.get("deadline")
    if deadline is None:
        return None
    try:
        deadline = float(deadline)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"deadline must be a number of seconds, got {deadline!r}"
        ) from exc
    if deadline != deadline or deadline <= 0:  # NaN or non-positive
        raise BadRequestError(
            f"deadline must be a positive number of seconds, got {deadline!r}"
        )
    return deadline


def parse_rid(request: Dict[str, Any]) -> Optional[str]:
    """Extract the optional idempotency key ``rid`` from a request."""
    rid = request.get("rid")
    if rid is None:
        return None
    if not isinstance(rid, str) or not rid or len(rid) > 200:
        raise BadRequestError(
            f"rid must be a non-empty string of at most 200 characters, got {rid!r}"
        )
    return rid
