"""The correlation server: sockets, dispatch, backpressure, lifecycle.

:class:`CorrelationServer` owns one :class:`~repro.service.engine.ServiceEngine`
and serves it over a loopback TCP socket speaking the newline-delimited JSON
protocol of :mod:`repro.service.protocol`.  Thread model:

* one daemon **accept thread** hands each connection to a daemon
  **connection thread**; connections are cheap because all heavy state lives
  in the engine;
* with ``workers > 1`` a request's density pass fans out to short-lived
  density threads for its duration
  (:func:`~repro.service.pool.pooled_density_matrix`);
* compute methods (``rank``/``topk``/``stream``) pass through the
  :class:`~repro.service.admission.AdmissionController` — bounded
  concurrency, bounded queue, 429/408 rejections — while ``ping``/``status``
  always answer, so health checks keep working under overload;
* :meth:`close` stops the listener, drains connection threads, and releases
  the engine's caches.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import DeadlineExceededError, ReproError
from repro.obs import MetricsHTTPServer, stage, trace
from repro.service import faults
from repro.service.admission import AdmissionController
from repro.service.engine import ServiceEngine
from repro.service.protocol import (
    BadRequestError,
    RequestTimeoutError,
    ServiceError,
    decode_line,
    encode,
    error_response,
    ok_response,
    parse_at_epoch,
    parse_config_overrides,
    parse_deadline,
    parse_pairs,
    parse_rid,
    parse_sort_and_k,
)
from repro.storage.checkpoint import CheckpointStore, digest_string
from repro.storage.recovery import RecoveryReport, recover
from repro.streaming.delta import WriteAheadLog
from repro.streaming.dynamic_graph import DynamicAttributedGraph
from repro.utils import deadlines

#: Methods that skip admission control (cheap, must answer under overload).
#: ``checkpoint`` is ungated deliberately: it runs off the commit path
#: against a leased snapshot, and an operator must be able to force one
#: while the service is overloaded.
_UNGATED_METHODS = frozenset(
    {"ping", "status", "metrics", "shutdown", "checkpoint"}
)

#: Largest request frame (one JSON line, newline excluded) a connection may
#: send.  Well above the largest request in the tree (bulk commits of 2,500
#: edges, ~100 KB); a longer frame is answered with a 400 and its connection
#: closed, so a peer that never sends a newline cannot grow server memory
#: without bound.
MAX_FRAME_BYTES = 8 * 1024 * 1024


class CorrelationServer:
    """Serve ``rank``/``topk``/``stream`` for one graph over a local socket.

    Parameters
    ----------
    graph:
        The graph to serve (a
        :class:`~repro.streaming.dynamic_graph.DynamicAttributedGraph` if
        ``stream`` commits should be accepted).
    config:
        Default :class:`~repro.core.config.TescConfig` for all requests.
    workers:
        Density threads per request (``1`` = compute entirely in the
        request thread).
    host / port:
        Bind address; port ``0`` (the default) picks a free port, exposed
        via :attr:`address` after :meth:`start`.
    max_concurrency / max_queue / queue_timeout:
        Admission-control limits (see
        :class:`~repro.service.admission.AdmissionController`).
    throttle:
        Optional hook called as ``throttle(method)`` at the start of every
        gated request *while holding its admission slot* — the concurrency
        tests use it to pin requests in flight deterministically.
    default_top_k:
        Server-side default result cap: ``rank`` requests without a
        ``top_k`` are truncated to this many pairs, and ``topk`` requests
        may omit ``k`` to mean it (``tesc serve --top-k``).  ``None`` (the
        default) keeps full rankings.
    metrics_port:
        When not ``None``, :meth:`start` also serves the engine's metrics
        registry in Prometheus text exposition over HTTP on this port
        (``0`` picks a free one — see :attr:`metrics_address`).  The same
        data is always available through the ungated ``metrics`` protocol
        verb regardless of this setting.
    slow_request_seconds:
        Requests slower than this are emitted as JSON lines (span tree
        included) through the ``repro.obs.slowlog`` logger; ``None``
        disables the slow-request log.
    wal:
        A write-ahead log path (or an open
        :class:`~repro.streaming.delta.WriteAheadLog`).  Requires a dynamic
        graph.  Batches already committed to the log are **replayed into
        the graph here**, before the engine exists — so a SIGKILL'd server
        restarted over the same base graph files and the same WAL resumes
        at the last committed epoch — and every subsequent ``stream``
        commit is durably appended before it applies.
    store:
        A checkpoint-store directory (or an open
        :class:`~repro.storage.checkpoint.CheckpointStore`).  Requires
        ``wal``.  Boot runs the bounded recovery ladder
        (:func:`~repro.storage.recovery.recover`): newest valid checkpoint
        restored, only the WAL tail past it replayed — with graceful
        fallback through older checkpoints down to full replay.  The
        outcome is exposed as :attr:`recovery` and in ``tesc status``.
    checkpoint_interval / checkpoint_retain:
        Background-checkpoint cadence in seconds (``None`` disables the
        thread; the ``checkpoint`` verb still works) and how many
        checkpoints to keep.

    Usable as a context manager::

        with CorrelationServer(graph, cfg) as server:
            client = CorrelationClient(*server.address)
    """

    def __init__(
        self,
        graph: AttributedGraph,
        config: Optional[TescConfig] = None,
        workers: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 4,
        max_queue: int = 16,
        queue_timeout: Optional[float] = 30.0,
        throttle: Optional[Callable[[str], None]] = None,
        default_top_k: Optional[int] = None,
        metrics_port: Optional[int] = None,
        slow_request_seconds: Optional[float] = None,
        wal: Optional[Union[str, WriteAheadLog]] = None,
        store: Optional[Union[str, CheckpointStore]] = None,
        checkpoint_interval: Optional[float] = None,
        checkpoint_retain: int = 2,
    ) -> None:
        self.replayed_batches = 0
        self.recovery: Optional[RecoveryReport] = None
        if store is not None and wal is None:
            raise ValueError(
                "--store needs --wal: a checkpoint records the WAL offset "
                "it covers"
            )
        if wal is not None:
            if not isinstance(graph, DynamicAttributedGraph):
                raise ValueError(
                    "--wal needs a dynamic graph: write-ahead logging "
                    "records stream commits"
                )
            if not isinstance(wal, WriteAheadLog):
                wal = WriteAheadLog(wal)
            if store is not None and not isinstance(store, CheckpointStore):
                store = CheckpointStore(store, retain=checkpoint_retain)
            resolved_config = config if config is not None else TescConfig()
            digest = digest_string(
                ServiceEngine._config_digest(resolved_config, persistent=True)
            )
            self.recovery = recover(
                graph, wal, store=store, config_digest=digest
            )
            self.replayed_batches = self.recovery.replayed_batches
        self.engine = ServiceEngine(
            graph, config, workers=workers,
            slow_request_seconds=slow_request_seconds,
            wal=wal,
            store=store,
            checkpoint_interval=checkpoint_interval,
            checkpoint_retain=checkpoint_retain,
        )
        if self.recovery is not None:
            self.engine.record_recovery(self.recovery)
        self.default_top_k = None if default_top_k is None else int(default_top_k)
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            queue_timeout=queue_timeout,
            metrics=self.engine.metrics,
        )
        self._host = host
        self._requested_port = port
        self._throttle = throttle
        self._metrics_port = metrics_port
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to (valid after start)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the Prometheus endpoint (needs metrics_port)."""
        if self._metrics_server is None:
            raise RuntimeError(
                "metrics endpoint is not running (start the server with "
                "metrics_port=...)"
            )
        return self._metrics_server.address

    def start(self) -> "CorrelationServer":
        """Bind and begin accepting requests."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(64)
        self._listener = listener
        if self._metrics_port is not None:
            self._metrics_server = MetricsHTTPServer(
                self.engine.metrics, host=self._host, port=self._metrics_port
            ).start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tesc-serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._started = True
        return self

    def close(self) -> None:
        """Stop accepting, close live connections, drop engine state."""
        if not self._started or self._stopping.is_set():
            self._stopping.set()
            return
        self._stopping.set()
        listener = self._listener
        if listener is not None:
            # accept() does not reliably return when its socket is closed
            # under it; a throwaway self-connection wakes the loop first so
            # the join below is prompt instead of riding out its timeout.
            try:
                wake = socket.create_connection(
                    listener.getsockname(), timeout=1.0
                )
                wake.close()
            except OSError:  # pragma: no cover - listener already dead
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:  # pragma: no cover - already gone
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        self.engine.close()

    def __enter__(self) -> "CorrelationServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- socket plumbing -----------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set():
            try:
                connection, _address = listener.accept()
            except OSError:
                break  # listener closed by close()
            with self._connections_lock:
                self._connections.add(connection)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="tesc-serve-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            reader = connection.makefile("rb")
            while True:
                line = reader.readline(MAX_FRAME_BYTES + 1)
                if not line:
                    break
                if len(line) > MAX_FRAME_BYTES and not line.endswith(b"\n"):
                    error = BadRequestError(
                        f"request frame exceeds {MAX_FRAME_BYTES} bytes "
                        "without a newline; closing the connection"
                    )
                    try:
                        connection.sendall(encode(error_response(None, error)))
                    except OSError:
                        pass
                    break
                if not line.strip():
                    continue
                rule = faults.inject(faults.SOCKET_RECV)
                if rule is not None and rule.action == "drop":
                    # Connection dies before the request is processed.
                    break
                response = self._handle_line(line)
                method = response.pop("_method", None)
                rule = faults.inject(faults.SOCKET_SEND, method=method)
                if rule is not None and rule.action == "drop":
                    # Connection dies after processing but before the
                    # response is written — the case rid-dedup exists for.
                    break
                try:
                    connection.sendall(encode(response))
                except OSError:
                    break  # client went away mid-response
                if response.pop("_shutdown", False):
                    # Shutdown acknowledged; tear the server down from a
                    # helper thread so this connection can finish cleanly.
                    threading.Thread(target=self.close, daemon=True).start()
                    break
        except OSError:  # pragma: no cover - connection reset races
            pass
        finally:
            with self._connections_lock:
                self._connections.discard(connection)
            try:
                connection.close()
            except OSError:  # pragma: no cover - already gone
                pass

    # -- dispatch ------------------------------------------------------------

    def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id = None
        method: Optional[str] = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            method = request.get("method")
            params = request.get("params") or {}
            if not isinstance(method, str):
                raise BadRequestError("request must carry a string 'method'")
            if not isinstance(params, dict):
                raise BadRequestError("request 'params' must be an object")
            rid = parse_rid(request)
            deadline = parse_deadline(request)
            deadline_at = (
                None if deadline is None else time.monotonic() + deadline
            )
            if method in _UNGATED_METHODS:
                result = self._dispatch(method, params, rid)
            else:
                # One root span per gated request: the engine's own
                # rank/topk/commit span nests under it, so the recorded tree
                # also shows time spent waiting for an admission slot.
                with trace(
                    "request", sink=self.engine._finish_trace, method=method
                ):
                    with stage("admission"):
                        slot = self.admission.admit(deadline_at=deadline_at)
                    with slot:
                        if self._throttle is not None:
                            self._throttle(method)
                        with deadlines.deadline_scope(deadline_at):
                            result = self._dispatch(method, params, rid)
            response = ok_response(request_id, result)
            if method == "shutdown":
                response["_shutdown"] = True
            response["_method"] = method
            return response
        except DeadlineExceededError as exc:
            # Cooperative cancellation fired mid-compute: retryable 408
            # (must precede the generic ReproError -> 400 mapping).
            response = error_response(request_id, RequestTimeoutError(str(exc)))
        except ServiceError as exc:
            response = error_response(request_id, exc)
        except ReproError as exc:
            # Engine-level validation errors (unknown event, bad config,
            # insufficient sample in "raise" mode) are the client's fault.
            response = error_response(request_id, BadRequestError(str(exc)))
        except Exception as exc:  # noqa: BLE001 - server must answer
            response = error_response(request_id, exc)
        response["_method"] = method
        return response

    def _dispatch(self, method: str, params: Dict[str, Any],
                  rid: Optional[str] = None) -> Dict[str, Any]:
        if method == "ping":
            return {"pong": True}
        if method == "status":
            status = self.engine.describe()
            status["admission"] = {
                "running": self.admission.running,
                "waiting": self.admission.waiting,
                "max_concurrency": self.admission.max_concurrency,
                "max_queue": self.admission.max_queue,
                "admitted": self.admission.stats.admitted,
                "rejected": self.admission.stats.rejected,
                "timed_out": self.admission.stats.timed_out,
            }
            return status
        if method == "metrics":
            traces = int(params.get("traces", 0) or 0)
            return {
                "metrics": self.engine.metrics.snapshot(),
                "exposition": self.engine.metrics.exposition(),
                "traces": (
                    self.engine.trace_buffer.snapshot(limit=traces)
                    if traces > 0 else []
                ),
            }
        if method == "shutdown":
            return {"stopping": True}
        if method == "checkpoint":
            return self.engine.checkpoint(force=bool(params.get("force")))
        if method == "rank":
            top_k, sort_by = parse_sort_and_k(params)
            if top_k is None:
                top_k = self.default_top_k
            return self.engine.rank(
                pairs=parse_pairs(params.get("pairs")),
                top_k=top_k,
                sort_by=sort_by,
                config_overrides=parse_config_overrides(params.get("config")),
                on_insufficient=params.get("on_insufficient", "keep"),
                at_epoch=parse_at_epoch(params),
            )
        if method == "topk":
            raw_k = params.get("k", self.default_top_k)
            if raw_k is None:
                raise BadRequestError("topk requires an integer 'k'")
            try:
                k = int(raw_k)
            except (TypeError, ValueError) as exc:
                raise BadRequestError(
                    f"topk 'k' must be an integer, got {raw_k!r}"
                ) from exc
            _top_k, sort_by = parse_sort_and_k(params)
            return self.engine.topk(
                k,
                pairs=parse_pairs(params.get("pairs")),
                sort_by=sort_by,
                config_overrides=parse_config_overrides(params.get("config")),
                on_insufficient=params.get("on_insufficient", "keep"),
                at_epoch=parse_at_epoch(params),
            )
        if method == "stream":
            deltas = params.get("deltas")
            if not isinstance(deltas, list):
                raise BadRequestError(
                    "stream requires 'deltas': a list of delta records"
                )
            return self.engine.commit(deltas, rid=rid)
        raise BadRequestError(f"unknown method {method!r}")
