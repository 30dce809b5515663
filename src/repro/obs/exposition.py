"""Prometheus text exposition over HTTP (``tesc serve --metrics-port``).

A tiny :mod:`http.server`-based endpoint serving one registry:

* ``GET /metrics`` — the registry in text exposition format 0.0.4;
* ``GET /`` — a one-line pointer to ``/metrics`` (human convenience).

Scrapes are read-only and lock-free against the request path (the registry
snapshots under its own fine-grained locks), so a scraper can never slow a
rank request down.  The server binds loopback by default, uses a threading
HTTP server (scrapes may overlap), and is torn down with :meth:`close`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Tuple

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsHTTPServer:
    """Serve one registry's exposition on ``host:port`` until closed.

    ``port=0`` binds a free port; read :attr:`address` after
    :meth:`start`.  Usable as a context manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self._host = host
        self._port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the endpoint is bound to (valid after start)."""
        if self._httpd is None:
            raise RuntimeError("metrics server is not started")
        return self._httpd.server_address[:2]

    def start(self) -> "MetricsHTTPServer":
        if self._httpd is not None:
            return self
        # Imported here so that a server without an HTTP endpoint never
        # loads http.server (and the email/html packages it pulls in).
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = self.registry

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] == "/metrics":
                    body = registry.exposition().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif self.path == "/":
                    body = b"tesc metrics endpoint; scrape /metrics\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain; charset=utf-8")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404, "unknown path; scrape /metrics")

            def log_message(self, *_args) -> None:  # silence per-scrape lines
                pass

        self._httpd = ThreadingHTTPServer((self._host, self._port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="tesc-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving (idempotent)."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsHTTPServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()
