"""Lifecycle of one ``tesc serve`` subprocess: boot, probe, measure, stop.

The server always runs as a separate process started from the checkout's
sources (``PYTHONPATH=src``), so every number the ledger reports crosses the
real socket, protocol, admission and engine path.  Stopping is thorough: the
server is asked to shut down (terminated if it cannot be asked, killed if it
does not stop), and every process it forked (pool workers, the shared-memory
resource tracker) is waited for, so no run leaves a process behind.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.service import CorrelationClient
from repro.service.protocol import ServiceError

from benchmarks.ledger.results import ROOT

TRACED_SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_serve.py")

_BANNER = re.compile(rb"listening on [^\s:]+:(\d+)")
BOOT_TIMEOUT = 60.0


def _ppid_map() -> Dict[int, int]:
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may contain spaces; the fields resume after ')'.
        parents[int(entry)] = int(stat[stat.rfind(b")") + 2:].split()[1])
    return parents


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    parents = _ppid_map()
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2:][:1] != b"Z"


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServerProcess:
    """One running server, started by :meth:`boot` and ended by :meth:`stop`."""

    def __init__(self, argv: Sequence[str], log_path: str) -> None:
        self.client: Optional[CorrelationClient] = None
        self.port = 0
        self.boot_seconds = 0.0
        self._log_path = log_path
        self._log = open(log_path, "ab")
        self._started = time.perf_counter()
        self.process: Optional[subprocess.Popen] = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=self._log,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), cwd=ROOT,
        )

    @classmethod
    def boot(cls, serve_args: Sequence[str], log_path: str,
             spans_path: Optional[str] = None) -> "ServerProcess":
        """Start ``tesc serve`` (through the tracing launcher when
        ``spans_path`` is given) and return once it answers a ``ping``;
        :attr:`boot_seconds` is the time from spawn to that answer."""
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            argv = [sys.executable, TRACED_SERVE, spans_path, "serve", *serve_args]
        server = cls(argv, log_path)
        try:
            server.port = server._read_port()
            server.client = CorrelationClient("127.0.0.1", server.port)
            server.client.ping()
        except BaseException:
            server.stop()
            raise
        server.boot_seconds = time.perf_counter() - server._started
        return server

    def _read_port(self) -> int:
        stdout = self.process.stdout
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            remaining = max(deadline - time.monotonic(), 0.0)
            ready, _, _ = select.select([stdout], [], [], remaining)
            line = stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(
                    f"tesc serve did not come up (exit code "
                    f"{self.process.poll()}; log in {self._log_path})"
                )
            match = _BANNER.search(line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the server and every process it forked."""
        pids = [self.process.pid, *descendants(self.process.pid)]
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Shut the server down and wait for it and all its children."""
        process = self.process
        if process is None:
            return
        running = process.poll() is None
        children = descendants(process.pid) if running else []
        asked = False
        if self.client is not None:
            if running:
                try:
                    self.client.shutdown()
                    asked = True
                except (ServiceError, OSError):
                    pass
            self.client.close()
            self.client = None
        if running and not asked:
            process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        deadline = time.monotonic() + 10.0
        for child in children:
            while _alive(child) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(child):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                while _alive(child):
                    time.sleep(0.02)
        process.stdout.close()
        self._log.close()
        self.process = None
