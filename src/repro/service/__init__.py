"""Correlation-as-a-service: the persistent execution layer.

The batch/streaming engines in :mod:`repro.core` and :mod:`repro.streaming`
answer one caller inside one process.  This package turns them into a
long-lived *service*:

* :mod:`repro.service.pool` — the thread-sharded density pass behind
  ``workers > 1`` (:func:`~repro.service.pool.pooled_density_matrix`): the
  sample's columns are split across density threads and reassembled into
  one bit-identical matrix;
* :mod:`repro.service.engine` — :class:`~repro.service.engine.ServiceEngine`,
  the epoch-aware request executor: one state per ``(level, events,
  epoch)`` holding that population's draws and density counts, and a
  content-keyed pair-estimate cache;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a local socket
  server speaking newline-delimited JSON and its retrying, reconnecting
  client;
* :mod:`repro.service.admission` — bounded-queue admission control
  (429-style rejection, queue timeouts, request deadlines) so many
  concurrent clients degrade gracefully;
* :mod:`repro.service.faults` — the deterministic fault-injection registry
  the chaos suite arms to rehearse dropped sockets and fsync errors on
  demand.

Every answer the service produces is bit-identical to the serial in-process
engines for the same seed — asserted throughout :mod:`tests.service` and,
under injected faults, :mod:`tests.chaos`.
"""

from repro.service.admission import AdmissionController, AdmissionStats
from repro.service.client import CorrelationClient, RetryStats
from repro.service.engine import ServiceEngine
from repro.service.pool import pooled_density_matrix
from repro.service.protocol import (
    BadRequestError,
    ConnectionLostError,
    OverloadedError,
    RemoteError,
    RequestTimeoutError,
    ServiceError,
    UnavailableError,
)
from repro.service.server import CorrelationServer

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "BadRequestError",
    "ConnectionLostError",
    "CorrelationClient",
    "CorrelationServer",
    "OverloadedError",
    "RemoteError",
    "RequestTimeoutError",
    "RetryStats",
    "ServiceEngine",
    "ServiceError",
    "UnavailableError",
    "pooled_density_matrix",
]
