"""End-to-end telemetry for the TESC stack.

Three small, dependency-free pieces:

* :mod:`repro.obs.registry` — counters, gauges and monotonic-bucket
  histograms in one thread-safe :class:`MetricsRegistry`, snapshot-able to
  a plain dict (the ``metrics`` protocol verb) and to the Prometheus text
  exposition format;
* :mod:`repro.obs.trace` — the :func:`trace`/:func:`stage` span API that
  stamps every rank/topk/commit request with per-stage timings (density
  threads run in a copy of the request's context, so their spans nest
  under the stage that started them);
* :mod:`repro.obs.exposition` / :mod:`repro.obs.slowlog` — the HTTP
  ``/metrics`` endpoint behind ``tesc serve --metrics-port`` and the
  JSON-lines slow-request log.

Every instrument degrades to a shared no-op when built against a disabled
registry (``MetricsRegistry(enabled=False)`` / :data:`NULL_REGISTRY`),
which is what the ``bench_micro`` overhead guard measures against.
"""

from repro.obs.exposition import MetricsHTTPServer
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.slowlog import SlowRequestLog
from repro.obs.trace import (
    Span,
    TraceBuffer,
    current_span,
    stage,
    trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "SlowRequestLog",
    "Span",
    "TraceBuffer",
    "current_span",
    "stage",
    "trace",
]
