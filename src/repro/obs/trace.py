"""Per-request span trees: stage durations of one request.

A *span* is one timed region of a request — ``rank`` → ``sampling`` →
``density`` → ``estimate`` — held in a tree rooted at the request span.
Nesting is implicit through a :mod:`contextvars` variable: :func:`trace`
pushes a span for the ``with`` body and attaches it to whatever span was
current, so instrumented library code composes without threading a context
object through every call.

Two entry points with different zero-state behaviour:

* :func:`trace` always records; roots call ``sink(span)`` on completion
  (the engine's sink feeds its :class:`TraceBuffer` and slow-request log).
* :func:`stage` records **only when a request span is already open** —
  library hot paths (the batch engine, the top-k round loop) call it
  unconditionally and pay one contextvar read when nobody is tracing.

Helper threads started under :func:`contextvars.copy_context` (the density
shards of :func:`~repro.service.pool.pooled_density_matrix`) see the span
that was current when they were started, so their stages attach to it
directly.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

_TRACE_COUNTER = itertools.count(1)
_SPAN_COUNTER = itertools.count(1)


def _new_trace_id() -> str:
    return f"t{os.getpid():x}-{next(_TRACE_COUNTER):x}"


def _new_span_id() -> str:
    return f"s{next(_SPAN_COUNTER):x}"


class Span:
    """One timed region; durations in seconds, children in start order."""

    __slots__ = (
        "children", "duration", "name", "parent_id", "span_id",
        "started_at", "tags", "trace_id", "_t0",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.tags: Dict[str, Any] = dict(tags or {})
        self.children: List["Span"] = []
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.duration: Optional[float] = None

    def end(self) -> None:
        """Stamp the duration (idempotent)."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0

    def child_seconds(self) -> float:
        """Wall time covered by direct children (ended ones)."""
        return sum(c.duration or 0.0 for c in self.children)

    def find(self, name: str) -> List["Span"]:
        """Every descendant (and self) named ``name``, preorder."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> Dict[str, Any]:
        """The span tree as a JSON-safe nested dict."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "seconds": self.duration,
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        seconds = "open" if self.duration is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {seconds}, children={len(self.children)})"


def current_span() -> Optional[Span]:
    """The innermost span open on this thread/context (None outside one)."""
    return _CURRENT.get()


@contextmanager
def trace(
    name: str,
    sink: Optional[Callable[[Span], None]] = None,
    **tags: Any,
) -> Iterator[Span]:
    """Open a span named ``name`` for the ``with`` body.

    Nested calls build the tree automatically.  When the span is a root
    (no enclosing span), ``sink`` is called with the finished span —
    errors raised by the body still reach the sink, so slow *failing*
    requests are logged too.
    """
    parent = _CURRENT.get()
    span = Span(
        name,
        trace_id=parent.trace_id if parent is not None else None,
        parent_id=parent.span_id if parent is not None else None,
        tags=tags,
    )
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        span.end()
        _CURRENT.reset(token)
        if parent is not None:
            parent.children.append(span)
        elif sink is not None:
            try:
                sink(span)
            except Exception:
                pass  # observability must never fail the request


@contextmanager
def stage(name: str, **tags: Any) -> Iterator[Optional[Span]]:
    """A child span — recorded only if a request span is already open.

    Library code calls this on every hot path; when nothing is tracing
    (serial engines outside the service) the cost is one contextvar read.
    """
    if _CURRENT.get() is None:
        yield None
        return
    with trace(name, **tags) as span:
        yield span


# -- root-span retention -------------------------------------------------------


class TraceBuffer:
    """A bounded ring of recent root spans (request span trees).

    The engine keeps one per server so ``status``/tests can inspect the
    stage breakdown of recent requests without any external collector.
    """

    def __init__(self, maxlen: int = 64) -> None:
        self._lock = threading.Lock()
        self._spans: Deque[Span] = deque(maxlen=max(1, int(maxlen)))
        self.recorded = 0

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            self.recorded += 1

    def spans(self) -> List[Span]:
        """Retained root spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained span trees as JSON-safe dicts, newest last."""
        spans = self.spans()
        if limit is not None:
            limit = int(limit)
            spans = spans[-limit:] if limit > 0 else []
        return [span.to_dict() for span in spans]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
