"""Cooperative end-to-end deadlines.

The service server parses a client-supplied relative deadline, converts it
to an absolute :func:`time.monotonic` instant, and runs the request inside
:func:`deadline_scope`.  Long compute loops — the grouped-BFS density pass
and the progressive top-k round loop — call :func:`checkpoint` at natural
boundaries; once the instant passes, the checkpoint raises
:class:`~repro.exceptions.DeadlineExceededError` and the request unwinds
(the server maps it to a retryable 408, leases and caches release via the
normal ``finally`` paths).

The scope is a :class:`~contextvars.ContextVar`, so deadlines are
per-thread (the server handles each connection in its own thread) and cost
one context-variable read when no deadline is set.  Density threads run in
a copy of the request's context
(:func:`~repro.service.pool.pooled_density_matrix`), so the request's
deadline cancels them too.  :func:`checkpoint` is late-bound by callers (``deadlines.checkpoint()``)
so the CI fault-seam overhead guard can patch it out to measure its cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.exceptions import DeadlineExceededError

__all__ = ["deadline_scope", "checkpoint", "current_deadline", "remaining"]

_DEADLINE: ContextVar[Optional[float]] = ContextVar("tesc_deadline", default=None)


@contextmanager
def deadline_scope(at: Optional[float]) -> Iterator[None]:
    """Run the body with an absolute monotonic deadline (``None`` = none).

    Nested scopes tighten: the effective deadline is the minimum of the
    enclosing one and ``at``, so an outer request budget can never be
    extended by an inner scope.
    """
    current = _DEADLINE.get()
    if at is None:
        effective = current
    elif current is None:
        effective = at
    else:
        effective = min(current, at)
    token = _DEADLINE.set(effective)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def current_deadline() -> Optional[float]:
    """The absolute monotonic deadline in effect, or ``None``."""
    return _DEADLINE.get()


def remaining() -> Optional[float]:
    """Seconds left before the deadline (may be negative), or ``None``."""
    at = _DEADLINE.get()
    if at is None:
        return None
    return at - time.monotonic()


def checkpoint() -> None:
    """Raise :class:`DeadlineExceededError` if the deadline has passed."""
    at = _DEADLINE.get()
    if at is not None and time.monotonic() > at:
        raise DeadlineExceededError(
            f"deadline exceeded by {time.monotonic() - at:.3f}s"
        )
