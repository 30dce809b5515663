"""Deterministic fault-injection registry for chaos testing the service.

The service stack exposes a handful of *seams* — named points where a chaos
test can ask for a failure to happen:

* :data:`SOCKET_RECV` / :data:`SOCKET_SEND` — in the server's per-connection
  loop, after a request line is read / before a response is written
  (``drop`` closes the connection abruptly);
* :data:`WAL_FSYNC` — in :meth:`~repro.streaming.delta.WriteAheadLog`
  before fsync (``error`` raises ``OSError``);
* :data:`CHECKPOINT_FSYNC` — in
  :class:`~repro.storage.checkpoint.CheckpointStore` before each fsync of a
  checkpoint segment/manifest/directory (``error`` raises ``OSError``; the
  half-written temp directory is discarded and the previous checkpoint
  stays authoritative).

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s.  Each rule names a
seam, an action, and *which* invocations of that seam it fires on (1-based
``at``, for ``times`` consecutive matching invocations) — so plans read like
"fail the 2nd fsync" or "drop the socket after the 3rd response" and
replay identically run after run.  Arming is process-global
(:func:`arm` / :func:`disarm` / the :func:`armed` context manager); with no
plan armed every seam is a single ``None`` check, cheap enough to leave in
production code paths (guarded by the CI fault-seam overhead bar).

Invocation counters live in the plan, so the same plan object must not be
armed twice without :meth:`FaultPlan.reset`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "SOCKET_RECV",
    "SOCKET_SEND",
    "WAL_FSYNC",
    "CHECKPOINT_FSYNC",
    "KNOWN_SITES",
    "FaultRule",
    "FaultEvent",
    "FaultPlan",
    "arm",
    "disarm",
    "active",
    "armed",
    "inject",
]

SOCKET_RECV = "socket.recv"
SOCKET_SEND = "socket.send"
WAL_FSYNC = "wal.fsync"
CHECKPOINT_FSYNC = "checkpoint.fsync"

KNOWN_SITES = frozenset({SOCKET_RECV, SOCKET_SEND, WAL_FSYNC, CHECKPOINT_FSYNC})

#: Actions a rule may request.  ``drop`` is only meaningful at the socket
#: seams; ``error`` anywhere.
ACTIONS = frozenset({"drop", "error"})


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: fire ``action`` at seam ``site``.

    ``at`` is the 1-based index of the first *matching* invocation to fire
    on; the rule keeps firing for ``times`` consecutive matching invocations
    (so ``at=3, times=1`` reads "on the 3rd call").  ``match`` narrows which
    invocations count: every key must equal the context value the seam
    passes to :func:`inject` (e.g. ``match={"method": "stream"}`` on
    :data:`SOCKET_SEND` counts only stream responses).
    """

    site: str
    action: str = "error"
    at: int = 1
    times: int = 1
    match: Mapping[str, Any] = field(default_factory=dict)
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(KNOWN_SITES)}"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{sorted(ACTIONS)}"
            )
        if self.at < 1:
            raise ValueError("FaultRule.at is 1-based and must be >= 1")
        if self.times < 1:
            raise ValueError("FaultRule.times must be >= 1")

    def matches(self, context: Mapping[str, Any]) -> bool:
        return all(context.get(key) == value for key, value in self.match.items())


@dataclass(frozen=True)
class FaultEvent:
    """Record of one fired rule — the plan's audit trail for assertions."""

    site: str
    action: str
    invocation: int
    context: Tuple[Tuple[str, Any], ...]


class FaultPlan:
    """An armed set of rules with thread-safe deterministic counters."""

    def __init__(self, *rules: FaultRule) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self._lock = threading.Lock()
        self._site_counts: Dict[str, int] = {}
        self._rule_counts: Dict[int, int] = {}
        self.fired: List[FaultEvent] = []

    def reset(self) -> None:
        with self._lock:
            self._site_counts.clear()
            self._rule_counts.clear()
            self.fired.clear()

    def invocations(self, site: str) -> int:
        with self._lock:
            return self._site_counts.get(site, 0)

    def fired_at(self, site: str) -> List[FaultEvent]:
        with self._lock:
            return [event for event in self.fired if event.site == site]

    def fire(self, site: str, context: Mapping[str, Any]) -> Optional[FaultRule]:
        """Count this invocation and return the rule to apply, if any.

        Every rule whose ``match`` accepts the invocation advances its own
        counter; at most one rule fires (the first in declaration order
        whose window contains its count), so "fail on call 3" and "fail on
        call 7" coexist in one plan.
        """
        with self._lock:
            self._site_counts[site] = self._site_counts.get(site, 0) + 1
            winner: Optional[FaultRule] = None
            for index, rule in enumerate(self.rules):
                if rule.site != site or not rule.matches(context):
                    continue
                count = self._rule_counts.get(index, 0) + 1
                self._rule_counts[index] = count
                if winner is None and rule.at <= count < rule.at + rule.times:
                    winner = rule
                    self.fired.append(
                        FaultEvent(
                            site=site,
                            action=rule.action,
                            invocation=count,
                            context=tuple(sorted(context.items())),
                        )
                    )
            return winner


_ACTIVE: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def disarm() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def armed(*rules: FaultRule) -> Iterator[FaultPlan]:
    """``with faults.armed(FaultRule(...)) as plan:`` — disarms on exit."""
    plan = arm(FaultPlan(*rules))
    try:
        yield plan
    finally:
        disarm()


def inject(site: str, **context: Any) -> Optional[FaultRule]:
    """Seam entry point: returns the rule to apply, or ``None``.

    This is the no-op fast path — with nothing armed it is one global read
    and a ``None`` test.  Seams late-bind it (``faults.inject(...)``) so the
    benchmark guard can patch it out to measure the seams' cost.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, context)
