"""The unified public façade: ``open_session`` / :class:`Session`.

One entry point fronts every engine in the package.  A session wraps a
snapshot-isolated :class:`~repro.service.engine.ServiceEngine` over one
attributed graph and exposes the whole HTAP surface:

* :meth:`Session.rank` / :meth:`Session.topk` — analytical reads, each
  pinned at admission to one epoch's copy-on-write snapshot and answered
  with the epoch it was computed at;
* :meth:`Session.commit` — transactional delta batches (edges and event
  occurrences); commits never block readers and readers never block
  commits;
* :meth:`Session.snapshot` / :meth:`Session.at_epoch` — frozen state
  handles: ``snapshot()`` returns the current epoch's graph, ``at_epoch(e)``
  returns a leased view that keeps epoch ``e`` readable (and its retired
  CSR rows alive) until the view is closed;
* :meth:`Session.reference_ranking` — the from-scratch serial oracle every
  session answer is bit-identical to at the same epoch and seed.

Example
-------
>>> from repro import open_session, TescConfig
>>> from repro.graph.generators import community_ring_graph
>>> graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)
>>> events = {"a": range(0, 30), "b": range(10, 40), "c": range(160, 200)}
>>> with open_session(graph, TescConfig(sample_size=120, random_state=3),
...                   events=events) as session:
...     before = session.rank()
...     receipt = session.commit([("edge_add", 0, 200)])
...     after = session.rank()
>>> after["epoch"] == before["epoch"] + 1
True
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Union

from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.events.event_set import EventLayer
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.service.engine import ServiceEngine
from repro.streaming.delta import Delta, DeltaBatch
from repro.streaming.dynamic_graph import DynamicAttributedGraph

GraphLike = Union[AttributedGraph, Graph, CSRGraph]

#: Delta shapes commit() accepts per entry: a Delta, a protocol record dict,
#: or a compact tuple ("edge_add", u, v) / ("event_attach", event, node).
DeltaLike = Union[Delta, Mapping[str, Any], Sequence[Any]]


_TUPLE_OPS = {
    "edge_add": Delta.edge_add,
    "edge_remove": Delta.edge_remove,
    "event_attach": Delta.event_attach,
    "event_detach": Delta.event_detach,
}


def _as_records(deltas: Union[DeltaBatch, Iterable[DeltaLike]]) -> list:
    """Normalise every accepted delta shape to protocol records."""
    if isinstance(deltas, DeltaBatch):
        deltas = deltas.deltas
    records = []
    for delta in deltas:
        if isinstance(delta, Delta):
            records.append(delta.to_record())
        elif isinstance(delta, Mapping):
            records.append(dict(delta))
        else:
            op, *rest = delta
            build = _TUPLE_OPS.get(str(op))
            if build is None:
                raise ValueError(
                    f"unknown delta op {op!r}; expected one of "
                    f"{sorted(_TUPLE_OPS)}"
                )
            records.append(build(*rest).to_record())
    return records


class EpochView:
    """A leased, read-only view of one epoch.

    Obtained from :meth:`Session.at_epoch`.  While the view is open, the
    epoch's snapshot stays retained — :attr:`graph`, :meth:`rank`,
    :meth:`topk` and :meth:`reference_ranking` all read exactly that frozen
    state no matter how many commits land meanwhile.  Close the view (or use
    it as a context manager) to drop the lease.
    """

    def __init__(self, session: "Session", epoch: Optional[int]) -> None:
        self._session = session
        self._lease = None
        if isinstance(session.graph, DynamicAttributedGraph):
            self._lease = session.graph.pin(epoch)
            self.epoch = self._lease.epoch
        else:
            # Static graphs cannot travel; the engine validates the epoch.
            with session.engine._pinned(epoch) as (pinned, _graph):
                self.epoch = pinned

    @property
    def graph(self) -> AttributedGraph:
        """The frozen graph state this view reads."""
        return self._lease.graph if self._lease is not None else self._session.graph

    def rank(self, pairs="all", **kwargs) -> Dict[str, Any]:
        """:meth:`Session.rank` pinned at this view's epoch."""
        return self._session.rank(pairs, at_epoch=self.epoch, **kwargs)

    def topk(self, k: int, pairs="all", **kwargs) -> Dict[str, Any]:
        """:meth:`Session.topk` pinned at this view's epoch."""
        return self._session.topk(k, pairs, at_epoch=self.epoch, **kwargs)

    def reference_ranking(self, pairs="all", **kwargs):
        """The serial from-scratch oracle at this view's epoch."""
        return self._session.reference_ranking(
            pairs, at_epoch=self.epoch, **kwargs
        )

    def close(self) -> None:
        """Drop the lease (idempotent)."""
        if self._lease is not None:
            self._lease.release()

    def __enter__(self) -> "EpochView":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EpochView(epoch={self.epoch})"


class Session:
    """A live HTAP session over one attributed graph.

    Construct through :func:`open_session`.  All reads are snapshot-
    isolated: each call pins the requested epoch on entry, computes against
    that frozen state, and reports the epoch in its response — concurrent
    commits are never observed mid-read and never wait for readers.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        config: Optional[TescConfig] = None,
        workers: Optional[int] = None,
        **engine_options: Any,
    ) -> None:
        self.engine = ServiceEngine(
            graph, config=config, workers=workers, **engine_options
        )

    # -- state ----------------------------------------------------------------

    @property
    def graph(self) -> AttributedGraph:
        """The live graph this session serves."""
        return self.engine.graph

    @property
    def config(self) -> TescConfig:
        """The session's default configuration."""
        return self.engine.config

    @property
    def epoch(self) -> int:
        """The current commit epoch."""
        return self.engine.current_epoch()

    @property
    def dynamic(self) -> bool:
        """Whether the session accepts commits (dynamic graph underneath)."""
        return isinstance(self.engine.graph, DynamicAttributedGraph)

    # -- reads ----------------------------------------------------------------

    def rank(
        self,
        pairs="all",
        top_k: Optional[int] = None,
        sort_by: str = "score",
        on_insufficient: str = "keep",
        at_epoch: Optional[int] = None,
        **config_overrides: Any,
    ) -> Dict[str, Any]:
        """Rank event pairs at a pinned snapshot.

        Returns the service response dict: ``pairs`` (full-precision
        records), the ``epoch`` the answer was computed at, and cache
        counters.  Keyword overrides (``sample_size=...``,
        ``random_state=...``, ``alpha=...``) apply for this call
        only.
        """
        return self.engine.rank(
            pairs, top_k=top_k, sort_by=sort_by,
            config_overrides=config_overrides or None,
            on_insufficient=on_insufficient, at_epoch=at_epoch,
        )

    def topk(
        self,
        k: int,
        pairs="all",
        sort_by: str = "score",
        on_insufficient: str = "keep",
        at_epoch: Optional[int] = None,
        **config_overrides: Any,
    ) -> Dict[str, Any]:
        """Progressive top-k at a pinned snapshot (confidence-bound pruned)."""
        return self.engine.topk(
            k, pairs, sort_by=sort_by,
            config_overrides=config_overrides or None,
            on_insufficient=on_insufficient, at_epoch=at_epoch,
        )

    def reference_ranking(self, pairs="all", top_k=None, sort_by="score",
                          at_epoch: Optional[int] = None, **config_overrides):
        """From-scratch serial ranking at the pinned epoch (the oracle).

        What a fresh batch engine over the epoch's snapshot computes —
        every :meth:`rank` answer at the same epoch/config is bit-identical
        to it.
        """
        return self.engine.reference_ranking(
            pairs, top_k=top_k, sort_by=sort_by,
            config_overrides=config_overrides or None, at_epoch=at_epoch,
        )

    # -- writes ---------------------------------------------------------------

    def commit(self, deltas: Union[DeltaBatch, Iterable[DeltaLike]] = ()
               ) -> Dict[str, Any]:
        """Apply one delta batch; returns the commit receipt.

        Accepts :class:`~repro.streaming.delta.Delta` objects, protocol
        record dicts, compact ``(op, ...)`` tuples, or a whole
        :class:`~repro.streaming.delta.DeltaBatch`.  The receipt carries the
        post-commit ``epoch`` plus net effect counts; pass that epoch to
        :meth:`at_epoch` / ``rank(at_epoch=...)`` to read exactly the state
        this commit produced.  Never blocks readers.
        """
        return self.engine.commit(_as_records(deltas))

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> AttributedGraph:
        """The current epoch's frozen graph state.

        For dynamic graphs this is the epoch-memoised copy-on-write
        snapshot; the object stays valid as long as you hold it, regardless
        of later commits.  Static graphs return the live object.
        """
        graph = self.engine.graph
        if isinstance(graph, DynamicAttributedGraph):
            return graph.snapshot()
        return graph

    def at_epoch(self, epoch: Optional[int] = None) -> EpochView:
        """A leased read view of ``epoch`` (default: the current one).

        The view keeps the epoch's snapshot retained until closed; reading
        an epoch no lease retains raises
        :class:`~repro.exceptions.SnapshotExpiredError`.
        """
        return EpochView(self, epoch)

    # -- introspection / lifecycle --------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Engine status: epoch, versions, cache occupancy, MVCC counters."""
        return self.engine.describe()

    @property
    def metrics(self):
        """The session engine's :class:`~repro.obs.MetricsRegistry`.

        Lifetime counters (requests, cache hits/misses, snapshot pins) live
        here; ``session.metrics.snapshot()`` returns them as a plain dict
        and ``session.metrics.value(name)`` reads one.
        """
        return self.engine.metrics

    def close(self) -> None:
        """Release engine caches and close the write-ahead log."""
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session(epoch={self.epoch}, dynamic={self.dynamic}, "
            f"num_events={len(self.graph.event_names())})"
        )


def open_session(
    graph: GraphLike,
    config: Optional[TescConfig] = None,
    *,
    events: Union[EventLayer, Mapping[str, Iterable[int]], None] = None,
    labels: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    dynamic: Optional[bool] = None,
    **engine_options: Any,
) -> Session:
    """Open a :class:`Session` over ``graph`` — the package's front door.

    Parameters
    ----------
    graph:
        An :class:`~repro.events.attributed_graph.AttributedGraph` (static
        or dynamic), or a bare :class:`~repro.graph.adjacency.Graph` /
        :class:`~repro.graph.csr.CSRGraph` combined with ``events``.
    config:
        Default :class:`~repro.core.config.TescConfig` for the session.
    events / labels:
        Event occurrences and node labels when ``graph`` is a bare graph
        (ignored when an attributed graph is passed).
    workers:
        Density threads per BFS-counted matrix (1 = serial, bit-identical
        either way).
    dynamic:
        ``True``/``None`` (default) makes the session committable: a bare or
        static graph is wrapped in a
        :class:`~repro.streaming.dynamic_graph.DynamicAttributedGraph`
        *sharing* its CSR and event layer.  ``False`` serves a static graph
        read-only (commits are rejected).
    """
    if isinstance(graph, (Graph, CSRGraph)):
        attributed: AttributedGraph = AttributedGraph(graph, events, labels=labels)
    elif isinstance(graph, AttributedGraph):
        attributed = graph
    else:
        raise TypeError(
            "open_session needs an AttributedGraph, Graph or CSRGraph, "
            f"got {type(graph).__name__}"
        )
    wrap = dynamic if dynamic is not None else True
    if wrap and not isinstance(attributed, DynamicAttributedGraph):
        attributed = DynamicAttributedGraph(
            attributed.csr, attributed.events, labels=attributed.labels
        )
    return Session(attributed, config=config, workers=workers, **engine_options)
