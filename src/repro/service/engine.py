"""The snapshot-isolated (MVCC) request executor behind the correlation server.

:class:`ServiceEngine` answers ``rank``/``topk``/``stream`` requests against
one (possibly dynamic) attributed graph under **pin-at-admission snapshot
isolation**: a read request resolves its epoch on entry, pins that epoch's
copy-on-write snapshot through the graph's lease table
(:mod:`repro.streaming.snapshots`), and computes entirely against the frozen
state — so commits never block readers and readers never block commits.
Every response carries the epoch it was computed at, and ``at_epoch``
requests re-read any epoch still retained by a lease.

Two layers of reuse keep the hot path cheap:

* **Epoch states** hold what depends only on ``(level, events, epoch)``:
  one :class:`EpochState` per key with the events' universe, its ``V^h``
  as Batch BFS enumerates it (so a fresh seed under Batch BFS draws
  without running the BFS again), the draws from that population, and
  the node-indexed density counts of every node any request at that state
  has counted.  Each state's :class:`~repro.sampling.cache.SampleMemo`
  keys its draws by the sampler config and sample size only and draws
  against the pinned snapshot, so every sample is bit-identical to what a
  freshly constructed in-process engine would draw at that graph state;
  ``rank`` and ``topk`` share it, and each top-k request runs the
  progressive engine over the memoised draw.  A new epoch's counts
  are advanced from the newest state the commit journal
  (:class:`~repro.streaming.dirty.DirtyTracker`) covers — structurally
  dirtied nodes struck out, event toggles applied by ``± 1`` — so ``rank``
  and ``topk`` BFS-count only the sampled nodes no state has filled (split
  across ``workers`` density threads when ``workers > 1``) and gather the
  rest.  A density matrix lives for one request;
* **Pair estimates** are the one per-pair cache, memoised by content: each
  pair is keyed by ``(pair, alpha, alternative)`` and the
  :func:`row_digest` of each of its two density rows (the row's nonzero
  reference-node ids and densities) — everything the estimate reads — so
  after a commit only the pairs whose inputs moved are Kendall-estimated
  again, in one population pass, whichever epoch, view or worker count
  asks.  A small row-digest index remembers each row's digest under the
  request's config digest, events and epoch, so a repeated ``rank`` finds
  its estimates with no universe, sample or matrix: the events and the
  epoch fix the universe, that key pins the draw and the graph state,
  hence the row, and any commit that could change a row lands at a
  different epoch.

For a dynamic graph the epoch *is* the graph's commit epoch
(:attr:`~repro.streaming.dynamic_graph.DynamicAttributedGraph.epoch` — one
bump per effective commit); static graphs keep an internal version-watching
counter and serve reads from the live object (nothing can move under them).
Commits serialise on a plain mutex and journal what they dirtied under it.

Every answer is bit-identical to the serial in-process engines
(:class:`~repro.core.batch.BatchTescEngine`,
:class:`~repro.core.topk.ProgressiveTopKEngine`) applied to a snapshot of
the graph at the same epoch with the same seed — the property the epoch
cache and HTAP suites assert under random commit/query interleavings.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, fields
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    BatchTescEngine,
    RankedPair,
    check_rank_options,
    ensure_uniform_sample,
    ensure_uniform_sampler,
    estimate_pair_list,
    event_universe,
    finalise_ranking,
    resolve_pair_spec,
)
from repro.core.config import TescConfig
from repro.core.density import DensityComputer, DensityMatrix, densities_from_counts
from repro.core.estimators import PairEstimateBatcher
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import (
    ConfigurationError,
    InsufficientSampleError,
    SnapshotExpiredError,
    UnknownEventError,
)
from repro.graph.traversal import BFSEngine
from repro.obs import (
    MetricsRegistry,
    SlowRequestLog,
    Span,
    TraceBuffer,
    stage,
    trace,
)
from repro.sampling.base import ReferenceSample
from repro.sampling.cache import SampleMemo
from repro.sampling.registry import sampler_key
from repro.service import pool
from repro.service.protocol import BadRequestError, UnavailableError
from repro.storage.checkpoint import CheckpointStore, digest_string
from repro.storage.recovery import RecoveryReport
from repro.streaming.delta import DeltaBatch, WriteAheadLog
from repro.streaming.dirty import DirtyTracker
from repro.streaming.dynamic_graph import DynamicAttributedGraph
from repro.utils import deadlines
from repro.utils.validation import resolve_workers

logger = logging.getLogger(__name__)

# benchmarks/ledger/traced_serve.py wraps this name at startup; nothing calls it.
estimate_matrix_pairs_sharded = estimate_pair_list

#: LRU bound of the content-keyed pair-estimate cache and, in rows, of the
#: row-digest index in front of it.
MAX_CACHED_RESULTS = 65536
#: LRU bound of each epoch state's sample memo.
MAX_CACHED_SAMPLES = 8
#: LRU bound of the epoch states: the newest epoch's plus one more (a
#: lagging ``at_epoch`` reader's, or the previous epoch's).
MAX_CACHED_TABLES = 2
#: How many recent request span trees :attr:`ServiceEngine.trace_buffer`
#: retains for introspection.
TRACE_BUFFER_SIZE = 64


def pair_record(pair: RankedPair) -> Dict[str, Any]:
    """One ranked pair as a JSON-safe record (all fields, exact floats)."""
    return {
        "rank": pair.rank,
        "event_a": pair.event_a,
        "event_b": pair.event_b,
        "score": pair.score,
        "z_score": pair.z_score,
        "p_value": pair.p_value,
        "verdict": pair.verdict.value,
        "num_reference_nodes": pair.num_reference_nodes,
        "degenerate": pair.degenerate,
        "insufficient": pair.insufficient,
    }


def row_digest(matrix: DensityMatrix, row: int) -> bytes:
    """Content digest of one density row: its nonzero reference nodes' ids
    and densities, in column order.

    A pair's estimate depends only on the multiset
    ``{(s_a(r), s_b(r)) : r ∈ supp a ∪ supp b}``, which the two rows'
    digests pin exactly (reference nodes are distinct), whatever columns
    outside that population the matrix holds.  Ids and densities are both
    8 bytes, so hashing them back to back is unambiguous.
    """
    densities = matrix.densities[row]
    present = np.flatnonzero(densities)
    digest = hashlib.blake2b(
        matrix.reference_nodes[present].astype(np.int64).tobytes(), digest_size=16
    )
    digest.update(densities[present].tobytes())
    return digest.digest()


class EpochState:
    """What every draw and gather at one ``(level, events, epoch)`` reads.

    ``universe`` is the events' union node set.  ``nodes`` is
    ``V^h_universe`` as Batch BFS enumerates it (same node order), filled
    on the first draw that needs it; every later fresh-seed draw at that
    state samples from it without a BFS.  ``draws`` memoises the samples
    drawn from that population.  ``counts[e, v]`` is
    ``|V_e ∩ V^h_v|`` and ``sizes[v]`` is ``|V^h_v|`` wherever
    ``filled[v]``; other entries are meaningless.  Values are at most
    ``|V|``, so int32 halves the table; gathers widen to int64.
    """

    def __init__(
        self,
        universe: np.ndarray,
        counts: np.ndarray,
        sizes: np.ndarray,
        filled: np.ndarray,
        draws: SampleMemo,
    ) -> None:
        self.universe = universe
        self.nodes: Optional[np.ndarray] = None
        self.draws = draws
        self.counts = counts
        self.sizes = sizes
        self.filled = filled


class ServiceEngine:
    """Snapshot-isolated ``rank``/``topk``/``stream`` execution over one graph.

    Parameters
    ----------
    graph:
        The graph to serve.  ``stream`` (delta commits) and ``at_epoch``
        time travel require a
        :class:`~repro.streaming.dynamic_graph.DynamicAttributedGraph`;
        a plain :class:`~repro.events.attributed_graph.AttributedGraph` is
        served read-only from the live object.
    config:
        Default :class:`~repro.core.config.TescConfig`; requests may
        override whitelisted fields per call.
    workers:
        Density threads per BFS-counted matrix
        (:func:`~repro.service.pool.pooled_density_matrix`; ``1`` = count in
        the request thread).  Estimates always run in the request thread.
        Answers are bit-identical for every worker count.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` to instrument into.  The
        default is a fresh enabled registry owned by this engine, so one
        server's counters reconcile exactly with its own request history;
        pass :data:`~repro.obs.NULL_REGISTRY` for a no-op build (the
        overhead benchmark's baseline).
    slow_request_seconds:
        Requests slower than this are emitted as JSON lines through the
        ``repro.obs.slowlog`` logger, span tree included (``None``
        disables the slow-request log).
    wal:
        Optional :class:`~repro.streaming.delta.WriteAheadLog` (or a path
        to open one at).  When set, ``stream`` commits are appended — CRC'd
        and fsynced — *before* they apply, so a killed process restarted
        with the same WAL replays back to the last committed epoch.  The
        engine does **not** replay on construction (callers replay before
        serving; see ``tesc serve --wal``).
    store:
        Optional :class:`~repro.storage.checkpoint.CheckpointStore` (or a
        directory path to open one at).  Enables :meth:`checkpoint`:
        full-state checkpoints cut off the commit path against a pinned
        snapshot epoch, followed by WAL compaction of the covered prefix.
        Like ``wal``, requires a dynamic graph.
    checkpoint_interval:
        Seconds between automatic background checkpoints (``None``/``0``
        disables the background thread; :meth:`checkpoint` stays callable).
    checkpoint_retain:
        Valid checkpoints kept after each successful new one.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        config: Optional[TescConfig] = None,
        workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_request_seconds: Optional[float] = None,
        wal: Optional[Any] = None,
        store: Optional[Any] = None,
        checkpoint_interval: Optional[float] = None,
        checkpoint_retain: int = 2,
    ) -> None:
        self.graph = graph
        self.config = config if config is not None else TescConfig()
        ensure_uniform_sampler(self.config, "the correlation service")
        self.workers = resolve_workers(workers)

        self._dynamic = isinstance(graph, DynamicAttributedGraph)
        self._commit_lock = threading.Lock()
        self._miss_lock = threading.Lock()
        self._epoch_lock = threading.Lock()
        self._epoch = 0
        self._seen_versions = self._graph_versions()

        if wal is not None and not self._dynamic:
            raise ConfigurationError(
                "a write-ahead log needs a dynamic graph (commits are what "
                "it records); construct the engine over a "
                "DynamicAttributedGraph or drop wal="
            )
        self._wal: Optional[WriteAheadLog] = (
            wal if wal is None or isinstance(wal, WriteAheadLog)
            else WriteAheadLog(wal)
        )
        if store is not None and not self._dynamic:
            raise ConfigurationError(
                "a checkpoint store needs a dynamic graph (epochs are what "
                "it checkpoints); construct the engine over a "
                "DynamicAttributedGraph or drop store="
            )
        self._store: Optional[CheckpointStore] = (
            store if store is None or isinstance(store, CheckpointStore)
            else CheckpointStore(store, retain=checkpoint_retain)
        )
        if self._store is not None:
            self._store.retain = max(1, int(checkpoint_retain))
        self._ckpt_lock = threading.Lock()
        self._last_checkpoint_epoch: Optional[int] = None
        self._recovery_report: Optional[RecoveryReport] = None
        self.checkpoint_interval = (
            float(checkpoint_interval) if checkpoint_interval else None
        )
        self._ckpt_stop = threading.Event()
        self._ckpt_thread: Optional[threading.Thread] = None
        # rid -> cached commit result: makes retried stream commits
        # idempotent (a lost response must not re-apply the batch).
        self._commit_rids: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._max_commit_rids = 1024

        # (pair, alpha, alternative, row_digest(a), row_digest(b)) ->
        # estimate: the one per-pair cache.  Any epoch, view or seed whose
        # two density rows were the same reuses the answer.
        self._estimates: "OrderedDict[tuple, RankedPair]" = OrderedDict()
        # (config digest, events, epoch, event) -> row_digest of that
        # event's density row, filled under _miss_lock; a rank's hit path
        # only reads it.
        self._digests: "OrderedDict[tuple, bytes]" = OrderedDict()
        # (level, events, epoch) -> EpochState, read and filled under
        # _miss_lock; a rank's hit path never touches it.
        self._states: "OrderedDict[tuple, EpochState]" = OrderedDict()
        # What each commit dirtied at the default level, per epoch: lets a
        # new epoch's counts advance from an older state's.
        self._journal = DirtyTracker(self.config.vicinity_level)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace_buffer = TraceBuffer(TRACE_BUFFER_SIZE)
        self.slow_log = SlowRequestLog(slow_request_seconds)
        self._instrument()
        if self._store is not None and self.checkpoint_interval:
            self._ckpt_thread = threading.Thread(
                target=self._checkpoint_loop,
                name="tesc-checkpoint",
                daemon=True,
            )
            self._ckpt_thread.start()

    def _instrument(self) -> None:
        """Register this engine's metric families on :attr:`metrics`."""
        m = self.metrics
        self._m_requests = m.counter(
            "tesc_requests_total", "Requests the engine executed, by method.",
            labels=("method",),
        )
        self._m_request_seconds = m.histogram(
            "tesc_request_seconds", "Request latency in seconds, by method.",
            labels=("method",),
        )
        self._m_pair_hits = m.counter(
            "tesc_pair_cache_hits_total",
            "Ranked pairs answered from the pair cache, with no sample or "
            "density matrix.",
        )
        self._m_pair_misses = m.counter(
            "tesc_pair_cache_misses_total",
            "Ranked pairs computed over a density matrix on pair-cache misses.",
        )
        self._m_coalesced = m.counter(
            "tesc_singleflight_coalesced_total",
            "Pair results adopted from a concurrent identical computation "
            "instead of being recomputed (single-flight re-check hits).",
        )
        self._m_matrices = m.counter(
            "tesc_matrices_computed_total",
            "Density matrices gathered for rank pair-cache misses (one per "
            "rank that misses).",
        )
        self._m_columns = m.counter(
            "tesc_density_columns_total",
            "Density columns of computed matrices and top-k requests, by "
            "outcome: BFS-counted (computed) or gathered from the count "
            "table (carried).",
            labels=("outcome",),
        )
        self._m_estimates = m.counter(
            "tesc_pair_estimates_total",
            "Pair results computed on pair-cache misses, by outcome: "
            "Kendall-estimated (estimated) or reused from an earlier "
            "estimate with identical density inputs (reused).",
            labels=("outcome",),
        )
        self._m_population_reads = m.counter(
            "tesc_population_total",
            "Reference populations a sample draw read, by outcome: "
            "enumerated by Batch BFS (computed) or held from an earlier draw "
            "at the same level, events and epoch (reused).",
            labels=("outcome",),
        )
        self._m_pins = m.counter(
            "tesc_snapshots_pinned_total",
            "Snapshot leases taken by reads (pin-at-admission).",
        )
        self._m_active_pins = m.gauge(
            "tesc_reader_pins",
            "Snapshot leases currently held by in-flight reads.",
        )
        self._m_commits = m.counter(
            "tesc_commits_total", "Delta batches committed."
        )
        self._m_commit_replays = m.counter(
            "tesc_commit_replays_total",
            "Stream commits answered from the rid dedup table (idempotent "
            "retries of a batch that already applied).",
        )
        self._m_wal_commits = m.counter(
            "tesc_wal_commits_total",
            "Delta batches durably appended to the write-ahead log.",
        )
        self._m_wal_failures = m.counter(
            "tesc_wal_failures_total",
            "Write-ahead appends that failed (commit rejected with 503, "
            "graph untouched).",
        )
        self._m_checkpoints = m.counter(
            "tesc_checkpoints_total",
            "Checkpoints successfully committed to the store.",
        )
        self._m_checkpoint_failures = m.counter(
            "tesc_checkpoint_failures_total",
            "Checkpoint attempts that failed (previous checkpoint stays "
            "authoritative).",
        )
        self._m_checkpoint_seconds = m.histogram(
            "tesc_checkpoint_seconds",
            "Checkpoint duration in seconds (serialise + fsync + rename + "
            "WAL compaction).",
        )
        self._m_wal_compacted = m.counter(
            "tesc_wal_compacted_bytes_total",
            "WAL bytes reclaimed by post-checkpoint compaction.",
        )
        self._m_recovery = m.counter(
            "tesc_recovery_total",
            "Cold starts by recovery path (checkpoint, fallback, "
            "full_replay, fresh).",
            labels=("path",),
        )
        self._m_boot_seconds = m.gauge(
            "tesc_boot_seconds",
            "Seconds each boot stage took: reading the edge list "
            "(read_edges) and the event file (read_events), and restoring "
            "the durable store (recover).",
            labels=("stage",),
        )
        # Each epoch state's memo counts into these; registered here so
        # they read 0 before the first draw.
        SampleMemo.register_metrics(m)
        m.gauge(
            "tesc_cached_pair_results",
            "Pair estimates held in the content-keyed pair cache.",
        ).set_function(lambda: len(self._estimates))
        m.gauge(
            "tesc_cached_row_digests",
            "Density-row digests held in the row-digest index.",
        ).set_function(lambda: len(self._digests))
        m.gauge(
            "tesc_cached_density_tables",
            "Epoch states (node-indexed density count tables) held.",
        ).set_function(lambda: len(self._states))
        self._m_stage_seconds = m.histogram(
            "tesc_stage_seconds",
            "Time a request spent in each stage of its span tree, by verb.",
            labels=("verb", "stage"),
        )
        if self._dynamic:
            m.gauge(
                "tesc_retained_epochs",
                "Epochs whose snapshots the lease table still holds.",
            ).set_function(lambda: len(self.graph.retained_epochs()))
            m.gauge(
                "tesc_retained_bytes",
                "CSR row bytes retained across kept snapshots.",
            ).set_function(self.graph.retained_bytes)
            m.gauge(
                "tesc_lease_sweeps",
                "Snapshot states the lease table has retired (lifetime).",
            ).set_function(lambda: self.graph.lease_sweeps)

    def _finish_trace(self, span: Span) -> None:
        """Root-span sink: retain the tree, emit the slow-request log."""
        self.trace_buffer.record(span)
        self.slow_log.maybe_log(span)

    def _observe_stages(self, span: Span) -> None:
        """Feed ``tesc_stage_seconds`` from a verb span's direct stages,
        summing a stage that ran several times (top-k rounds).  Called
        inside the open span, once its stages have ended."""
        totals: Dict[str, float] = {}
        for child in span.children:
            totals[child.name] = totals.get(child.name, 0.0) + (child.duration or 0.0)
        for name, seconds in totals.items():
            self._m_stage_seconds.labels(verb=span.name, stage=name).observe(seconds)

    # -- epoch plumbing ------------------------------------------------------

    def _graph_versions(self) -> Tuple[int, int]:
        return (
            int(getattr(self.graph, "structure_version", 0)),
            int(self.graph.events.version),
        )

    def current_epoch(self) -> int:
        """The epoch of the graph's current state.

        Dynamic graphs report their own commit epoch (one bump per effective
        commit, out-of-band mutations healed); static graphs keep an
        internal counter bumped whenever the version pair moves.  Monotonic
        and atomic either way: any observed epoch uniquely identifies one
        ``(structure_version, events.version)`` graph state, which is what
        makes the epoch a sound cache-key component.
        """
        if self._dynamic:
            return self.graph.epoch
        versions = self._graph_versions()
        with self._epoch_lock:
            if versions != self._seen_versions:
                self._seen_versions = versions
                self._epoch += 1
            return self._epoch

    @contextmanager
    def _pinned(
        self, at_epoch: Optional[int]
    ) -> Iterator[Tuple[int, AttributedGraph]]:
        """Pin-at-admission: the epoch and the graph state one read sees.

        Dynamic graphs yield a leased
        :class:`~repro.streaming.snapshots.GraphSnapshot`, released when
        the block exits; static graphs yield the live object.  ``at_epoch``
        on a static graph is accepted only for the current epoch.
        """
        if not self._dynamic:
            epoch = self.current_epoch()
            if at_epoch is not None and int(at_epoch) != epoch:
                raise SnapshotExpiredError(
                    f"epoch {int(at_epoch)} is not available on a static graph "
                    f"(current epoch is {epoch})"
                )
            yield epoch, self.graph
            return
        lease = self.graph.pin(at_epoch)
        self._m_pins.inc()
        self._m_active_pins.inc()
        try:
            yield lease.epoch, lease.graph
        finally:
            lease.release()
            self._m_active_pins.dec()

    # -- config plumbing -----------------------------------------------------

    def _merge_config(self, overrides: Dict[str, Any]) -> TescConfig:
        if not overrides:
            return self.config
        merged = dict(asdict(self.config))
        merged.update(overrides)
        try:
            cfg = TescConfig(**merged)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"invalid config override: {exc}") from exc
        ensure_uniform_sampler(cfg, "the correlation service")
        return cfg

    @staticmethod
    def _config_digest(cfg: TescConfig, persistent: bool = False) -> tuple:
        """The config identity tuple checkpoints key on.

        Non-int seeds (e.g. a ``Generator``) are tokenised by ``id()`` for
        in-process keys — distinct objects draw distinct streams, so they
        must not share a memo.  ``persistent=True`` swaps in a stable
        sentinel: ``id()`` changes across processes, and a digest written
        into a checkpoint manifest must still match the same config after a
        restart or every checkpoint would be rejected at boot.
        """
        items = {
            field.name: getattr(cfg, field.name)
            for field in fields(cfg) if field.name != "random_state"
        }
        # Fields retired from TescConfig, folded in at the only values they
        # can still take so digests persisted in checkpoint manifests by
        # earlier versions keep matching and their checkpoints stay valid.
        items.update(
            kendall_crossover=None, kendall_kernel="auto",
            topk_confidence=0.995, topk_bound="asymptotic",
        )
        # The in-process token is the one sample keys use (sampler_key):
        # the id() of the live seed object on the config.
        seed = cfg.random_state
        if persistent and not (seed is None or isinstance(seed, int)):
            seed_token: object = "unseeded-object"
        else:
            seed_token = sampler_key(cfg)[-1]
        return tuple(sorted(items.items())) + (("random_state", seed_token),)

    # -- rank ----------------------------------------------------------------

    def rank(
        self,
        pairs="all",
        top_k: Optional[int] = None,
        sort_by: str = "score",
        config_overrides: Optional[Dict[str, Any]] = None,
        on_insufficient: str = "keep",
        at_epoch: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Rank ``pairs`` at a pinned snapshot, serving cached results.

        Bit-identical to ``BatchTescEngine(snapshot, cfg).rank_pairs(...)``
        at the pinned epoch: hits and misses alike derive from the memoised
        fresh-sampler draw over the request universe.  ``at_epoch=None``
        pins the current epoch; an explicit epoch re-reads that state as
        long as some lease still retains it
        (:class:`~repro.exceptions.SnapshotExpiredError` otherwise).
        Commits never block this call and it never blocks commits.
        """
        with trace("rank", sink=self._finish_trace) as span:
            check_rank_options(sort_by, on_insufficient)
            cfg = self._merge_config(config_overrides or {})
            self._m_requests.labels(method="rank").inc()
            with self._pinned(at_epoch) as (epoch, graph):
                deadlines.checkpoint()
                pair_list = resolve_pair_spec(graph.event_names(), pairs)
                events = tuple(sorted({event for pair in pair_list for event in pair}))
                # Surfaces unknown events before any sampling work happens.
                for event in events:
                    if event not in graph.events:
                        raise UnknownEventError(event)
                # What decides every row of the request's matrix: the
                # config (sampler, seed, level, size, decision), the events
                # and the graph state, which together fix the universe.
                draw_key = (self._config_digest(cfg), events, epoch)

                by_pair = self._cached_pairs(draw_key, pair_list, cfg)
                missing = [pair for pair in pair_list if pair not in by_pair]
                hits = len(pair_list) - len(missing)
                self._m_pair_hits.inc(hits)
                if missing:
                    computed = self._compute_pairs(graph, cfg, draw_key, missing)
                    by_pair.update(computed)
                    self._m_pair_misses.inc(len(missing))
                results = [by_pair[pair] for pair in pair_list]
                if on_insufficient == "raise":
                    for pair in results:
                        if pair.insufficient:
                            raise InsufficientSampleError(
                                f"pair ({pair.event_a!r}, {pair.event_b!r}) has only "
                                f"{pair.num_reference_nodes} reference nodes in the "
                                "shared sample"
                            )
                ranked = finalise_ranking(results, sort_by, top_k)
            span.tags["pairs"] = len(pair_list)
            span.tags["epoch"] = epoch
            response = {
                "pairs": [pair_record(pair) for pair in ranked],
                "epoch": epoch,
                "sort_by": sort_by,
                "alpha": cfg.alpha,
                "vicinity_level": cfg.vicinity_level,
                "cached_pairs": hits,
                "computed_pairs": len(missing),
            }
            self._observe_stages(span)
        self._m_request_seconds.labels(method="rank").observe(span.duration)
        return response

    def _cached_pairs(
        self,
        draw_key: tuple,
        pairs: Sequence[Tuple[str, str]],
        cfg: TescConfig,
    ) -> Dict[Tuple[str, str], RankedPair]:
        """The pairs whose estimate under ``draw_key`` is cached: both rows'
        digests are in the index and the pair cache holds their content key.

        Exactly what the miss path would return, since the matrix it would
        gather has the same rows.  One digest lookup per event of
        ``draw_key``, then one content lookup per pair; reads only, so it
        needs no lock.
        """
        _config, events, _epoch = draw_key
        known = {event: self._digests.get(draw_key + (event,)) for event in events}
        found: Dict[Tuple[str, str], RankedPair] = {}
        for pair in pairs:
            digest_a, digest_b = known[pair[0]], known[pair[1]]
            if digest_a is None or digest_b is None:
                continue
            cached = self._estimates.get(
                (pair, cfg.alpha, cfg.alternative, digest_a, digest_b)
            )
            if cached is not None:
                found[pair] = cached
        return found

    def _compute_pairs(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        draw_key: tuple,
        missing: List[Tuple[str, str]],
    ) -> Dict[Tuple[str, str], RankedPair]:
        """Estimate the cache-missing pairs against ``graph`` and record them.

        Serialised by ``_miss_lock`` so concurrent identical requests
        compute the shared sample and matrix once; the caches are
        re-checked under the lock for pairs another thread just filled.
        ``graph`` is the caller's pinned snapshot (or the live static
        graph), so a commit landing mid-computation changes nothing here.
        The matrix is gathered for this call only: each row a pair reads is
        hashed once and its :func:`row_digest` recorded in the index under
        ``draw_key``, pairs whose two digests and decision config match an
        earlier estimate reuse it, and only the rest are estimated, in one
        population pass.
        """
        _config, events, epoch = draw_key
        with self._miss_lock:
            computed = self._cached_pairs(draw_key, missing, cfg)
            if computed:
                self._m_coalesced.inc(len(computed))
            still_missing = [pair for pair in missing if pair not in computed]
            if not still_missing:
                return computed

            state, sample = self._sample(graph, cfg, events, epoch)
            matrix = self._gather_columns(
                graph, cfg, events, state, np.asarray(sample.nodes, dtype=np.int64)
            )
            self._m_matrices.inc()
            row_of = {event: row for row, event in enumerate(events)}
            # A pair's estimate is a function of its two density rows'
            # nonzero entries plus the decision config: key on exactly that,
            # so any epoch, view, seed or worker count that feeds the same
            # inputs reuses the answer.
            digests: Dict[str, bytes] = {}
            for event in dict.fromkeys(event for pair in still_missing for event in pair):
                digest = digests[event] = row_digest(matrix, row_of[event])
                row_key = draw_key + (event,)
                self._digests[row_key] = digest
                self._digests.move_to_end(row_key)
            while len(self._digests) > MAX_CACHED_RESULTS:
                self._digests.popitem(last=False)
            keys: Dict[Tuple[str, str], tuple] = {}
            pending: List[Tuple[str, str]] = []
            for pair in still_missing:
                key = keys[pair] = (
                    pair, cfg.alpha, cfg.alternative, digests[pair[0]], digests[pair[1]],
                )
                reused = self._estimates.get(key)
                if reused is not None:
                    self._estimates.move_to_end(key)
                    computed[pair] = reused
                else:
                    pending.append(pair)
            self._m_estimates.labels(outcome="reused").inc(
                len(still_missing) - len(pending)
            )
            self._m_estimates.labels(outcome="estimated").inc(len(pending))
            if pending:
                fresh = self._estimate(matrix, row_of, pending, cfg)
                for pair_result in fresh:
                    pair = pair_result.events
                    computed[pair] = pair_result
                    self._estimates[keys[pair]] = pair_result
                while len(self._estimates) > MAX_CACHED_RESULTS:
                    self._estimates.popitem(last=False)
            return computed

    def _estimate(
        self,
        matrix: DensityMatrix,
        row_of: Dict[str, int],
        pairs: List[Tuple[str, str]],
        cfg: TescConfig,
    ) -> List[RankedPair]:
        """Estimate ``pairs`` over ``matrix`` in the request thread.

        The batcher's row encodings, like the matrix, live only as long as
        the request.  Insufficient pairs come back as insufficient records
        even for "raise" requests; the caller raises after assembly, and
        "keep" requests for the same pair still hit the cache.
        """
        with stage("estimate", pairs=len(pairs)):
            deadlines.checkpoint()
            return estimate_pair_list(
                pairs, row_of, PairEstimateBatcher(matrix.densities), cfg, "keep"
            )

    def _sample(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        events: Tuple[str, ...],
        epoch: int,
    ) -> Tuple[EpochState, ReferenceSample]:
        """The state of ``(level, events, epoch)`` and its memoised sample,
        checked uniform.

        A memo miss under a Batch BFS sampler draws from the state's
        enumerated population, enumerating it on the state's first draw;
        other samplers draw as they always do.  ``rank`` gathers a matrix
        for this draw only on a pair-cache miss, and ``topk`` on every
        request.  Callers hold ``_miss_lock``.
        """
        state = self._state(graph, int(cfg.vicinity_level), events, epoch)

        def population() -> np.ndarray:
            if state.nodes is None:
                state.nodes = BFSEngine(graph.csr).multi_source_vicinity(
                    state.universe, int(cfg.vicinity_level)
                )
                self._m_population_reads.labels(outcome="computed").inc()
            else:
                self._m_population_reads.labels(outcome="reused").inc()
            return state.nodes

        with stage("sampling"):
            sample = state.draws.sample(
                graph, cfg, state.universe, population=population
            )
        ensure_uniform_sample(sample, cfg.sampler)
        return state, sample

    def _gather_columns(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        events: Tuple[str, ...],
        state: EpochState,
        nodes: np.ndarray,
    ) -> DensityMatrix:
        """The density matrix of ``nodes`` (columns in that order) at the
        state's epoch.

        Only the nodes the state has not filled are BFS-counted (and filled
        in); every column is then gathered from the state's table, and the
        floats come from :func:`~repro.core.density.densities_from_counts`,
        so the matrix is bit-identical to a full pass whichever columns
        were counted before.  Callers hold ``_miss_lock``.
        """
        with stage("density", workers=self.workers):
            missing = nodes[~state.filled[nodes]]
            if missing.size:
                fresh = self._count_columns(graph, cfg, events, missing)
                state.counts[:, missing] = fresh.counts
                state.sizes[missing] = fresh.vicinity_sizes
                state.filled[missing] = True
            self._m_columns.labels(outcome="computed").inc(missing.size)
            self._m_columns.labels(outcome="carried").inc(nodes.size - missing.size)
            counts = state.counts[:, nodes].astype(np.int64)
            sizes = state.sizes[nodes].astype(np.int64)
            return DensityMatrix(
                reference_nodes=nodes,
                densities=densities_from_counts(counts, sizes),
                counts=counts,
                vicinity_sizes=sizes,
                level=int(cfg.vicinity_level),
            )

    def _state(
        self,
        graph: AttributedGraph,
        level: int,
        events: Tuple[str, ...],
        epoch: int,
    ) -> EpochState:
        """The state of ``(level, events, epoch)``, made on a miss.

        A new state's counts advance a copy of the newest older state's
        with the same level and events whose later commits the journal
        covers: nodes any of those commits dirtied structurally are struck
        out, and each journaled toggle of a state event shifts that event's
        count on the filled nodes of ``V^h_x``.  That vicinity is taken on
        ``graph`` — the reader's own snapshot — which is sound because a
        node still filled has the same vicinity at every epoch of the span.
        The universe, population and draws are the new epoch's own.

        The counts start empty when nothing qualifies: a span with an
        unjournaled epoch (recovery replay, an out-of-band ``graph.apply``,
        an aged-out entry), an ``at_epoch`` older than every state, or a
        request ``vicinity_level`` override.  Callers hold ``_miss_lock``.
        """
        key = (level, events, epoch)
        state = self._states.get(key)
        if state is not None:
            self._states.move_to_end(key)
            return state
        state = self._states[key] = EpochState(
            event_universe(graph, events),
            *self._advanced_counts(graph, level, events, epoch),
            draws=SampleMemo(MAX_CACHED_SAMPLES, metrics=self.metrics),
        )
        while len(self._states) > MAX_CACHED_TABLES:
            self._states.popitem(last=False)
        return state

    def _advanced_counts(
        self,
        graph: AttributedGraph,
        level: int,
        events: Tuple[str, ...],
        epoch: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh ``(counts, sizes, filled)`` at ``epoch``: advanced from an
        older state's, or empty."""
        # The journal holds dirty sets at the engine's level only.
        bases = [] if level != self._journal.level else sorted(
            (
                (key[2], state) for key, state in self._states.items()
                if key[:2] == (level, events) and key[2] < epoch
            ),
            key=lambda entry: entry[0],
            reverse=True,
        )
        for base_epoch, base in bases:
            regions = self._journal.between(base_epoch, epoch)
            if regions is not None:
                break
        else:
            return (
                np.zeros((len(events), graph.num_nodes), dtype=np.int32),
                np.zeros(graph.num_nodes, dtype=np.int32),
                np.zeros(graph.num_nodes, dtype=bool),
            )

        # Copies: the base state stays exact for readers of its epoch.
        counts, sizes, filled = base.counts.copy(), base.sizes.copy(), base.filled.copy()
        for region in regions:
            filled[region.structure] = False
        row_of = {event: row for row, event in enumerate(events)}
        toggles = [
            (row_of[event], node, sign)
            for region in regions
            for event, node, sign in region.toggles
            if event in row_of
        ]
        if toggles and filled.any():
            engine = BFSEngine(graph.csr)
            for row, node, sign in toggles:
                vicinity = engine.vicinity(node, level)
                counts[row, vicinity[filled[vicinity]]] += sign
        return counts, sizes, filled

    def _count_columns(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        events: Tuple[str, ...],
        nodes: np.ndarray,
    ) -> DensityMatrix:
        """BFS-count the density columns of ``nodes`` (thread-sharded when
        ``workers > 1``)."""
        indicators = graph.indicator_matrix(list(events))
        if self.workers > 1:
            # Called directly, not through DensityComputer(workers=...):
            # benchmarks/ledger/traced_serve.py times both functions, and
            # nesting them would count these columns twice.
            matrix, _bfs_calls = pool.pooled_density_matrix(
                graph.csr, indicators, nodes, cfg.vicinity_level, self.workers
            )
            return matrix
        computer = DensityComputer(graph.csr)
        return computer.density_matrix(nodes, indicators, cfg.vicinity_level)

    # -- topk ----------------------------------------------------------------

    def topk(
        self,
        k: int,
        pairs="all",
        sort_by: str = "score",
        config_overrides: Optional[Dict[str, Any]] = None,
        on_insufficient: str = "keep",
        at_epoch: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Progressive top-k at a pinned snapshot over the memoised sample.

        A fresh :class:`~repro.core.topk.ProgressiveTopKEngine` over the
        pinned snapshot, fed the epoch's memoised draw (the one ``rank``
        reads) and that draw's full-budget density matrix gathered from the
        epoch state in draw order, returns exactly what an in-process run
        at that epoch would.  Responses are not cached.  Same epoch
        semantics as :meth:`rank`.
        """
        from repro.core.topk import ProgressiveTopKEngine, draw_order

        with trace("topk", sink=self._finish_trace, k=int(k)) as span:
            cfg = self._merge_config(config_overrides or {})
            self._m_requests.labels(method="topk").inc()
            with self._pinned(at_epoch) as (epoch, graph):
                span.tags["epoch"] = epoch
                pair_list = resolve_pair_spec(graph.event_names(), pairs)
                events = tuple(sorted({event for pair in pair_list for event in pair}))
                # The epoch states are shared with rank's misses, which
                # hold this lock.
                with self._miss_lock:
                    state, sample = self._sample(graph, cfg, events, epoch)
                    matrix = self._gather_columns(
                        graph, cfg, events, state, draw_order(sample)
                    )
                engine = ProgressiveTopKEngine(
                    graph, cfg, workers=self.workers, metrics=self.metrics
                )
                ranking = engine.top_k(
                    int(k), pair_list, sort_by=sort_by,
                    on_insufficient=on_insufficient, sample=sample,
                    matrix=matrix,
                )
            response = {
                "pairs": [pair_record(pair) for pair in ranking],
                "epoch": epoch,
                "k": int(k),
                "sort_by": sort_by,
                "pairs_pruned": ranking.topk_stats.pairs_pruned,
                "pairs_survived": ranking.topk_stats.pairs_survived,
            }
            self._observe_stages(span)
        self._m_request_seconds.labels(method="topk").observe(span.duration)
        return response

    # -- stream --------------------------------------------------------------

    def commit(self, delta_records: Sequence[Dict[str, Any]],
               rid: Optional[str] = None) -> Dict[str, Any]:
        """Apply one delta batch and report its net effect.

        Commits serialise on a plain mutex and **never wait for readers**:
        in-flight ``rank``/``topk`` calls keep computing against their
        pinned snapshots while the new epoch is published, and every later
        read admits at the bumped epoch.  A cached ``(pair, epoch)`` entry
        can therefore never be served stale — the commit that might have
        invalidated it lives at a different epoch.  Under the same mutex
        the commit journals its structural dirty set and effective event
        toggles, which is what lets the next read's count table advance
        from the previous epoch's.

        ``rid`` makes the commit idempotent: a rid already in the dedup
        table returns the recorded result (marked ``"replayed": true``)
        without touching the graph, which is what lets a client whose
        response was lost in flight retry a ``stream`` safely.  With a WAL
        attached, the batch is durably appended — CRC'd and fsynced —
        before it applies; an append failure rejects the commit with a
        retryable 503 and leaves both the log and the graph unchanged.
        """
        if not self._dynamic:
            raise BadRequestError(
                "this server is static: stream commits need a dynamic graph "
                "(construct the engine over a DynamicAttributedGraph)"
            )
        from repro.streaming.delta import Delta

        try:
            batch = DeltaBatch(
                deltas=tuple(Delta.from_record(record) for record in delta_records)
            )
        except Exception as exc:
            raise BadRequestError(f"invalid delta batch: {exc}") from exc
        self._m_requests.labels(method="commit").inc()
        with trace("commit", sink=self._finish_trace,
                   deltas=len(batch.deltas)) as span:
            with self._commit_lock:
                if rid is not None:
                    replayed = self._commit_rids.get(rid)
                    if replayed is not None:
                        self._m_commit_replays.inc()
                        result = dict(replayed)
                        result["replayed"] = True
                        span.tags["replayed"] = True
                        return result
                # Before the WAL append: the log must never durably record
                # a batch the graph would then reject.
                batch.validate(self.graph.num_nodes)
                if self._wal is not None:
                    with stage("wal"):
                        try:
                            self._wal.append_batch(batch)
                        except OSError as exc:
                            self._m_wal_failures.inc()
                            raise UnavailableError(
                                f"write-ahead log append failed: {exc}"
                            ) from exc
                    self._m_wal_commits.inc()
                self._m_commits.inc()
                with stage("apply"):
                    applied = self.graph.apply(batch)
                with stage("journal"):
                    self._journal.record(applied)
                epoch = applied.epoch
                result = {
                    "epoch": epoch,
                    "structure_version": applied.structure_version,
                    "added_edges": len(applied.added_edges),
                    "removed_edges": len(applied.removed_edges),
                    "attached": len(applied.attached),
                    "detached": len(applied.detached),
                    "changed": applied.changed,
                }
                if rid is not None:
                    self._commit_rids[rid] = dict(result)
                    while len(self._commit_rids) > self._max_commit_rids:
                        self._commit_rids.popitem(last=False)
            self._observe_stages(span)
        self._m_request_seconds.labels(method="commit").observe(span.duration)
        return result

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, force: bool = False) -> Dict[str, Any]:
        """Cut one full-state checkpoint and compact the bridged WAL prefix.

        The epoch's snapshot is built *before* the commit lock is taken —
        the first pin of an epoch copies the event layer, an O(graph) job
        that must not stall commits — so the lock is held only to confirm
        the epoch did not move and to capture the WAL coordinates and
        vicinity-index columns that belong to it.  If a commit slips in
        between, the stale snapshot is dropped and rebuilt (bounded: after
        a few lost races the pin happens under the lock, accepting a
        one-off stall rather than livelocking behind a hot write stream).
        Serialisation, fsync, and the atomic rename all run against the
        leased snapshot with commits flowing freely.  A repeat call at an
        unchanged epoch is skipped unless ``force``.  After a successful
        commit, old checkpoints are pruned to the retain bound and the WAL
        is compacted only up to the oldest *retained* checkpoint's coverage,
        so every fallback candidate stays able to bridge to the surviving
        tail.  Raises :class:`~repro.service.protocol.UnavailableError`
        (previous checkpoint intact) when a write or fsync fails.
        """
        if self._store is None:
            raise BadRequestError(
                "this server has no checkpoint store (start with --store)"
            )
        with self._ckpt_lock:
            start = time.monotonic()
            lease = None
            attempts = 0
            while lease is None:
                attempts += 1
                prebuilt = self.graph.pin() if attempts <= 3 else None
                with self._commit_lock:
                    if prebuilt is not None and self.graph.epoch != prebuilt.epoch:
                        pass  # a commit landed mid-prebuild: retry below
                    else:
                        lease = (
                            prebuilt if prebuilt is not None
                            else self.graph.pin()
                        )
                        epoch = lease.epoch
                        if not force and self._last_checkpoint_epoch == epoch:
                            lease.release()
                            return {
                                "skipped": True,
                                "reason": f"epoch {epoch} already checkpointed",
                                "epoch": epoch,
                            }
                        wal_batches = (
                            self._wal.total_batches
                            if self._wal is not None else 0
                        )
                        wal_offset = (
                            self._wal.committed_offset
                            if self._wal is not None else 0
                        )
                        index = self.graph._vicinity_index
                        vicinity = (
                            index.export_sizes() if index is not None else None
                        )
                if lease is None:
                    prebuilt.release()
            try:
                state = lease.graph.checkpoint_state()
                digest = digest_string(
                    self._config_digest(self.config, persistent=True)
                )
                with trace("checkpoint", sink=self._finish_trace) as span:
                    span.tags["epoch"] = epoch
                    try:
                        info = self._store.write(
                            state,
                            config_digest=digest,
                            wal_batches=wal_batches,
                            wal_offset=wal_offset,
                            vicinity_sizes=vicinity,
                        )
                    except OSError as exc:
                        self._m_checkpoint_failures.inc()
                        raise UnavailableError(
                            f"checkpoint failed: {exc}"
                        ) from exc
            finally:
                lease.release()
            pruned = self._store.prune()
            reclaimed = 0
            if self._wal is not None:
                # Compact only the prefix every *retained* checkpoint still
                # covers: if the newest corrupts on disk later, the older
                # fallback must be able to bridge to the surviving tail —
                # recovery rejects any checkpoint that cannot.
                floor = self._store.retained_coverage()
                try:
                    if floor is not None:
                        reclaimed = self._wal.compact(
                            self._wal.offset_of_total(floor)
                        )
                except OSError as exc:
                    # The checkpoint landed; an uncompacted WAL only costs
                    # disk, and recovery handles the overlap by total batch
                    # index, so this is best-effort.
                    logger.warning(
                        "WAL compaction after %s failed: %s", info.name, exc
                    )
            duration = time.monotonic() - start
            self._last_checkpoint_epoch = epoch
            self._m_checkpoints.inc()
            self._m_checkpoint_seconds.observe(duration)
            self._m_wal_compacted.inc(reclaimed)
            return {
                "skipped": False,
                "checkpoint": info.name,
                "epoch": epoch,
                "wal_batches": wal_batches,
                "nbytes": info.nbytes,
                "reclaimed_bytes": reclaimed,
                "pruned": pruned,
                "duration_seconds": duration,
            }

    def _checkpoint_loop(self) -> None:
        while not self._ckpt_stop.wait(self.checkpoint_interval):
            try:
                self.checkpoint()
            except UnavailableError as exc:
                logger.warning("background checkpoint failed: %s", exc)
            except Exception:
                logger.exception("background checkpoint crashed")

    def record_recovery(self, report: RecoveryReport) -> None:
        """Register the boot-time recovery outcome (metrics + status)."""
        self._recovery_report = report
        self._m_recovery.labels(path=report.path).inc()
        if report.checkpoint is not None and report.replayed_batches == 0:
            # The restored epoch IS the checkpointed epoch; skip the next
            # background checkpoint until a commit moves the graph.
            self._last_checkpoint_epoch = report.restored_epoch

    def record_boot(self, stage: str, seconds: float) -> None:
        """Register how long one boot stage took (``tesc_boot_seconds``)."""
        self._m_boot_seconds.labels(stage=stage).set(seconds)

    # -- introspection / lifecycle -------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Status snapshot (epoch, versions, cache occupancy, counters)."""
        structure_version, events_version = self._graph_versions()
        payload = {
            "epoch": self.current_epoch(),
            "structure_version": structure_version,
            "events_version": events_version,
            "num_events": len(self.graph.event_names()),
            "num_nodes": self.graph.num_nodes,
            "num_edges": self.graph.num_edges,
            "workers": self.workers,
            "dynamic": self._dynamic,
            "mvcc": self._dynamic,
            "cached_pair_results": len(self._estimates),
            "cached_row_digests": len(self._digests),
            # Unlocked: list() copies the states in one step, so a miss
            # evicting one cannot break the iteration.
            "cached_samples": sum(
                state.draws.num_cached for state in list(self._states.values())
            ),
            "metrics": self.metrics.snapshot(),
        }
        if self._wal is not None:
            payload["wal"] = {
                "path": self._wal.path,
                "batches": len(self._wal.batches),
                "total_batches": self._wal.total_batches,
                "recovered_batches": self._wal.recovered_batches,
                "truncated_bytes": self._wal.truncated_bytes,
                "compacted_batches": self._wal.compacted_batches,
                "compacted_bytes": self._wal.compacted_bytes,
            }
        if self._store is not None:
            payload["storage"] = {
                "root": self._store.root,
                "checkpoints": self._store.list_checkpoints(),
                "retain": self._store.retain,
                "checkpoint_interval": self.checkpoint_interval,
                "last_checkpoint_epoch": self._last_checkpoint_epoch,
                "recovery": (
                    self._recovery_report.describe()
                    if self._recovery_report is not None else None
                ),
            }
        if self._dynamic:
            payload["retained_epochs"] = self.graph.retained_epochs()
            payload["retained_bytes"] = self.graph.retained_bytes()
        return payload

    def reference_ranking(self, pairs="all", top_k=None, sort_by="score",
                          config_overrides=None, at_epoch=None):
        """A from-scratch serial ranking at the pinned graph state.

        Test/debug helper: what a fresh
        :class:`~repro.core.batch.BatchTescEngine` over the epoch's
        snapshot returns — the baseline every service answer must match bit
        for bit.  ``at_epoch`` re-derives the oracle at any still-retained
        epoch.
        """
        cfg = self._merge_config(config_overrides or {})
        with self._pinned(at_epoch) as (_epoch, graph):
            return BatchTescEngine(graph, cfg).rank_pairs(
                pairs, top_k=top_k, sort_by=sort_by
            )

    def close(self) -> None:
        """Stop the checkpoint thread, drop caches and close the WAL."""
        self._ckpt_stop.set()
        if self._ckpt_thread is not None:
            self._ckpt_thread.join(timeout=5.0)
            self._ckpt_thread = None
        with self._miss_lock:
            self._estimates.clear()
            self._digests.clear()
            self._states.clear()
        if self._wal is not None:
            self._wal.close()
