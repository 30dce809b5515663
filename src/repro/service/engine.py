"""The snapshot-isolated (MVCC) request executor behind the correlation server.

:class:`ServiceEngine` answers ``rank``/``topk``/``stream`` requests against
one (possibly dynamic) attributed graph under **pin-at-admission snapshot
isolation**: a read request resolves its epoch on entry, pins that epoch's
copy-on-write snapshot through the graph's lease table
(:mod:`repro.streaming.snapshots`), and computes entirely against the frozen
state — so commits never block readers and readers never block commits.
Every response carries the epoch it was computed at, and ``at_epoch``
requests re-read any epoch still retained by a lease.

Four layers of reuse keep the hot path cheap:

* **Samples** come from :class:`~repro.sampling.cache.SampleMemo` keyed by
  the epoch and drawn against the pinned snapshot, so every sample is
  bit-identical to what a freshly constructed in-process engine would draw
  at that graph state;
* **Density matrices** (with their estimate batchers) are cached per
  ``(config, universe, events, epoch)``.  A miss carries every clean column
  forward from the newest cached matrix at the same level and event tuple —
  the commit journal (:class:`~repro.streaming.dirty.DirtyTracker`) says
  which reference nodes each commit dirtied structurally and which event
  occurrences it toggled — and BFS-counts only the rest, split across
  ``workers`` density threads when the engine runs with ``workers > 1``;
* **Per-pair results** are cached per ``(pair, config, universe, epoch)`` —
  the pair's estimate depends only on the shared sample (a function of the
  request universe, config and epoch) and the pair's two density rows, so
  the key is exact: a cached entry can never be served stale, because any
  commit that could change the answer lands at a different epoch;
* **Pair estimates** behind that cache are memoised by content: a miss
  keys each pair by ``(pair, alpha, alternative)`` and a digest of its two
  density rows restricted to its own reference population — everything
  the estimate reads — so after a commit only the pairs whose inputs moved
  are Kendall-estimated again, whichever epoch, view or worker count asks.

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
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import (
    SORT_KEYS,
    BatchTescEngine,
    RankedPair,
    ensure_uniform_sample,
    ensure_uniform_sampler,
    estimate_pair_list,
    event_universe,
    finalise_ranking,
    make_config_sampler,
    resolve_pair_spec,
)
from repro.core.config import TescConfig
from repro.core.density import DensityComputer, DensityMatrix, densities_from_counts
from repro.core.estimators import PairEstimateBatcher
from repro.core.parallel import resolve_workers
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import (
    ConfigurationError,
    EdgeError,
    EventError,
    InsufficientSampleError,
    NodeNotFoundError,
    SnapshotExpiredError,
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
from repro.sampling.cache import SampleMemo, event_nodes_fingerprint
from repro.service import pool
from repro.service.protocol import BadRequestError, UnavailableError
from repro.storage.checkpoint import CheckpointStore, digest_string
from repro.storage.recovery import RecoveryReport
from repro.streaming.delta import DeltaBatch, WriteAheadLog
from repro.streaming.dirty import DirtyTracker
from repro.streaming.dynamic_graph import DynamicAttributedGraph
from repro.streaming.snapshots import SnapshotLease
from repro.utils import deadlines

logger = logging.getLogger(__name__)

# benchmarks/ledger/traced_serve.py wraps this name at startup; nothing calls it.
estimate_matrix_pairs_sharded = estimate_pair_list


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


def estimate_inputs_digest(
    densities: np.ndarray, row_a: int, row_b: int, columns: np.ndarray
) -> bytes:
    """Content digest of everything a pair's estimate reads from the matrix.

    That is the pair's two density rows restricted to its reference
    population ``columns``, in column order.  Both vectors have the same
    length, so hashing them back to back is unambiguous.
    """
    digest = hashlib.blake2b(densities[row_a, columns].tobytes(), digest_size=16)
    digest.update(densities[row_b, columns].tobytes())
    return digest.digest()


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
    max_cached_results / max_cached_matrices / max_cached_topk:
        LRU bounds of the per-pair result cache (and of the content-keyed
        pair-estimate memo behind it), the density-matrix cache and the
        whole-response top-k cache.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` to instrument into.  The
        default is a fresh enabled registry owned by this engine, so one
        server's counters reconcile exactly with its own request history;
        pass :data:`~repro.obs.NULL_REGISTRY` for a no-op build (the
        overhead benchmark's baseline).
    trace_buffer_size:
        How many recent request span trees to retain in
        :attr:`trace_buffer` for introspection.
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
        max_cached_results: int = 65536,
        max_cached_matrices: int = 8,
        max_cached_topk: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        trace_buffer_size: int = 64,
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
        self.max_cached_results = max(1, int(max_cached_results))
        self.max_cached_matrices = max(1, int(max_cached_matrices))
        self.max_cached_topk = max(1, int(max_cached_topk))

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

        self._memos: Dict[tuple, SampleMemo] = {}
        self._matrices: "OrderedDict[tuple, Tuple[DensityMatrix, PairEstimateBatcher]]" = (
            OrderedDict()
        )
        self._results: "OrderedDict[tuple, RankedPair]" = OrderedDict()
        # (pair, alpha, alternative, inputs digest) -> estimate: lets a
        # result-cache miss reuse the answer of any earlier epoch whose
        # restricted density rows were the same.
        self._estimates: "OrderedDict[tuple, RankedPair]" = OrderedDict()
        self._topk_cache: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()
        # What each commit dirtied at the default level, per epoch: lets a
        # matrix miss carry clean columns forward from a cached epoch.
        self._journal = DirtyTracker(self.config.vicinity_level)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace_buffer = TraceBuffer(trace_buffer_size)
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
            "Per-pair results served from the epoch-keyed cache.",
        )
        self._m_pair_misses = m.counter(
            "tesc_pair_cache_misses_total",
            "Per-pair results computed on epoch-keyed cache misses.",
        )
        self._m_coalesced = m.counter(
            "tesc_singleflight_coalesced_total",
            "Pair results adopted from a concurrent identical computation "
            "instead of being recomputed (single-flight re-check hits).",
        )
        self._m_topk_hits = m.counter(
            "tesc_topk_cache_hits_total",
            "Whole top-k responses served from the epoch-keyed cache.",
        )
        self._m_matrices = m.counter(
            "tesc_matrices_computed_total",
            "Shared density matrices computed (cache misses).",
        )
        self._m_columns = m.counter(
            "tesc_density_columns_total",
            "Density columns of computed matrices, by outcome: BFS-counted "
            "(computed) or carried forward from a cached epoch (carried).",
            labels=("outcome",),
        )
        self._m_estimates = m.counter(
            "tesc_pair_estimates_total",
            "Pair results computed on result-cache misses, by outcome: "
            "Kendall-estimated (estimated) or reused from an earlier "
            "estimate with identical density inputs (reused).",
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
        self._m_commit_seconds = m.histogram(
            "tesc_commit_seconds",
            "Commit latency in seconds (apply + epoch publication).",
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
        m.gauge(
            "tesc_cached_pair_results", "Entries in the per-pair result cache."
        ).set_function(lambda: len(self._results))
        m.gauge(
            "tesc_cached_matrices", "Entries in the density-matrix cache."
        ).set_function(lambda: len(self._matrices))
        m.gauge(
            "tesc_cached_topk", "Entries in the whole-response top-k cache."
        ).set_function(lambda: len(self._topk_cache))
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

    def _pin(
        self, at_epoch: Optional[int]
    ) -> Tuple[int, AttributedGraph, Optional[SnapshotLease]]:
        """Pin-at-admission: resolve the epoch and the graph state to read.

        Dynamic graphs hand back a leased
        :class:`~repro.streaming.snapshots.GraphSnapshot` (the caller must
        release the lease when the read completes); static graphs hand back
        the live object.  ``at_epoch`` on a static graph is accepted only
        for the current epoch.
        """
        if self._dynamic:
            lease = self.graph.pin(at_epoch)
            self._m_pins.inc()
            self._m_active_pins.inc()
            return lease.epoch, lease.graph, lease
        epoch = self.current_epoch()
        if at_epoch is not None and int(at_epoch) != epoch:
            raise SnapshotExpiredError(
                f"epoch {int(at_epoch)} is not available on a static graph "
                f"(current epoch is {epoch})"
            )
        return epoch, self.graph, None

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
        """The config identity tuple cache keys and checkpoints key on.

        Non-int seeds (e.g. a ``Generator``) are tokenised by ``id()`` for
        in-process keys — distinct objects draw distinct streams, so they
        must not share a memo.  ``persistent=True`` swaps in a stable
        sentinel: ``id()`` changes across processes, and a digest written
        into a checkpoint manifest must still match the same config after a
        restart or every checkpoint would be rejected at boot.
        """
        items = asdict(cfg)
        items.pop("random_state")
        # Fields retired from TescConfig, folded in at the only values they
        # can still take so digests persisted in checkpoint manifests by
        # earlier versions keep matching and their checkpoints stay valid.
        items.update(kendall_crossover=None, kendall_kernel="auto")
        # asdict deep-copies field values; id() must see the live object on
        # the config, not a throwaway copy whose address the allocator may
        # hand to the next caller.
        seed = cfg.random_state
        if seed is None or isinstance(seed, int):
            seed_token: object = seed
        elif persistent:
            seed_token = "unseeded-object"
        else:
            seed_token = id(seed)
        return tuple(sorted(items.items())) + (("random_state", seed_token),)

    def _memo(self, cfg: TescConfig) -> SampleMemo:
        key = (
            cfg.sampler, cfg.batch_per_vicinity, cfg.vicinity_level,
            self._config_digest(cfg)[-1],
        )
        memo = self._memos.get(key)
        if memo is None:
            live = self.graph
            memo = SampleMemo(
                lambda graph=None: make_config_sampler(
                    live if graph is None else graph, cfg
                ),
                metrics=self.metrics,
            )
            self._memos[key] = memo
        return memo

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
        if sort_by not in SORT_KEYS:
            raise ConfigurationError(
                f"sort_by must be one of {SORT_KEYS}, got {sort_by!r}"
            )
        if on_insufficient not in ("keep", "raise"):
            raise ConfigurationError(
                f'on_insufficient must be "keep" or "raise", got {on_insufficient!r}'
            )
        cfg = self._merge_config(config_overrides or {})
        self._m_requests.labels(method="rank").inc()
        with trace("rank", sink=self._finish_trace) as span:
            epoch, graph, lease = self._pin(at_epoch)
            try:
                deadlines.checkpoint()
                pair_list = resolve_pair_spec(graph.event_names(), pairs)
                events = sorted({event for pair in pair_list for event in pair})
                # Surfaces unknown events before any sampling work happens.
                graph.indicator_matrix(events)
                universe = event_universe(graph, events)
                universe_fp = event_nodes_fingerprint(universe)
                digest = self._config_digest(cfg)

                by_pair: Dict[Tuple[str, str], RankedPair] = {}
                missing: List[Tuple[str, str]] = []
                for pair in pair_list:
                    cached = self._results.get((pair, digest, universe_fp, epoch))
                    if cached is not None:
                        by_pair[pair] = cached
                    else:
                        missing.append(pair)
                hits = len(pair_list) - len(missing)
                self._m_pair_hits.inc(hits)
                if missing:
                    computed = self._compute_pairs(
                        graph, cfg, events, universe, universe_fp, digest, epoch,
                        missing, on_insufficient,
                    )
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
            finally:
                if lease is not None:
                    lease.release()
                    self._m_active_pins.dec()
            span.tags["pairs"] = len(pair_list)
            span.tags["epoch"] = epoch
        self._m_request_seconds.labels(method="rank").observe(span.duration)
        return {
            "pairs": [pair_record(pair) for pair in ranked],
            "epoch": epoch,
            "sort_by": sort_by,
            "alpha": cfg.alpha,
            "vicinity_level": cfg.vicinity_level,
            "cached_pairs": hits,
            "computed_pairs": len(missing),
        }

    def _compute_pairs(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        events: Sequence[str],
        universe,
        universe_fp: str,
        digest: tuple,
        epoch: int,
        missing: List[Tuple[str, str]],
        on_insufficient: str,
    ) -> Dict[Tuple[str, str], RankedPair]:
        """Estimate the cache-missing pairs against ``graph`` and record them.

        Serialised by ``_miss_lock`` so concurrent identical requests
        compute the shared sample/matrix once; the cache is re-checked
        under the lock for pairs another thread just filled.  ``graph`` is
        the caller's pinned snapshot (or the live static graph), so a
        commit landing mid-computation changes nothing here.  Pairs whose
        :func:`estimate_inputs_digest` and decision config match an earlier
        estimate reuse it; only the rest are estimated.
        """
        with self._miss_lock:
            computed: Dict[Tuple[str, str], RankedPair] = {}
            still_missing: List[Tuple[str, str]] = []
            for pair in missing:
                cached = self._results.get((pair, digest, universe_fp, epoch))
                if cached is not None:
                    computed[pair] = cached
                else:
                    still_missing.append(pair)
            if computed:
                self._m_coalesced.inc(len(computed))
            if not still_missing:
                return computed

            matrix, batcher = self._matrix_for(
                graph, cfg, tuple(events), universe, universe_fp, epoch
            )
            row_of = {event: row for row, event in enumerate(events)}
            # A pair's estimate is a function of its two density rows over
            # its own population, plus the decision config: key on exactly
            # that, so any epoch, view or worker count that feeds the same
            # inputs reuses the answer.
            keys: Dict[Tuple[str, str], tuple] = {}
            pending: List[Tuple[str, str]] = []
            pending_columns: List[np.ndarray] = []
            for pair in still_missing:
                row_a, row_b = row_of[pair[0]], row_of[pair[1]]
                columns = matrix.pair_rows(row_a, row_b)
                key = keys[pair] = (
                    pair, cfg.alpha, cfg.alternative,
                    estimate_inputs_digest(matrix.densities, row_a, row_b, columns),
                )
                reused = self._estimates.get(key)
                if reused is not None:
                    self._estimates.move_to_end(key)
                    computed[pair] = reused
                else:
                    pending.append(pair)
                    pending_columns.append(columns)
            self._m_estimates.labels(outcome="reused").inc(
                len(still_missing) - len(pending)
            )
            self._m_estimates.labels(outcome="estimated").inc(len(pending))
            if pending:
                fresh = self._estimate(
                    matrix, batcher, row_of, pending, pending_columns, cfg
                )
                for pair_result in fresh:
                    pair = pair_result.events
                    computed[pair] = pair_result
                    self._estimates[keys[pair]] = pair_result
                while len(self._estimates) > self.max_cached_results:
                    self._estimates.popitem(last=False)
            for pair in still_missing:
                self._results[(pair, digest, universe_fp, epoch)] = computed[pair]
            while len(self._results) > self.max_cached_results:
                self._results.popitem(last=False)
            return computed

    def _estimate(
        self,
        matrix: DensityMatrix,
        batcher: PairEstimateBatcher,
        row_of: Dict[str, int],
        pairs: List[Tuple[str, str]],
        columns: List[np.ndarray],
        cfg: TescConfig,
    ) -> List[RankedPair]:
        """Estimate ``pairs`` over ``matrix`` in the request thread.

        Insufficient pairs come back as insufficient records even for
        "raise" requests; the caller raises after assembly, and "keep"
        requests for the same pair still hit the caches.
        """
        with stage("estimate", pairs=len(pairs)):
            deadlines.checkpoint()
            return estimate_pair_list(
                pairs, row_of, matrix, batcher, cfg, "keep", columns=columns
            )

    def _matrix_for(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        events: Tuple[str, ...],
        universe,
        universe_fp: str,
        epoch: int,
    ) -> Tuple[DensityMatrix, PairEstimateBatcher]:
        """The epoch's density matrix over the request events, cached.

        A miss carries every column it can from an older cached matrix
        (:meth:`_carry_columns`) and BFS-counts only the rest; the floats
        come from :func:`~repro.core.density.densities_from_counts` over the
        assembled integer counts, so the matrix is bit-identical to a full
        pass whichever columns carried.
        """
        key = (
            cfg.sampler, cfg.batch_per_vicinity,
            self._config_digest(cfg)[-1],
            universe_fp, cfg.vicinity_level, cfg.sample_size,
            events, epoch,
        )
        cached = self._matrices.get(key)
        if cached is not None:
            self._matrices.move_to_end(key)
            return cached
        memo = self._memo(cfg)
        with stage("sampling"):
            sample = memo.sample(
                universe, cfg.vicinity_level, cfg.sample_size,
                epoch=epoch, graph=graph,
            )
        ensure_uniform_sample(sample, cfg.sampler)
        nodes = np.asarray(sample.nodes, dtype=np.int64)
        with stage("density", workers=self.workers):
            carried, counts, sizes = self._carry_columns(
                graph, cfg, events, epoch, nodes
            )
            missing = ~carried
            if missing.any():
                fresh = self._count_columns(graph, cfg, events, nodes[missing])
                counts[:, missing] = fresh.counts
                sizes[missing] = fresh.vicinity_sizes
        num_computed = int(np.count_nonzero(missing))
        self._m_columns.labels(outcome="computed").inc(num_computed)
        self._m_columns.labels(outcome="carried").inc(nodes.size - num_computed)
        matrix = DensityMatrix(
            reference_nodes=nodes,
            densities=densities_from_counts(counts, sizes),
            counts=counts,
            vicinity_sizes=sizes,
            level=int(cfg.vicinity_level),
        )
        batcher = PairEstimateBatcher(matrix.densities)
        while len(self._matrices) >= self.max_cached_matrices:
            self._matrices.popitem(last=False)
        self._matrices[key] = (matrix, batcher)
        self._m_matrices.inc()
        return matrix, batcher

    def _carry_columns(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        events: Tuple[str, ...],
        epoch: int,
        nodes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Density columns of ``nodes`` carried forward to ``epoch``.

        Returns ``(carried, counts, sizes)``: a mask over ``nodes`` and
        fresh ``(len(events), len(nodes))`` / ``(len(nodes),)`` integer
        arrays holding the carried columns (the other columns are left for
        the caller to fill).  The base is the newest cached matrix at the
        same vicinity level and event tuple whose epoch is at most
        ``epoch`` and whose later commits the journal covers.  A node's
        column carries when the base sampled it and no commit in between
        dirtied it structurally; each journaled event toggle then shifts
        the count of every carried column whose node lies in the toggled
        node's vicinity.  That vicinity is taken on ``graph`` — the
        reader's own snapshot — which is sound because a clean column's
        vicinity is the same at every epoch of the span.  The base matrix
        is only read, never patched, so older epochs stay exact.

        Nothing carries (a full pass) when no cached matrix qualifies: a
        span with an unjournaled epoch (recovery replay, an out-of-band
        ``graph.apply``, an aged-out entry), an ``at_epoch`` older than
        every cached base, or a request ``vicinity_level`` override.
        """
        carried = np.zeros(nodes.size, dtype=bool)
        counts = np.zeros((len(events), nodes.size), dtype=np.int64)
        sizes = np.zeros(nodes.size, dtype=np.int64)
        level = int(cfg.vicinity_level)
        if level != self._journal.level:
            return carried, counts, sizes
        bases = sorted(
            (
                (key[-1], matrix)
                for key, (matrix, _batcher) in self._matrices.items()
                if key[-2] == events and key[-1] <= epoch
                and matrix.level == level
            ),
            key=lambda entry: entry[0],
            reverse=True,
        )
        for base_epoch, base in bases:
            regions = self._journal.between(base_epoch, epoch)
            if regions is not None:
                break
        else:
            return carried, counts, sizes

        # Base column of every node, with structurally dirtied nodes
        # struck out; -1 marks "not carried".
        source = np.full(graph.num_nodes, -1, dtype=np.int64)
        source[base.reference_nodes] = np.arange(base.reference_nodes.size)
        for region in regions:
            source[region.structure] = -1
        source = source[nodes]
        carried = source >= 0
        source = source[carried]
        counts[:, carried] = base.counts[:, source]
        sizes[carried] = base.vicinity_sizes[source]

        row_of = {event: row for row, event in enumerate(events)}
        toggles = [
            (row_of[event], node, sign)
            for region in regions
            for event, node, sign in region.toggles
            if event in row_of
        ]
        if toggles and source.size:
            column = np.full(graph.num_nodes, -1, dtype=np.int64)
            column[nodes[carried]] = np.flatnonzero(carried)
            engine = BFSEngine(graph.csr)
            for row, node, sign in toggles:
                hit = column[engine.vicinity(node, level)]
                counts[row, hit[hit >= 0]] += sign
        return carried, counts, sizes

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
        """Progressive top-k at a pinned snapshot (whole-response cached).

        A fresh :class:`~repro.core.topk.ProgressiveTopKEngine` over the
        pinned snapshot per miss reproduces exactly what an in-process run
        at that epoch would return; the response is cached per
        ``(k, pairs, config, epoch)``.  Same epoch semantics as
        :meth:`rank`.
        """
        from repro.core.topk import ProgressiveTopKEngine

        cfg = self._merge_config(config_overrides or {})
        self._m_requests.labels(method="topk").inc()
        with trace("topk", sink=self._finish_trace, k=int(k)) as span:
            epoch, graph, lease = self._pin(at_epoch)
            try:
                span.tags["epoch"] = epoch
                pair_list = resolve_pair_spec(graph.event_names(), pairs)
                key = (
                    int(k), tuple(pair_list), sort_by,
                    self._config_digest(cfg), epoch,
                )
                result = self._topk_cache.get(key)
                if result is not None:
                    self._m_topk_hits.inc()
                else:
                    with self._miss_lock:
                        result = self._topk_cache.get(key)
                        if result is not None:
                            self._m_topk_hits.inc()
                        else:
                            result = self._topk_miss(
                                graph, cfg, epoch, int(k), pair_list,
                                sort_by, on_insufficient, key,
                            )
            finally:
                if lease is not None:
                    lease.release()
                    self._m_active_pins.dec()
        self._m_request_seconds.labels(method="topk").observe(span.duration)
        return result

    def _topk_miss(
        self,
        graph: AttributedGraph,
        cfg: TescConfig,
        epoch: int,
        k: int,
        pair_list: List[Tuple[str, str]],
        sort_by: str,
        on_insufficient: str,
        key: tuple,
    ) -> Dict[str, Any]:
        """Run the progressive engine for one cache-missing top-k request.

        Caller holds ``_miss_lock`` and has re-checked the cache."""
        from repro.core.topk import ProgressiveTopKEngine

        engine = ProgressiveTopKEngine(
            graph, cfg, workers=self.workers, metrics=self.metrics
        )
        ranking = engine.top_k(
            k, pair_list, sort_by=sort_by, on_insufficient=on_insufficient,
        )
        result = {
            "pairs": [pair_record(pair) for pair in ranking],
            "epoch": epoch,
            "k": k,
            "sort_by": sort_by,
            "pairs_pruned": ranking.topk_stats.pairs_pruned,
            "pairs_survived": ranking.topk_stats.pairs_survived,
        }
        self._topk_cache[key] = result
        while len(self._topk_cache) > self.max_cached_topk:
            self._topk_cache.popitem(last=False)
        return result

    # -- stream --------------------------------------------------------------

    def _validate_batch(self, batch: DeltaBatch) -> None:
        """The same checks :meth:`DynamicAttributedGraph.apply` runs, early.

        Commit runs them *before* the write-ahead append so the WAL can
        never durably record a batch the graph would then reject — replay
        of a recovered log is therefore always clean.
        """
        num_nodes = self.graph.num_nodes
        for delta in batch.edge_deltas():
            if not (0 <= delta.u < num_nodes):
                raise NodeNotFoundError(delta.u)
            if not (0 <= delta.v < num_nodes):
                raise NodeNotFoundError(delta.v)
            if delta.u == delta.v:
                raise EdgeError(f"self-loop ({delta.u}, {delta.v}) is not allowed")
        for delta in batch.event_deltas():
            if not isinstance(delta.event, str) or not delta.event:
                raise EventError(
                    f"event name must be a non-empty string, got {delta.event!r}"
                )
            if not (0 <= delta.node < num_nodes):
                raise NodeNotFoundError(delta.node)

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
        toggles, which is what lets the next read's density matrix carry
        the clean columns of the previous epoch forward.

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
                self._validate_batch(batch)
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
        self._m_commit_seconds.observe(span.duration)
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
            "cached_pair_results": len(self._results),
            "cached_matrices": len(self._matrices),
            "cached_topk": len(self._topk_cache),
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
        epoch, graph, lease = self._pin(at_epoch)
        try:
            return BatchTescEngine(graph, cfg).rank_pairs(
                pairs, top_k=top_k, sort_by=sort_by
            )
        finally:
            if lease is not None:
                lease.release()
                self._m_active_pins.dec()

    def close(self) -> None:
        """Stop the checkpoint thread, drop caches and close the WAL."""
        self._ckpt_stop.set()
        if self._ckpt_thread is not None:
            self._ckpt_thread.join(timeout=5.0)
            self._ckpt_thread = None
        with self._miss_lock:
            self._results.clear()
            self._estimates.clear()
            self._matrices.clear()
            self._topk_cache.clear()
            self._memos.clear()
        if self._wal is not None:
            self._wal.close()
