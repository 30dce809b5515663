"""The correlation service's reference-sample memo.

A long-running service answers many requests over the same reference
population (the union of the requested events at one epoch).
:class:`SampleMemo` memoises samples by their inputs, so repeated requests
pay the sampling cost once.  The in-process engines
(:class:`~repro.core.batch.BatchTescEngine`,
:class:`~repro.core.topk.ProgressiveTopKEngine`) are one-shot and draw
through a fresh sampler instead; a memo miss draws exactly the same way.

The memo is *content-addressed*: two requests asking for the same node set
under the same config get the same :class:`ReferenceSample` object back
(treat it as read-only).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

from repro.obs.registry import NULL_REGISTRY
from repro.sampling.base import ReferenceSample
from repro.sampling.batch_bfs import BatchBFSSampler
from repro.sampling.registry import make_config_sampler, sampler_key
from repro.utils.validation import sorted_unique


def event_nodes_fingerprint(event_nodes: np.ndarray) -> str:
    """Stable content hash of a node set (order-insensitive).

    Used as the cache key component identifying a reference population
    ``V^h_S`` by its source set ``S``.
    """
    canonical = sorted_unique(np.asarray(event_nodes, dtype=np.int64))
    return hashlib.sha1(canonical.tobytes()).hexdigest()


class SampleMemo:
    """LRU sample memo drawing every miss through a *fresh* sampler.

    A sample depends only on its inputs: the graph state, the population,
    the vicinity level, the sample size, the sampler and the seed.  Each
    miss builds a new sampler with :func:`~repro.sampling.registry.make_config_sampler`
    (freshly seeded from ``cfg.random_state``), so every memoised draw is
    bit-identical to what a from-scratch engine would draw, whatever was
    asked of the memo before.

    Keys are ``(sampler_key(cfg), population fingerprint, level,
    sample_size, epoch)``.  The caller-supplied ``epoch`` names the graph
    state: bump it whenever the graph changes and stale draws can never be
    returned, while commits that leave both the structure and the monitored
    universe untouched reuse the previous draw for free.  Callers over a
    graph that does not change pass the default epoch 0.

    Parameters
    ----------
    max_entries:
        The least-recently-used entries are evicted beyond this count.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; hit/miss totals are
        mirrored into ``tesc_sample_memo_{hits,misses}_total``.
    """

    def __init__(self, max_entries: int = 8, metrics=None) -> None:
        self.max_entries = max(1, int(max_entries))
        self._cache: "OrderedDict[tuple, ReferenceSample]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = registry.counter(
            "tesc_sample_memo_hits_total",
            "Reference samples served from the sample memo.",
        )
        self._m_misses = registry.counter(
            "tesc_sample_memo_misses_total",
            "Reference samples drawn fresh on sample-memo misses.",
        )

    def sample(self, graph, cfg, event_nodes: np.ndarray, epoch: int = 0,
               population: Optional[Callable[[], np.ndarray]] = None) -> ReferenceSample:
        """The memoised sample of ``V^h_{event_nodes}`` under ``cfg``.

        ``graph`` is the graph state a miss draws on (a pinned snapshot or
        a static graph); ``epoch`` must identify that state for the memo to
        be coherent.  ``population`` optionally returns that population as
        :meth:`~repro.sampling.batch_bfs.BatchBFSSampler.population`
        enumerates it at that state: a miss whose sampler enumerates
        populations (Batch BFS, exhaustive) then draws from it with the same
        freshly seeded call, instead of enumerating again.
        """
        key = sampler_key(cfg) + (
            event_nodes_fingerprint(event_nodes), int(cfg.vicinity_level),
            int(cfg.sample_size), int(epoch),
        )
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return cached
        self.misses += 1
        self._m_misses.inc()
        sampler = make_config_sampler(graph, cfg)
        if population is not None and isinstance(sampler, BatchBFSSampler):
            sample = sampler.sample(
                event_nodes, cfg.vicinity_level, cfg.sample_size,
                population=population(),
            )
        else:
            sample = sampler.sample(event_nodes, cfg.vicinity_level, cfg.sample_size)
        self._cache[key] = sample
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return sample

    def clear(self) -> None:
        """Drop every memoised draw."""
        self._cache.clear()

    @property
    def num_cached(self) -> int:
        """Number of distinct samples currently memoised."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SampleMemo(cached={self.num_cached})"
