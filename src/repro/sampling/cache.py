"""The correlation service's reference-sample memo.

A long-running service answers many requests over the same reference
population (the union of the requested events at one graph state).
:class:`SampleMemo` memoises the draws from one such population, so
repeated requests pay the sampling cost once; the service keeps one memo
per population and graph state.  The in-process engines
(:class:`~repro.core.batch.BatchTescEngine`,
:class:`~repro.core.topk.ProgressiveTopKEngine`) are one-shot and draw
through a fresh sampler instead; a memo miss draws exactly the same way.

Two requests asking for the same draw get the same
:class:`ReferenceSample` object back (treat it as read-only).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

from repro.obs.registry import NULL_REGISTRY
from repro.sampling.base import ReferenceSample
from repro.sampling.batch_bfs import BatchBFSSampler
from repro.sampling.registry import make_config_sampler, sampler_key


class SampleMemo:
    """LRU memo of the draws from one population at one graph state.

    A sample depends only on its inputs: the graph state, the population,
    the vicinity level, the sample size, the sampler and the seed.  The
    owner fixes the first three by asking one memo about one population
    only, so keys are ``sampler_key(cfg) + (sample_size,)``.  Each miss
    builds a new sampler with :func:`~repro.sampling.registry.make_config_sampler`
    (freshly seeded from ``cfg.random_state``), so every memoised draw is
    bit-identical to what a from-scratch engine would draw, whatever was
    asked of the memo before.

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
        self._m_hits, self._m_misses = self.register_metrics(
            metrics if metrics is not None else NULL_REGISTRY
        )

    @staticmethod
    def register_metrics(registry) -> tuple:
        """Register (or fetch) the hit and miss counters on ``registry``."""
        return (
            registry.counter(
                "tesc_sample_memo_hits_total",
                "Reference samples served from the sample memo.",
            ),
            registry.counter(
                "tesc_sample_memo_misses_total",
                "Reference samples drawn fresh on sample-memo misses.",
            ),
        )

    def sample(self, graph, cfg, event_nodes: np.ndarray,
               population: Optional[Callable[[], np.ndarray]] = None) -> ReferenceSample:
        """The memoised sample of ``V^h_{event_nodes}`` under ``cfg``.

        ``graph`` is the graph state a miss draws on (a pinned snapshot or
        a static graph); ``graph``, ``event_nodes`` and ``cfg.vicinity_level``
        must be the same on every call for the memo to be coherent.
        ``population`` optionally returns that population as
        :meth:`~repro.sampling.batch_bfs.BatchBFSSampler.population`
        enumerates it at that state: a miss whose sampler enumerates
        populations (Batch BFS, exhaustive) then draws from it with the same
        freshly seeded call, instead of enumerating again.
        """
        key = sampler_key(cfg) + (int(cfg.sample_size),)
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
