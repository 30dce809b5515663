"""Core TESC measure: densities, concordance, estimators and the testers.

The public entry points are :class:`TescTester` (per-pair object API),
:func:`measure_tesc` (one-call convenience function), and — for many-pair
workloads — :func:`rank_pairs`, which amortises sampling, vicinity indexing
and density computation across a whole pair set and returns a ranked
:class:`PairRanking`.  ``rank_pairs(..., workers=N)`` splits the density pass
across N threads with results identical to the serial run.
:class:`BatchTescEngine` is the engine behind it and the serial oracle that
:meth:`repro.api.Session.reference_ranking` runs.
:class:`ProgressiveTopKEngine` / :func:`top_k_pairs` answer top-k queries
with confidence-bound pruning over growing prefixes of the same sample
``rank_pairs`` draws — identical output to ``rank_pairs().top(k)``, a
fraction of the work.  Both engines are one-shot: each call draws its sample
through a fresh sampler and keeps nothing after it returns.
"""

from repro.core.batch import BatchTescEngine, PairRanking, RankedPair, rank_pairs
from repro.core.topk import ProgressiveTopKEngine, TopKRanking, top_k_pairs
from repro.core.config import TescConfig
from repro.core.density import DensityComputer, DensityMatrix
from repro.core.concordance import concordance, concordance_counts
from repro.core.estimators import (
    EstimateComponents,
    PairEstimateBatcher,
    importance_weighted_estimate,
    plain_estimate,
)
from repro.core.tesc import TescResult, TescTester, measure_tesc
from repro.core.weighted import distance_weighted_densities, weighted_tesc_score

__all__ = [
    "BatchTescEngine",
    "ProgressiveTopKEngine",
    "TopKRanking",
    "top_k_pairs",
    "TescConfig",
    "DensityComputer",
    "DensityMatrix",
    "concordance",
    "concordance_counts",
    "EstimateComponents",
    "PairEstimateBatcher",
    "PairRanking",
    "RankedPair",
    "plain_estimate",
    "importance_weighted_estimate",
    "rank_pairs",
    "TescResult",
    "TescTester",
    "measure_tesc",
    "distance_weighted_densities",
    "weighted_tesc_score",
]
