"""Core TESC measure: densities, concordance, estimators and the testers.

The public entry points are :class:`TescTester` (per-pair object API),
:func:`measure_tesc` (one-call convenience function), and — for many-pair
workloads — :class:`BatchTescEngine` / :func:`rank_pairs`, which amortise
sampling, vicinity indexing and density computation across a whole pair set
and return a ranked :class:`PairRanking`.  For multi-core machines,
:class:`ParallelBatchTescEngine` / ``rank_pairs(..., workers=N)`` split the
density pass across N threads with results identical to the serial engine.  :class:`ProgressiveTopKEngine` / :func:`top_k_pairs` answer top-k
queries with confidence-bound pruning over a prefix-growable sample —
identical output to ``rank_pairs().top(k)``, a fraction of the work.
"""

from repro.core.batch import BatchTescEngine, PairRanking, RankedPair, rank_pairs
from repro.core.topk import ProgressiveTopKEngine, TopKRanking, top_k_pairs
from repro.core.parallel import (
    ParallelBatchTescEngine,
    rank_pairs_parallel,
    resolve_workers,
)
from repro.core.config import TescConfig
from repro.core.density import DensityComputer, DensityMatrix, density_vectors
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
    "ParallelBatchTescEngine",
    "rank_pairs_parallel",
    "resolve_workers",
    "TescConfig",
    "DensityComputer",
    "DensityMatrix",
    "density_vectors",
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
