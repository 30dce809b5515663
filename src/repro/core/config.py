"""Configuration for a TESC test."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int, check_vicinity_level


#: Sample size used throughout the paper's experiments ("we empirically set
#: the sample size of reference nodes n = 900").
DEFAULT_SAMPLE_SIZE = 900

#: Significance level of the paper's one-tailed tests.
DEFAULT_ALPHA = 0.05

#: First-round prefix size of the progressive top-k engine.
DEFAULT_TOPK_INITIAL_SAMPLE_SIZE = 256

#: Geometric growth factor between progressive top-k rounds.
DEFAULT_TOPK_GROWTH_FACTOR = 2.0


@dataclass(frozen=True)
class TescConfig:
    """Parameters of a TESC significance test.

    Attributes
    ----------
    vicinity_level:
        The level ``h`` — densities are measured in h-hop vicinities and the
        reference-node pool is ``V^h_{a∪b}``.  The paper focuses on 1–3.
    sample_size:
        Number of reference nodes ``n`` to sample (paper default: 900).
        Ignored by exhaustive (non-sampling) computation.
    sampler:
        Name of the reference-node sampler registered in
        :mod:`repro.sampling.registry`:

        * ``"batch_bfs"`` (default) — Algorithm 1: enumerate the reference
          population with one multi-source BFS, then sample uniformly.  Most
          accurate; recommended for small/medium event sets.
        * ``"exhaustive"`` — use the whole population (no sampling); the
          ground truth for tests and calibration.
        * ``"reject"`` — rejection sampling; uniform, avoids enumerating the
          population but needs the vicinity-size index.
        * ``"importance"`` / ``"batch_importance"`` — Algorithm 2 (and its
          Section 5.2.2 batched variant): non-uniform draws corrected by
          importance weights (Eq. 8); cost scales with ``n`` rather than the
          population size.  Per-pair testing only — the weighted samples
          cannot be shared by :class:`~repro.core.batch.BatchTescEngine`.
        * ``"whole_graph"`` — Algorithm 3: uniform draws over all of ``V``
          with an in-sight test; for very large event sets at high ``h``.
    alpha:
        Significance level of the test.
    alternative:
        ``"two-sided"``, ``"greater"`` (attraction) or ``"less"`` (repulsion).
    batch_per_vicinity:
        For the batched importance sampler: how many reference nodes to draw
        from each sampled event node's vicinity (Section 5.2.2 uses 3 for
        h=2 and 6 for h=3).  ``None`` keeps the chosen sampler's own default.
    topk_initial_sample_size:
        First-round prefix size of the progressive top-k engine
        (:class:`~repro.core.topk.ProgressiveTopKEngine`); rounds grow
        geometrically from here to ``sample_size``.
    topk_growth_factor:
        Multiplier between consecutive progressive rounds (must exceed 1).
        The pruning confidence level is fixed
        (:data:`~repro.core.topk.TOPK_CONFIDENCE`).
    random_state:
        Seed/generator for the sampling step.
    """

    vicinity_level: int = 1
    sample_size: int = DEFAULT_SAMPLE_SIZE
    sampler: str = "batch_bfs"
    alpha: float = DEFAULT_ALPHA
    alternative: str = "two-sided"
    batch_per_vicinity: Optional[int] = None
    topk_initial_sample_size: int = DEFAULT_TOPK_INITIAL_SAMPLE_SIZE
    topk_growth_factor: float = DEFAULT_TOPK_GROWTH_FACTOR
    random_state: RandomState = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_vicinity_level(self.vicinity_level, "vicinity_level")
        check_positive_int(self.sample_size, "sample_size")
        if self.batch_per_vicinity is not None:
            check_positive_int(self.batch_per_vicinity, "batch_per_vicinity")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.alternative not in ("two-sided", "greater", "less"):
            raise ConfigurationError(
                "alternative must be 'two-sided', 'greater' or 'less', "
                f"got {self.alternative!r}"
            )
        if not isinstance(self.sampler, str) or not self.sampler:
            raise ConfigurationError("sampler must be a non-empty string")
        check_positive_int(self.topk_initial_sample_size, "topk_initial_sample_size")
        if self.topk_initial_sample_size < 2:
            raise ConfigurationError(
                "topk_initial_sample_size must be at least 2, got "
                f"{self.topk_initial_sample_size}"
            )
        if not self.topk_growth_factor > 1.0:
            raise ConfigurationError(
                f"topk_growth_factor must exceed 1, got {self.topk_growth_factor}"
            )

    def with_level(self, vicinity_level: int) -> "TescConfig":
        """A copy of this configuration at a different vicinity level."""
        return replace(self, vicinity_level=vicinity_level)

    def with_sampler(self, sampler: str, **kwargs) -> "TescConfig":
        """A copy of this configuration using a different sampler."""
        return replace(self, sampler=sampler, **kwargs)

    def with_random_state(self, random_state: RandomState) -> "TescConfig":
        """A copy of this configuration with a new random state."""
        return replace(self, random_state=random_state)
