"""The TESC tester: the paper's end-to-end testing framework.

:class:`TescTester` wires together the three phases of the framework
(Section 4.4): reference-node sampling, event-density computation and
measure/significance computation, and returns a :class:`TescResult`.
It draws through the same config → sampler factory and counts through the
same grouped density pass as the batch engine, and it times its phases the
same way: ``sampling``, ``density`` and ``estimate`` stage spans, recorded
when a request span is open (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import TescConfig
from repro.core.density import DensityComputer
from repro.core.estimators import (
    EstimateComponents,
    importance_weighted_estimate,
    plain_estimate,
)
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import InsufficientSampleError
from repro.obs.trace import stage
from repro.sampling.base import ReferenceSample
from repro.sampling.registry import make_config_sampler
from repro.stats.hypothesis import CorrelationVerdict, SignificanceResult, decide


@dataclass(frozen=True)
class TescResult:
    """Everything a TESC test produces.

    Attributes
    ----------
    event_a / event_b:
        The two events tested.
    vicinity_level:
        The level ``h`` the test was run at.
    score:
        The estimated correlation score (``t`` or ``t̃`` in [-1, 1]).
    z_score / p_value:
        Significance of the score under the null hypothesis.
    verdict:
        Positive, negative, or independent (at the configured ``alpha``).
    sample:
        The reference sample used (nodes, weights, sampling cost).
    components:
        The raw estimator output (ties, null sigma, ...).
    """

    event_a: str
    event_b: str
    vicinity_level: int
    score: float
    z_score: float
    p_value: float
    verdict: CorrelationVerdict
    significance: SignificanceResult
    sample: ReferenceSample
    components: EstimateComponents

    @property
    def significant(self) -> bool:
        """Whether the events were declared correlated."""
        return self.verdict is not CorrelationVerdict.INDEPENDENT

    @property
    def num_reference_nodes(self) -> int:
        """Number of distinct reference nodes used."""
        return self.components.num_reference_nodes

    def __str__(self) -> str:
        return (
            f"TESC({self.event_a!r} vs {self.event_b!r}, h={self.vicinity_level}): "
            f"score={self.score:+.4f}, z={self.z_score:+.2f}, "
            f"p={self.p_value:.2e}, verdict={self.verdict.value}"
        )


class TescTester:
    """Run TESC significance tests over an :class:`AttributedGraph`.

    The tester caches the density computer and any vicinity index across
    calls, so testing many event pairs on the same graph (Tables 1–5) only
    pays graph-preparation costs once.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_graph
    >>> from repro.events import AttributedGraph
    >>> graph = erdos_renyi_graph(300, 0.02, random_state=7)
    >>> attributed = AttributedGraph(graph, {"a": range(0, 40), "b": range(20, 60)})
    >>> tester = TescTester(attributed, TescConfig(vicinity_level=1, random_state=7))
    >>> result = tester.test("a", "b")
    >>> -1.0 <= result.score <= 1.0
    True
    """

    def __init__(self, attributed: AttributedGraph,
                 config: Optional[TescConfig] = None) -> None:
        self.attributed = attributed
        self.config = config if config is not None else TescConfig()
        self._density_computer = DensityComputer(attributed.csr)

    def test(self, event_a: str, event_b: str,
             config: Optional[TescConfig] = None) -> TescResult:
        """Test the pair ``(event_a, event_b)`` and return a :class:`TescResult`."""
        cfg = config if config is not None else self.config

        event_nodes = self.attributed.event_union(event_a, event_b)
        with stage("sampling"):
            sample = make_config_sampler(self.attributed, cfg).sample(
                event_nodes, cfg.vicinity_level, cfg.sample_size
            )
        if sample.num_distinct < 2:
            raise InsufficientSampleError(
                f"sampler {cfg.sampler!r} produced {sample.num_distinct} reference "
                "nodes; at least two are required"
            )

        with stage("density"):
            densities_a, densities_b = self._density_computer.density_matrix(
                sample.nodes,
                self.attributed.indicator_matrix([event_a, event_b]),
                cfg.vicinity_level,
            ).densities
        with stage("estimate"):
            if sample.weighted:
                components = importance_weighted_estimate(
                    densities_a, densities_b,
                    sample.frequencies, sample.probabilities,
                )
            else:
                components = plain_estimate(densities_a, densities_b)
            significance = decide(components.z_score, cfg.alpha, cfg.alternative)

        return TescResult(
            event_a=event_a,
            event_b=event_b,
            vicinity_level=cfg.vicinity_level,
            score=components.estimate,
            z_score=components.z_score,
            p_value=significance.p_value,
            verdict=significance.verdict,
            significance=significance,
            sample=sample,
            components=components,
        )

    def test_levels(self, event_a: str, event_b: str, levels=(1, 2, 3)) -> dict:
        """Test the same pair at several vicinity levels (as Tables 1–2 report)."""
        return {
            level: self.test(event_a, event_b, self.config.with_level(level))
            for level in levels
        }


def measure_tesc(attributed: AttributedGraph, event_a: str, event_b: str,
                 vicinity_level: int = 1, **config_kwargs) -> TescResult:
    """One-call convenience wrapper around :class:`TescTester`.

    ``config_kwargs`` accepts any :class:`TescConfig` field, e.g.
    ``sample_size=900``, ``sampler="importance"`` or ``random_state=42``.
    """
    config = TescConfig(vicinity_level=vicinity_level, **config_kwargs)
    return TescTester(attributed, config).test(event_a, event_b)
