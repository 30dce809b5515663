"""Transaction Correlation (TC): correlation without graph structure.

The paper contrasts TESC against treating each node as an isolated
market-basket transaction.  Two TC measures appear:

* **Lift** (Section 1): ``P(a, b) / (P(a) P(b))`` — values above 1 indicate
  attraction at the transaction level.
* **Kendall τ-b z-score** (Section 5.4): τ-b between the two binary
  occurrence indicator vectors, standardised with the same tie-corrected
  null variance used for TESC.  This is the "TC" column of Tables 1–4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.events.event_set import EventLayer
from repro.events.queries import contingency_table
from repro.exceptions import EstimationError
from repro.stats.hypothesis import SignificanceResult, decide
from repro.stats.kendall import kendall_tau_b, pair_concordance_sum
from repro.stats.ties import degenerate_ties, tie_corrected_sigma


@dataclass(frozen=True)
class TransactionCorrelation:
    """Result of a Transaction Correlation analysis of an event pair."""

    event_a: str
    event_b: str
    lift: float
    tau_b: float
    z_score: float
    p_value: float
    significance: SignificanceResult
    contingency: tuple

    @property
    def verdict(self):
        """Positive / negative / independent verdict at the test's alpha."""
        return self.significance.verdict


def lift(events: EventLayer, event_a: str, event_b: str) -> float:
    """Lift of the two events over the node transactions.

    ``lift = N * n11 / (|V_a| * |V_b|)`` where ``N`` is the number of nodes.
    Returns ``0.0`` when either event has no occurrences (no evidence).
    """
    n11, n10, n01, _n00 = contingency_table(events, event_a, event_b)
    size_a = n11 + n10
    size_b = n11 + n01
    if size_a == 0 or size_b == 0:
        return 0.0
    return events.num_nodes * n11 / (size_a * size_b)


def _binary_z_score(n11: int, n10: int, n01: int, n00: int) -> tuple:
    """Kendall τ-b and z-score for two binary vectors given their 2x2 table.

    For binary indicators the concordance numerator has the closed form
    ``S = n11 * n00 - n10 * n01`` and the tie groups are the value counts of
    each indicator; using the closed form avoids materialising the
    million-entry indicator vectors of the full graph.
    """
    n = n11 + n10 + n01 + n00
    if n < 2:
        raise EstimationError("at least two transactions are required")
    s = float(n11) * float(n00) - float(n10) * float(n01)

    ones_a = n11 + n10
    zeros_a = n - ones_a
    ones_b = n11 + n01
    zeros_b = n - ones_b

    # τ-b denominator.
    n0 = 0.5 * n * (n - 1)
    n1 = 0.5 * (ones_a * (ones_a - 1) + zeros_a * (zeros_a - 1))
    n2 = 0.5 * (ones_b * (ones_b - 1) + zeros_b * (zeros_b - 1))
    tau_denominator = np.sqrt((n0 - n1) * (n0 - n2))
    tau_b = float(s / tau_denominator) if tau_denominator > 0 else 0.0

    # Null sigma of S with the binary tie structure (Eq. 6).
    from repro.stats.ties import null_variance_numerator_with_ties

    ties_a = [size for size in (ones_a, zeros_a) if size >= 2]
    ties_b = [size for size in (ones_b, zeros_b) if size >= 2]
    if ones_a == 0 or zeros_a == 0 or ones_b == 0 or zeros_b == 0:
        return tau_b, 0.0
    variance = null_variance_numerator_with_ties(n, ties_a, ties_b)
    z_score = float(s / np.sqrt(variance)) if variance > 0 else 0.0
    return tau_b, z_score


def transaction_correlation(
    events: EventLayer,
    event_a: str,
    event_b: str,
    alpha: float = 0.05,
    alternative: str = "two-sided",
) -> TransactionCorrelation:
    """Full Transaction Correlation analysis of an event pair."""
    table = contingency_table(events, event_a, event_b)
    tau_b, z_score = _binary_z_score(*table)
    significance = decide(z_score, alpha, alternative)
    return TransactionCorrelation(
        event_a=event_a,
        event_b=event_b,
        lift=lift(events, event_a, event_b),
        tau_b=tau_b,
        z_score=z_score,
        p_value=significance.p_value,
        significance=significance,
        contingency=table,
    )


def transaction_tau_b_dense(indicator_a: np.ndarray, indicator_b: np.ndarray) -> float:
    """Reference τ-b on dense binary vectors (used to cross-check the closed form).

    Routed through the size-dispatched concordance kernels, so the dense
    cross-check stays usable on full-graph indicator vectors (O(N log N)
    instead of an N×N sign matrix).
    """
    if indicator_a.shape != indicator_b.shape:
        raise EstimationError("indicator vectors must have the same shape")
    return kendall_tau_b(indicator_a.astype(float), indicator_b.astype(float))


def transaction_z_dense(indicator_a: np.ndarray, indicator_b: np.ndarray) -> float:
    """Reference z-score on dense binary vectors (cross-check of the closed form)."""
    a = indicator_a.astype(float)
    b = indicator_b.astype(float)
    if degenerate_ties(a, b):
        return 0.0
    s = pair_concordance_sum(a, b)
    sigma = tie_corrected_sigma(a, b)
    return float(s / sigma) if sigma > 0 else 0.0
