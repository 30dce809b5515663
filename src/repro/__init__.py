"""repro — reproduction of "Measuring Two-Event Structural Correlations on
Graphs" (Guan, Yan, Kaplan; VLDB 2012).

The package implements the TESC measure and its complete testing framework:
the graph substrate, the event layer, the Kendall-τ statistics with
tie-corrected significance, the three reference-node sampling algorithms, the
baselines the paper compares against, the event simulators used for the
efficacy study, synthetic stand-ins for the paper's datasets, and an
experiment harness that regenerates every table and figure of the evaluation.

Quickstart
----------
The single front door is :func:`repro.api.open_session` — snapshot-isolated
ranking, top-k and streaming commits behind one handle:

>>> from repro import TescConfig, open_session
>>> from repro.graph.generators import erdos_renyi_graph
>>> graph = erdos_renyi_graph(500, 0.01, random_state=1)
>>> session = open_session(graph, TescConfig(random_state=1),
...                        events={"a": range(0, 50), "b": range(25, 75)})
>>> session.rank()["epoch"]
0
>>> session.commit([("event_attach", "a", 60)])["epoch"]
1
>>> session.close()

One-off measurements stay available:

>>> from repro import AttributedGraph, measure_tesc
>>> attributed = AttributedGraph(graph, {"a": range(0, 50), "b": range(25, 75)})
>>> result = measure_tesc(attributed, "a", "b", vicinity_level=1, random_state=1)
>>> result.verdict.value in {"positive", "negative", "independent"}
True
"""

from repro.api import EpochView, Session, open_session
from repro.core.batch import PairRanking, RankedPair, rank_pairs
from repro.core.topk import ProgressiveTopKEngine, TopKRanking, top_k_pairs
from repro.core.config import TescConfig
from repro.core.tesc import TescResult, TescTester, measure_tesc
from repro.events.attributed_graph import AttributedGraph
from repro.events.event_set import EventLayer
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.stats.hypothesis import CorrelationVerdict

__version__ = "1.0.0"

__all__ = [
    "open_session",
    "Session",
    "EpochView",
    "AttributedGraph",
    "EventLayer",
    "Graph",
    "CSRGraph",
    "PairRanking",
    "RankedPair",
    "TescConfig",
    "TescTester",
    "TescResult",
    "CorrelationVerdict",
    "measure_tesc",
    "rank_pairs",
    "ProgressiveTopKEngine",
    "TopKRanking",
    "top_k_pairs",
    "__version__",
]
