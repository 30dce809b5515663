"""Untimed output verification against in-process oracles.

After the load, the workload's state is rebuilt in this process from the
same edge and event files (plus, on the churn workloads, every batch the
server committed, in order).  A seeded sample of the server's answers is
then compared for bit-identity — every field, exact floats — with what
:func:`repro.open_session` computes at the answering epoch:
``reference_ranking`` for ranks, ``topk`` with the same config and seed for
top-k answers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import open_session
from repro.core.config import TescConfig
from repro.events.attributed_graph import AttributedGraph
from repro.graph.io import read_edge_list, read_event_file
from repro.streaming import DynamicAttributedGraph

from benchmarks.ledger.workloads import TOPK_CONFIG, TOPK_K, Inputs, Leg

#: Answers sampled per workload (churn steps; topk-scan steps count twice).
SAMPLED_ANSWERS = 20


def _load_graph(inputs: Inputs) -> AttributedGraph:
    """The graph exactly as ``tesc serve`` builds it from the same files."""
    graph, labels = read_edge_list(inputs.edges_path)
    events = read_event_file(inputs.events_path,
                             {label: index for index, label in enumerate(labels)})
    cls = AttributedGraph if inputs.spec.static else DynamicAttributedGraph
    return cls(graph, events, labels=labels)


def _records(ranking) -> List[Dict[str, Any]]:
    """A ranking as the wire's pair records, built here rather than by the
    service's own record builder so a fault there cannot hide."""
    return [
        {"rank": pair.rank, "event_a": pair.event_a, "event_b": pair.event_b,
         "score": pair.score, "z_score": pair.z_score, "p_value": pair.p_value,
         "verdict": pair.verdict.value, "num_reference_nodes": pair.num_reference_nodes,
         "degenerate": pair.degenerate, "insufficient": pair.insufficient}
        for pair in ranking
    ]


def verify(inputs: Inputs, legs: Sequence[Leg], seed: int) -> Tuple[int, int]:
    """Check a seeded sample of every leg's answers; ``(checked, mismatches)``."""
    rng = np.random.default_rng([seed, 7])
    session = open_session(_load_graph(inputs), TescConfig(**inputs.config),
                           dynamic=not inputs.spec.static)
    try:
        family = inputs.spec.family
        if family == "hot-read":
            return _verify_hot_read(session, inputs, legs)
        if family == "churn":
            return _verify_churn(session, inputs, legs, rng)
        return _verify_topk_scan(session, inputs, legs, rng)
    finally:
        session.close()


def _verify_hot_read(session, inputs: Inputs, legs: Sequence[Leg]) -> Tuple[int, int]:
    # Every warm-up answer plus the seeded timed positions each client kept.
    references = [_records(session.reference_ranking(shape)) for shape in inputs.shapes]
    answers = [answer for leg in legs for answer in leg.answers]
    return len(answers), sum(pairs != references[shape] for shape, pairs in answers)


def _grouped(legs: Sequence[Leg]) -> Dict[Any, list]:
    """Every leg's answers, grouped by key (a key repeats across legs)."""
    grouped: Dict[Any, list] = {}
    for leg in legs:
        for key, answer in leg.answers:
            grouped.setdefault(key, []).append(answer)
    return grouped


def _sample(rng: np.random.Generator, steps, count: int) -> List[int]:
    steps = sorted(steps)
    chosen = rng.choice(len(steps), size=min(count, len(steps)), replace=False)
    return sorted(steps[int(index)] for index in chosen)


def _verify_churn(session, inputs: Inputs, legs: Sequence[Leg],
                  rng: np.random.Generator) -> Tuple[int, int]:
    by_step = _grouped(legs)
    chosen = set(_sample(rng, by_step, SAMPLED_ANSWERS))
    for batch in inputs.staged:
        session.commit(batch)
    checked = mismatches = 0
    for step, batch in enumerate(inputs.batches):
        session.commit(batch)
        if step not in chosen:
            continue
        reference = _records(session.reference_ranking(inputs.pairs))
        for commit_epoch, rank_epoch, pairs in by_step[step]:
            checked += 1
            mismatches += not (commit_epoch == rank_epoch == session.epoch
                               and pairs == reference)
    return checked, mismatches


def _verify_topk_scan(session, inputs: Inputs, legs: Sequence[Leg],
                      rng: np.random.Generator) -> Tuple[int, int]:
    by_key = _grouped(legs)
    checked = mismatches = 0
    for step in _sample(rng, {step for _, step in by_key}, SAMPLED_ANSWERS // 2):
        topk_seed, rank_seed = inputs.seeds[step % len(inputs.seeds)]
        expected = {
            ("topk", step): session.topk(TOPK_K, "all", random_state=topk_seed,
                                         **TOPK_CONFIG),
            ("rank", step): _records(session.reference_ranking(
                "all", random_state=rank_seed)),
        }
        for key, reference in expected.items():
            for answer in by_key.get(key, []):
                checked += 1
                mismatches += answer != reference
    return checked, mismatches
