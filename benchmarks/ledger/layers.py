"""Per-layer metrics from a traced leg: spans, client latencies, counters.

A span's self time is its duration minus the time its child spans cover.
Request-level numbers (wire, admission, engine self time, coverage) use the
timed window's requests only, joined to the client's measurements by the
request's ``rid``; per-call layer means and counts cover every call the
traced server made (boot, warm-up and timed window), so each compute layer
has calls on every workload.  Counter ratios are deltas over the timed
window, read through the ``metrics`` verb.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger.results import percentile
from benchmarks.ledger.workloads import Leg

VERBS = ("service.rank", "service.topk", "service.commit")
COUNTERS = (
    "tesc_pair_cache_hits_total",
    "tesc_pair_cache_misses_total",
    "tesc_matrices_computed_total",
    "tesc_pool_fallbacks_total",
    "tesc_topk_rounds_total",
    "tesc_topk_pairs_pruned_total",
    "tesc_topk_pairs_survived_total",
)
#: Late open-loop steps: started more than this after they were due.
LATE_SECONDS = 0.010


def counters(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """The :data:`COUNTERS` totals from a ``metrics`` verb snapshot."""
    return {
        name: float(sum(entry.get("value", 0.0)
                        for entry in snapshot.get(name, {}).get("values", [])))
        for name in COUNTERS
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(leg: Leg) -> Tuple[Dict[str, float], Dict[str, Optional[float]]]:
    """``(per-layer metrics, diagnostics)`` of one traced leg.

    The metrics are the BENCHMARK.json ``per_layer`` set, defined on every
    workload; the diagnostics are the layer times that only some workloads
    exercise (``None`` where a layer was never called).
    """
    timed = {rid: seconds for rid, seconds in leg.rids if rid is not None}
    by_name: Dict[str, List[tuple]] = defaultdict(list)
    covered: Dict[int, float] = defaultdict(float)
    for span in leg.spans:
        by_name[span[2]].append(span)
        if span[1] is not None:
            covered[span[1]] += span[4] - span[3]

    def duration(span: tuple) -> float:
        return span[4] - span[3]

    def calls(*names: str) -> List[tuple]:
        return [span for name in names for span in by_name[name]]

    def mean_ms(spans: Sequence[tuple]) -> Optional[float]:
        return 1000.0 * sum(map(duration, spans)) / len(spans) if spans else None

    def values(spans: Sequence[tuple]) -> List[float]:
        return [span[6] for span in spans if span[6] is not None]

    verbs = [span for span in calls(*VERBS) if span[5] in timed]
    reads = [span for span in verbs if span[2] != "service.commit"]
    delta = {name: leg.counters_after[name] - leg.counters_before[name]
             for name in COUNTERS}
    pruned = delta["tesc_topk_pairs_pruned_total"]
    columns = values(calls("density.matrix", "pool.density"))
    wal_bytes = values(calls("wal.append"))
    # A checkpoint span's value says whether the call was skipped.
    checkpoints = [span for span in calls("storage.checkpoint") if span[6] is False]
    metrics = {
        "service.wire_ms": 1000.0 * percentile(
            [timed[span[5]] - duration(span) for span in verbs], 50),
        "service.admission_wait_ms": 1000.0 * percentile(
            [duration(span) for span in calls("service.admission") if span[5] in timed], 99),
        "service.engine_self_ms": 1000.0 * percentile(
            [duration(span) - covered[span[0]] for span in verbs], 50),
        "service.pair_cache_hit_ratio": _ratio(
            delta["tesc_pair_cache_hits_total"],
            delta["tesc_pair_cache_hits_total"] + delta["tesc_pair_cache_misses_total"]),
        "service.matrices_computed": delta["tesc_matrices_computed_total"],
        "sampling.sample_ms": mean_ms(calls("sampling.sample")) or 0.0,
        "sampling.calls": float(len(calls("sampling.sample"))),
        "density.matrix_ms": mean_ms(calls("density.matrix", "pool.density")) or 0.0,
        "density.columns": _ratio(sum(columns), len(columns)),
        "estimate.pairs_ms": mean_ms(calls("estimate.pairs", "pool.estimate")) or 0.0,
        "estimate.pairs": float(sum(values(calls("estimate.pairs", "pool.estimate")))),
        "pool.fallbacks": leg.counters_after["tesc_pool_fallbacks_total"],
        "topk.rounds": delta["tesc_topk_rounds_total"],
        "topk.pruned_ratio": _ratio(pruned, pruned + delta["tesc_topk_pairs_survived_total"]),
        "wal.bytes_per_batch": _ratio(sum(wal_bytes), len(wal_bytes)),
        "storage.replayed_batches": float(sum(values(calls("storage.recover")))),
        "storage.checkpoints": float(len(checkpoints)),
        "graph.read_edges_ms": mean_ms(calls("graph.read_edges")) or 0.0,
        "trace.coverage": _ratio(sum(covered[span[0]] for span in reads),
                                 sum(map(duration, reads))),
        "loadgen.late_steps": float(sum(late > LATE_SECONDS for late in leg.lateness)),
    }
    topk_verbs = calls("service.topk")
    screen = sum(map(duration, calls("topk.screen")))
    diagnostics = {
        "pool.density_ms": mean_ms(calls("pool.density")),
        "pool.estimate_ms": mean_ms(calls("pool.estimate")),
        "topk.top_k_ms": mean_ms(calls("topk.top_k")),
        "topk.screen_ms": 1000.0 * screen / len(topk_verbs) if topk_verbs else None,
        "streaming.apply_ms": mean_ms(calls("streaming.apply")),
        "streaming.pin_ms": mean_ms(calls("streaming.pin")),
        "wal.append_ms": mean_ms(calls("wal.append")),
        "storage.recover_ms": mean_ms(calls("storage.recover")),
        "storage.checkpoint_ms": mean_ms(checkpoints),
        "loadgen.lateness_max_ms": 1000.0 * max(leg.lateness) if leg.lateness else None,
    }
    return metrics, diagnostics
