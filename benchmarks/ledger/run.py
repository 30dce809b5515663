"""Run ledger workloads against live ``tesc serve`` subprocesses.

``python3 benchmarks/ledger --workload churn --seed 3`` runs one workload
(all four when ``--workload`` is omitted), prints every metric by name with
its unit, and ends with one JSON line::

    {"correct": true, "attempted": 120, "failed": 0,
     "metrics": {"rank_p50_ms": {"value": 104.2, "unit": "ms"}, ...}}

Without ``--trace`` the metrics are the end-to-end set, measured untraced.
With ``--trace`` the run is split into two equal legs on fresh servers over
the same inputs — one untraced, one through ``traced_serve.py`` — and the
metrics are the per-layer set, including the tracing overhead between them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import tempfile
from typing import Any, Dict, List, Optional

from benchmarks.ledger import layers, verify, workloads
from benchmarks.ledger.results import ROOT, append_run, percentile
from benchmarks.ledger.server import ServerProcess
from benchmarks.ledger.workloads import RID, WORKLOADS, Leg

#: Length of one run's timed load, in seconds (BENCHMARK.json run_seconds).
RUN_SECONDS = 15.0
#: Boots per untraced run; setup_s is their median.  The last one serves
#: the load.
BOOTS = 5
WORK_ROOT = os.path.join(ROOT, ".ledger_work")

END_TO_END = {
    "setup_s": "s",
    "rank_p50_ms": "ms",
    "lead_p50_ms": "ms",
    "requests_per_s": "1/s",
    "server_rss_mb": "MB",
}
PER_LAYER = {
    "service.wire_ms": "ms",
    "service.admission_wait_ms": "ms",
    "service.engine_self_ms": "ms",
    "service.pair_cache_hit_ratio": "ratio",
    "service.matrices_computed": "count",
    "sampling.sample_ms": "ms",
    "sampling.calls": "count",
    "density.matrix_ms": "ms",
    "density.columns": "count",
    "estimate.pairs_ms": "ms",
    "estimate.pairs": "count",
    "pool.fallbacks": "count",
    "topk.rounds": "count",
    "topk.pruned_ratio": "ratio",
    "wal.bytes_per_batch": "bytes",
    "storage.replayed_batches": "count",
    "storage.checkpoints": "count",
    "graph.read_edges_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "loadgen.late_steps": "count",
}


def run_leg(inputs: workloads.Inputs, seconds: float, boots: int,
            spans_path: Optional[str] = None) -> Leg:
    """Boot ``boots`` servers in turn (keeping the last), warm it, drive the
    timed window, read its counters and peak memory, and stop it."""
    leg = Leg()
    log = os.path.join(inputs.workdir, "server.log")
    server: Optional[ServerProcess] = None
    try:
        for _ in range(boots):
            if server is not None:
                server.stop()
            server = ServerProcess.boot(inputs.serve_args(), log, spans_path)
            leg.boot_seconds.append(server.boot_seconds)
        workloads.warm(server, inputs, leg)
        leg.counters_before = layers.counters(server.client.metrics()["metrics"])
        if spans_path is None:
            workloads.drive(server, inputs, seconds, leg, traced=False)
        else:
            with RID:
                workloads.drive(server, inputs, seconds, leg, traced=True)
        leg.counters_after = layers.counters(server.client.metrics()["metrics"])
        leg.rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    if spans_path is not None:
        with open(spans_path, encoding="utf-8") as handle:
            leg.spans = json.load(handle)["spans"]
    return leg


def end_to_end(leg: Leg) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(leg.boot_seconds),
        "rank_p50_ms": 1000.0 * percentile(leg.rank, 50),
        "lead_p50_ms": 1000.0 * percentile(leg.lead, 50),
        "requests_per_s": leg.completed / leg.elapsed if leg.elapsed else 0.0,
        "server_rss_mb": leg.rss_mb,
    }


def tails(leg: Leg) -> Dict[str, Any]:
    """Latency tails and sample counts: reported, never gated."""
    return {
        "rank_n": len(leg.rank),
        "rank_p90_ms": 1000.0 * percentile(leg.rank, 90),
        "rank_p99_ms": 1000.0 * percentile(leg.rank, 99),
        "lead_n": len(leg.lead),
        "lead_p90_ms": 1000.0 * percentile(leg.lead, 90),
        "lead_p95_ms": 1000.0 * percentile(leg.lead, 95),
        "unexpected_cache_outcomes": leg.unexpected_cache_outcome,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> Dict[str, Any]:
    """One workload run; returns its result record."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        leg_seconds = seconds / 2 if trace else seconds
        inputs = workloads.prepare(name, seed, workdir, leg_seconds, small)
        if trace:
            plain = run_leg(inputs, leg_seconds, boots=1)
            traced = run_leg(inputs, leg_seconds, boots=1,
                             spans_path=os.path.join(workdir, "spans.json"))
            legs = [plain, traced]
        else:
            legs = [run_leg(inputs, seconds, boots=BOOTS)]
        checked, mismatches = verify.verify(inputs, legs, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(leg.failed for leg in legs) + mismatches
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": sum(leg.attempted for leg in legs), "failed": failed,
        "verified": checked, "mismatches": mismatches,
    }
    record["correct"] = failed == 0 and checked > 0
    record["error_rate"] = failed / max(record["attempted"], 1)
    if trace:
        layer_values, diagnostics = layers.layer_metrics(traced)

        def step_p50(leg: Leg) -> float:
            # A step's two medians; on hot-read the lead is the rank itself.
            return percentile(leg.rank, 50) + percentile(leg.lead, 50)

        layer_values["trace.overhead"] = (
            step_p50(traced) / step_p50(plain) if step_p50(plain) else 0.0)
        record["layers"] = layer_values
        record["diagnostics"] = {**diagnostics,
                                 **{f"untraced.{key}": value
                                    for key, value in end_to_end(plain).items()}}
    else:
        record["metrics"] = end_to_end(legs[0])
        record["diagnostics"] = tails(legs[0])
    return record


def _report(record: Dict[str, Any]) -> None:
    metrics, units = ((record["layers"], PER_LAYER) if record["trace"]
                      else (record["metrics"], END_TO_END))
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"[{record['workload']} seed={record['seed']}] {kind}, "
          f"{record['seconds']:g} s of load")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.4f} {unit}")
    for name, value in record["diagnostics"].items():
        shown = "-" if value is None else f"{value:.4f}"
        print(f"  ({name:<28} {shown:>14})")
    print(f"  verification: {record['verified']} answers checked, "
          f"{record['mismatches']} mismatches; {record['failed']} of "
          f"{record['attempted']} requests failed "
          f"(error_rate {record['error_rate']:.4f})", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed load per run (split in two legs with --trace)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics from a traced leg")
    parser.add_argument("--small", action="store_true",
                        help="a ~1,250-node graph instead of 20,020 (smoke test)")
    parser.add_argument("--out", default=None,
                        help="append each run to this results file (see compare.py)")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        _report(record)
        if args.out:
            append_run(args.out, record)
        records.append(record)
    units = PER_LAYER if args.trace else END_TO_END
    key = "layers" if args.trace else "metrics"
    prefix = len(records) > 1
    result = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            (f"{record['workload']}.{name}" if prefix else name):
                {"value": record[key][name], "unit": unit}
            for record in records for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
