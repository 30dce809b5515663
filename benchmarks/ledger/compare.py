"""Compare two ledger results files.

Usage::

    python3 benchmarks/ledger/compare.py BEFORE.json AFTER.json

Both files are written by ``python3 benchmarks/ledger --out FILE`` (one
run appended per workload and call; ``baseline.json`` here is one).  For
every workload present in both, each end-to-end metric gets one row with
each side's median and quartiles, the relative change of the median and a
verdict against the metric's bound in ``BENCHMARK.json``:

``unresolved``
    either side's quartile spread, as a share of its median, exceeds the
    bound — unless every AFTER run reads better (``improved``) or worse
    (``regressed``) than every BEFORE run;
``regressed`` / ``improved``
    the AFTER median is worse / better than the BEFORE median by more than
    the bound;
``unchanged``
    otherwise.

Per-layer metrics from ``--trace`` runs follow as median deltas (no bound).
The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.ledger.results import load_benchmark, spread  # noqa: E402


def _collect(path: str, key: str) -> Dict[str, Dict[str, List[float]]]:
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    collected: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, value in run.get(key, {}).items():
            collected[run["workload"]][name].append(value)
    return collected


def verdict(before: Sequence[float], after: Sequence[float], bound: float,
            better: str) -> str:
    """The ISSUE's four-way verdict for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = spread(before), spread(after)
    if any(side["median"] == 0 or (side["q3"] - side["q1"]) / side["median"] > bound
           for side in (a, b)):
        if all(sign * (x - y) < 0 for x in after for y in before):
            return "improved"
        if all(sign * (x - y) > 0 for x in after for y in before):
            return "regressed"
        return "unresolved"
    worse = sign * (b["median"] - a["median"]) / a["median"]
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def _side(stats: Dict[str, float]) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] n={stats['n']}"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    before, after = (_collect(path, "metrics") for path in argv)
    layers_before, layers_after = (_collect(path, "layers") for path in argv)
    regressed = False
    for workload in sorted(set(before) & set(after) | set(layers_before) & set(layers_after)):
        print(f"== {workload}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = before[workload].get(name), after[workload].get(name)
            if not a or not b:
                continue
            result = verdict(a, b, metric["bound"], metric["better"])
            regressed |= result == "regressed"
            change = (spread(b)["median"] - spread(a)["median"]) / spread(a)["median"]
            print(f"  {name:<18} {_side(spread(a)):<40} -> {_side(spread(b)):<40} "
                  f"{change:+8.2%}  bound {metric['bound']:.0%}  {result}")
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            a, b = layers_before[workload].get(name), layers_after[workload].get(name)
            if not a or not b:
                continue
            median_a, median_b = spread(a)["median"], spread(b)["median"]
            change = f"{(median_b - median_a) / median_a:+8.2%}" if median_a else "       -"
            print(f"  {name:<30} {median_a:>12.4g} -> {median_b:<12.4g} {change} "
                  f"{metric['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
