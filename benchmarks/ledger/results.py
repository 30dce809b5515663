"""Ledger statistics and the results file that ``--out`` appends to.

A results file holds every run made into it plus, per workload and metric,
the median and quartiles over those runs (``statistics.quantiles(n=4)``,
the same rule the comparator and the acceptance check use) and the
machine it ran on.  ``baseline.json`` in this directory is one such file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from typing import Any, Dict, List, Sequence

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation; 0.0 when empty)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of repeated runs of one metric."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _git_sha() -> Any:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return completed.stdout.strip() or None


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``{workload: {metric: spread}}`` over every run's end-to-end and
    per-layer metrics."""
    collected: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        metrics = collected.setdefault(run["workload"], {})
        for name, value in {**run.get("metrics", {}), **run.get("layers", {})}.items():
            metrics.setdefault(name, []).append(value)
    return {workload: {name: spread(values) for name, values in sorted(metrics.items())}
            for workload, metrics in sorted(collected.items())}


def append_run(path: str, run: Dict[str, Any]) -> None:
    """Add one workload run to the results file at ``path``."""
    document: Dict[str, Any] = {"runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(run)
    document["meta"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "runs": len(document["runs"]),
    }
    document["summary"] = summarise(document["runs"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
