"""Harness smoke test for the ledger.

Run it by path (the tier-1 suite only collects ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py -q

Every workload runs for ~2 s on the small graph, untraced and traced.  Each
run must print every BENCHMARK.json metric of its kind with its unit, fail
nothing, and leave no shared-memory segment and no server or pool process
behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _shm_segments() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("tesc_")}


def _processes() -> dict:
    """pid -> command line of every process visible here."""
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    found[int(entry)] = handle.read().replace(b"\0", b" ").decode()
            except OSError:
                continue
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_workload_smoke(workload, trace):
    segments_before = _shm_segments()
    pids_before = set(_processes())
    completed = subprocess.run(
        [sys.executable, HERE, "--workload", workload, "--seed", "0",
         "--seconds", "2", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate == 0

    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        printed = [line.split() for line in lines[:-1]]
        assert [metric["name"], f"{reported['value']:.4f}", metric["unit"]] in printed

    assert _shm_segments() <= segments_before
    survivors = {
        pid: cmdline for pid, cmdline in _processes().items()
        if pid not in pids_before
        and (".ledger_work" in cmdline or "resource_tracker" in cmdline)
    }
    assert not survivors
