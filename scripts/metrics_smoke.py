#!/usr/bin/env python
"""CI smoke test for the telemetry surface of ``tesc serve``.

Boots a real ``tesc serve --metrics-port 0`` subprocess on a generated
graph, runs a scripted request burst through the protocol client
(ranks with repeats, top-k, stream commits, plus the ungated ``metrics``
verb), scrapes the Prometheus HTTP endpoint, and fails loudly if

* either printed address cannot be parsed from the startup banner,
* the exposition is malformed (unparseable lines, families without TYPE),
* any instrumented subsystem reports zero samples after the burst
  (requests, latency histograms, pair cache, admission, pins, commits,
  reused pair estimates, reference populations enumerated and reused,
  the density and estimate stages of rank and top-k, the sizes of the
  pair cache and of the row-digest index in front of it),
* a repeated identical rank adds no pair-cache hits, or computes a density
  matrix, looks up a sample or reads a reference population,
* the pair-estimate outcomes do not add up to the pair-cache misses,
* the sample-memo lookups do not add up to the density matrices computed
  plus the top-k requests (every rank that misses the pair cache gathers
  one matrix, and it and every top-k request consult the memo once), or
* the protocol snapshot disagrees with the scripted request counts.

The raw scrape is written to ``--out`` (default ``metrics_scrape.txt``)
and uploaded as a CI artifact next to the benchmark JSON.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.graph.generators import community_ring_graph  # noqa: E402
from repro.graph.io import write_edge_list, write_event_file  # noqa: E402
from repro.service import CorrelationClient  # noqa: E402

BANNER_RE = re.compile(r"listening on ([\d.]+):(\d+)")
METRICS_RE = re.compile(r"metrics on http://([\d.]+):(\d+)/metrics")
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (?:[0-9.eE+-]+|NaN|[+-]Inf)$"
)

#: Every instrumented subsystem must report at least one sample after the
#: scripted burst (name, minimum value).
REQUIRED_NONZERO = [
    ("tesc_requests_total", 'method="rank"'),
    ("tesc_requests_total", 'method="topk"'),
    ("tesc_requests_total", 'method="commit"'),
    ("tesc_request_seconds_count", 'method="rank"'),
    ("tesc_request_seconds_count", 'method="commit"'),
    ("tesc_pair_cache_hits_total", None),
    ("tesc_pair_cache_misses_total", None),
    ("tesc_admission_admitted_total", None),
    ("tesc_snapshots_pinned_total", None),
    ("tesc_commits_total", None),
    ("tesc_topk_rounds_total", None),
    ("tesc_sample_memo_misses_total", None),
    ("tesc_pair_estimates_total", 'outcome="reused"'),
    # Top-k requests at fresh seeds: the third draws from the population
    # the second enumerated.
    ("tesc_population_total", 'outcome="computed"'),
    ("tesc_population_total", 'outcome="reused"'),
    # Per-stage request timings, from the engine's own spans.
    ("tesc_stage_seconds_count", 'verb="rank",stage="density"'),
    ("tesc_stage_seconds_count", 'verb="rank",stage="estimate"'),
    ("tesc_stage_seconds_count", 'verb="topk",stage="density"'),
    ("tesc_stage_seconds_count", 'verb="topk",stage="estimate"'),
    # Gauges: the one per-pair cache and the row digests that find it.
    ("tesc_cached_pair_results", None),
    ("tesc_cached_row_digests", None),
]


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 compat
    print(f"metrics smoke: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def read_banner(process: subprocess.Popen, deadline: float) -> str:
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                fail(f"server exited early with {process.returncode}: {lines}")
            continue
        lines.append(line.strip())
        if METRICS_RE.search(line):
            return "\n".join(lines)
    fail(f"startup banner never appeared; saw {lines}")


def sample_value(text: str, name: str, label_fragment) -> float:
    for line in text.splitlines():
        if line.startswith("#") or not line.startswith(name):
            continue
        series = line.rsplit(" ", 1)[0]
        bare = series.split("{", 1)[0]
        if bare != name:
            continue
        if label_fragment is not None and label_fragment not in series:
            continue
        return float(line.rsplit(" ", 1)[1])
    fail(f"no sample for {name} {label_fragment or ''}".strip())


def snapshot_value(snapshot, name: str, outcome=None) -> float:
    """A counter's total over its label sets in a ``metrics`` verb snapshot,
    or over those labelled ``outcome`` when one is given."""
    return sum(
        entry["value"] for entry in snapshot[name]["values"]
        if outcome is None or entry["labels"].get("outcome") == outcome
    )


def validate_exposition(text: str) -> int:
    typed = set()
    samples = 0
    for line in text.splitlines():
        if not line.strip():
            fail("blank line inside the exposition")
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram"
            ):
                fail(f"malformed TYPE line: {line!r}")
            typed.add(parts[2])
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            fail(f"unknown comment line: {line!r}")
        if not SAMPLE_RE.match(line):
            fail(f"malformed sample line: {line!r}")
        family = line.split("{", 1)[0].split(" ", 1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", family)
        if family not in typed and base not in typed:
            fail(f"sample {family!r} has no preceding TYPE")
        samples += 1
    if samples == 0:
        fail("exposition carried zero samples")
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="metrics_scrape.txt",
                        help="where to write the raw scrape artifact")
    parser.add_argument("--startup-timeout", type=float, default=60.0)
    args = parser.parse_args()

    graph = community_ring_graph(6, 30, 5.0, 8, random_state=3)
    # Only nodes that appear in the edge list survive the round-trip
    # through the text files; build events from those.
    connected = sorted(
        node for node in range(graph.num_nodes) if graph.degree(node) > 0
    )
    third = len(connected) // 3
    events = {
        "alpha": connected[:2 * third],
        "beta": connected[third:],
        "gamma": connected[::2],
        "delta": connected[1::2],
    }
    workdir = tempfile.mkdtemp(prefix="tesc_smoke_")
    edges_path = os.path.join(workdir, "graph.txt")
    events_path = os.path.join(workdir, "events.txt")
    write_edge_list(graph, edges_path)
    write_event_file(events, events_path)

    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--edges", edges_path, "--events", events_path,
            "--port", "0", "--metrics-port", "0",
            "--sample-size", "150", "--seed", "3", "--workers", "1",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             os.environ.get("PYTHONPATH", "")]
        )},
    )
    try:
        banner = read_banner(
            process, time.monotonic() + args.startup_timeout
        )
        host, port = BANNER_RE.search(banner).groups()
        metrics_host, metrics_port = METRICS_RE.search(banner).groups()
        print(f"metrics smoke: server {host}:{port}, "
              f"exposition {metrics_host}:{metrics_port}")

        # -- the scripted burst ------------------------------------------
        num_ranks, num_topk, num_commits = 4, 3, 3
        with CorrelationClient(host, int(port), timeout=60.0) as client:
            for index in range(num_ranks):
                spec = (
                    [("alpha", "beta")] if index % 2 == 0
                    else [("alpha", "gamma"), ("beta", "delta")]
                )
                before = client.metrics()["metrics"]
                client.rank(spec)
                after = client.metrics()["metrics"]
                if index < 2:
                    continue
                # A repeat of the rank two steps back: every pair is a
                # pair-cache hit, found with no density matrix.
                hits = (snapshot_value(after, "tesc_pair_cache_hits_total")
                        - snapshot_value(before, "tesc_pair_cache_hits_total"))
                if hits != len(spec):
                    fail(f"repeated rank {spec} added {hits:g} pair-cache "
                         f"hits, expected {len(spec)}")
                for name, outcome in (("tesc_matrices_computed_total", None),
                                      ("tesc_pair_cache_misses_total", None),
                                      ("tesc_sample_memo_hits_total", None),
                                      ("tesc_sample_memo_misses_total", None),
                                      ("tesc_population_total", "computed"),
                                      ("tesc_population_total", "reused")):
                    if (snapshot_value(after, name, outcome)
                            != snapshot_value(before, name, outcome)):
                        fail(f"repeated rank {spec} moved {name} {outcome or ''}")
            print("metrics smoke: repeated ranks were pair-cache hits with no "
                  "sample, population or density matrix")
            for index in range(num_topk):
                client.topk(2, config={"random_state": 3 + index})
            # The server relabels file nodes to 0..n-1, so small ids are
            # always valid; re-attaching is an accepted no-op commit.
            for index in range(num_commits - 1):
                client.stream([{
                    "op": "event_attach", "event": "alpha", "node": index,
                }])
            # One effective commit on an event no ranked pair names: the
            # pair ranked at the new epoch misses the epoch-keyed cache but
            # reuses its estimate, since its density inputs are unchanged.
            receipt = client.stream([{
                "op": "event_attach", "event": "epsilon", "node": 0,
            }])
            if not receipt["changed"]:
                fail("the epsilon attach did not change the graph")
            client.rank([("alpha", "beta")], at_epoch=receipt["epoch"])
            snapshot = client.metrics()["metrics"]

            url = f"http://{metrics_host}:{metrics_port}/metrics"
            with urllib.request.urlopen(url, timeout=30.0) as response:
                content_type = response.headers.get("Content-Type", "")
                text = response.read().decode("utf-8")
            client.shutdown()

        if "version=0.0.4" not in content_type:
            fail(f"unexpected scrape content type {content_type!r}")

        samples = validate_exposition(text)
        print(f"metrics smoke: exposition well-formed, {samples} samples")

        for name, fragment in REQUIRED_NONZERO:
            value = sample_value(text, name, fragment)
            if not value > 0:
                fail(f"{name} {fragment or ''} is zero after the burst")
        print(f"metrics smoke: all {len(REQUIRED_NONZERO)} required "
              "subsystems report nonzero samples")

        # Every pair-cache miss is coalesced, reused or estimated.
        misses = sample_value(text, "tesc_pair_cache_misses_total", None)
        outcomes = (
            sample_value(text, "tesc_pair_estimates_total", 'outcome="estimated"')
            + sample_value(text, "tesc_pair_estimates_total", 'outcome="reused"')
            + sample_value(text, "tesc_singleflight_coalesced_total", None)
        )
        if outcomes != misses:
            fail(f"estimated + reused + coalesced = {outcomes}, "
                 f"but {misses} pair-cache misses")
        print(f"metrics smoke: {misses:g} pair-cache misses reconcile with "
              "their estimate outcomes")

        # Every rank that misses the pair cache gathers one density matrix;
        # it and every top-k request look their sample up in the memo once.
        lookups = (
            sample_value(text, "tesc_sample_memo_hits_total", None)
            + sample_value(text, "tesc_sample_memo_misses_total", None)
        )
        matrices = sample_value(text, "tesc_matrices_computed_total", None)
        if lookups != matrices + num_topk:
            fail(f"sample-memo hits + misses = {lookups}, but {matrices} "
                 f"density matrices computed and {num_topk} top-k requests")
        print(f"metrics smoke: {lookups:g} sample-memo lookups reconcile with "
              "the density matrices computed and the top-k requests")

        # The protocol snapshot must agree with the scripted counts.
        def verb_count(method):
            for entry in snapshot["tesc_requests_total"]["values"]:
                if entry["labels"] == {"method": method}:
                    return entry["value"]
            return 0.0

        expected = {
            # The loop's ranks plus the one after the effective commit.
            "rank": num_ranks + 1, "topk": num_topk, "commit": num_commits,
        }
        for method, count in expected.items():
            got = verb_count(method)
            if got != count:
                fail(f"snapshot says {got} {method} requests, sent {count}")
        print(f"metrics smoke: request counters reconcile ({expected})")

        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"metrics smoke: scrape written to {args.out}")
        return 0
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
