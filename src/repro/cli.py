"""Command-line interface for the TESC reproduction library.

Subcommands
-----------
``tesc test``
    Run a TESC significance test for two events stored in edge-list/event
    files.
``tesc rank``
    Batch-test many event pairs on one graph with the shared-sample
    :class:`~repro.core.batch.BatchTescEngine` and print them ranked
    (``--top-k`` routes through the progressive engine when sorting by
    score).
``tesc topk``
    Progressive top-k: grow the shared sample in geometric rounds, prune
    pairs whose confidence interval falls below the k-th lower bound, and
    print the surviving top-k (identical to a full ``tesc rank`` top-k).
``tesc stream``
    Replay a JSONL delta file through a session: commit each batch, rank
    the monitored pairs at the commit's epoch, and print what changed
    since the previous answer with the density columns computed and
    carried forward and the re-scored pairs whose estimate was reused.
``tesc serve``
    Start the correlation service: a persistent server answering
    ``rank``/``topk``/``stream`` requests over a local socket, with
    thread-sharded density passes and epoch-keyed result caching
    (``--metrics-port`` adds a Prometheus HTTP endpoint,
    ``--slow-request-seconds`` a JSON-lines slow-request log).
``tesc status``
    Summarise a running server's status and metrics once, or as a live
    terminal dashboard with ``--watch``.
``tesc checkpoint``
    Force a durable checkpoint on a running ``tesc serve --store`` server
    (ungated, off the commit path; the covered WAL prefix is compacted).
``tesc experiment``
    Run one of the paper's experiments (figure5 ... table5) and print the
    regenerated tables.
``tesc dataset``
    Generate one of the synthetic datasets and print its summary.
``tesc simulate``
    Run a small simulation study (recall vs noise) on a synthetic graph.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.core.batch import SORT_KEYS
from repro.core.config import DEFAULT_TOPK_INITIAL_SAMPLE_SIZE, TescConfig
from repro.core.parallel import ParallelBatchTescEngine, resolve_workers
from repro.core.tesc import TescTester
from repro.datasets.registry import available_datasets, load_dataset
from repro.events.attributed_graph import AttributedGraph
from repro.experiments.runner import available_experiments, run_all
from repro.graph.io import read_edge_list, read_event_file
from repro.graph.metrics import summarize_graph
from repro.sampling.registry import available_samplers
from repro.simulation.runner import SimulationStudy
from repro.utils.logging import configure_logging
from repro.utils.tables import TextTable, render_mapping


def _shared_engine_parent(top_k: bool = True) -> argparse.ArgumentParser:
    """The flags every engine-backed subcommand accepts identically.

    ``rank``, ``topk``, ``stream``, ``serve`` and ``experiment`` all take
    ``--workers`` and ``--seed`` with the same spelling and semantics, and
    all but ``experiment`` (whose configs fix their own pair counts) take
    ``--top-k``; defining them once on a parent parser keeps the
    subcommands from drifting apart.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shared engine options")
    group.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="split density passes across N threads (0 = one per core; "
             "experiment: run N experiments in parallel processes); results "
             "are identical to a serial run",
    )
    if top_k:
        group.add_argument(
            "--top-k", type=int, default=None, metavar="K",
            help="cap output at the K best-ranked pairs (serve: server-side "
                 "default for rank/topk requests; topk: alias for --k)",
        )
    group.add_argument(
        "--seed", type=int, default=None,
        help="random seed (TescConfig.random_state; experiment: reseeds "
             "each experiment's config)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="tesc",
        description="Two-Event Structural Correlation (TESC) testing framework",
    )
    parser.add_argument("--version", action="version", version=f"tesc {__version__}")
    parser.add_argument("--verbose", action="store_true", help="enable INFO logging")
    subparsers = parser.add_subparsers(dest="command")
    shared = _shared_engine_parent()

    test_parser = subparsers.add_parser("test", help="test one event pair from files")
    test_parser.add_argument("--edges", required=True, help="edge-list file (u v per line)")
    test_parser.add_argument("--events", required=True, help="event file (event<TAB>node)")
    test_parser.add_argument("--event-a", required=True)
    test_parser.add_argument("--event-b", required=True)
    test_parser.add_argument("--level", type=int, default=1, help="vicinity level h")
    test_parser.add_argument("--sample-size", type=int, default=900)
    test_parser.add_argument("--sampler", default="batch_bfs", choices=available_samplers())
    test_parser.add_argument("--alpha", type=float, default=0.05)
    test_parser.add_argument(
        "--alternative", default="two-sided", choices=["two-sided", "greater", "less"]
    )
    test_parser.add_argument("--seed", type=int, default=None)

    rank_parser = subparsers.add_parser(
        "rank", parents=[shared],
        help="batch-test many event pairs and print them ranked",
    )
    rank_parser.add_argument("--edges", required=True, help="edge-list file (u v per line)")
    rank_parser.add_argument("--events", required=True, help="event file (event<TAB>node)")
    rank_parser.add_argument(
        "--pair", nargs=2, action="append", metavar=("EVENT_A", "EVENT_B"),
        help="one pair to test (repeatable); default: all pairs of events in the file",
    )
    rank_parser.add_argument("--level", type=int, default=1, help="vicinity level h")
    rank_parser.add_argument("--sample-size", type=int, default=900)
    rank_parser.add_argument(
        "--sampler", default="batch_bfs",
        choices=["batch_bfs", "exhaustive", "whole_graph", "reject"],
        help="uniform samplers only (importance weights cannot be shared across pairs)",
    )
    rank_parser.add_argument("--alpha", type=float, default=0.05)
    rank_parser.add_argument("--sort-by", default="score", choices=list(SORT_KEYS))
    rank_parser.add_argument("--markdown", action="store_true",
                             help="render the ranking as markdown")
    rank_parser.add_argument(
        "--no-progressive", action="store_true",
        help="with --top-k and --sort-by score: force the full batch engine "
             "instead of routing through the progressive top-k engine",
    )

    topk_parser = subparsers.add_parser(
        "topk", parents=[shared],
        help="progressive top-k pair ranking with confidence-bound pruning",
    )
    topk_parser.add_argument("--edges", required=True, help="edge-list file (u v per line)")
    topk_parser.add_argument("--events", required=True, help="event file (event<TAB>node)")
    topk_parser.add_argument("--k", type=int, default=None,
                             help="how many top pairs to return "
                                  "(--top-k is accepted as an alias)")
    topk_parser.add_argument(
        "--pair", nargs=2, action="append", metavar=("EVENT_A", "EVENT_B"),
        help="one candidate pair (repeatable); default: all pairs of events in the file",
    )
    topk_parser.add_argument("--level", type=int, default=1, help="vicinity level h")
    topk_parser.add_argument("--sample-size", type=int, default=900,
                             help="full reference-sample budget (the last round's size)")
    topk_parser.add_argument(
        "--sampler", default="batch_bfs",
        choices=["batch_bfs", "exhaustive", "whole_graph", "reject"],
        help="uniform samplers only (importance weights cannot be shared across pairs)",
    )
    topk_parser.add_argument("--alpha", type=float, default=0.05)
    topk_parser.add_argument(
        "--confidence", type=float, default=None, metavar="C",
        help="two-sided confidence level of the pruning bounds (default 0.995)",
    )
    topk_parser.add_argument(
        "--initial-sample", type=int, default=None, metavar="N0",
        help="first-round prefix size (default 256)",
    )
    schedule_group = topk_parser.add_mutually_exclusive_group()
    schedule_group.add_argument(
        "--growth", type=float, default=None, metavar="G",
        help="geometric growth factor between rounds (default 2.0)",
    )
    schedule_group.add_argument(
        "--rounds", type=int, default=None, metavar="R",
        help="alternative to --growth: target number of rounds from the "
             "initial size to the budget (the growth factor is derived)",
    )
    topk_parser.add_argument(
        "--bound", default=None, choices=["asymptotic", "certified"],
        help="pruning-bound variance: asymptotic (tight, default) or the "
             "paper's certified upper bound (conservative, prunes late)",
    )
    topk_parser.add_argument("--markdown", action="store_true",
                             help="render the ranking as markdown")

    stream_parser = subparsers.add_parser(
        "stream", parents=[shared],
        help="replay a delta file, incrementally re-ranking monitored pairs",
    )
    stream_parser.add_argument("--edges", required=True, help="edge-list file (u v per line)")
    stream_parser.add_argument("--events", required=True, help="event file (event<TAB>node)")
    stream_parser.add_argument(
        "--deltas", required=True,
        help="JSONL delta file (edge_add/edge_remove/event_attach/event_detach "
             'records with {"op": "commit"} batch separators)',
    )
    stream_parser.add_argument(
        "--pair", nargs=2, action="append", metavar=("EVENT_A", "EVENT_B"),
        help="one pair to monitor (repeatable); default: all pairs of events in the file",
    )
    stream_parser.add_argument("--level", type=int, default=1, help="vicinity level h")
    stream_parser.add_argument("--sample-size", type=int, default=900)
    stream_parser.add_argument(
        "--sampler", default="batch_bfs",
        choices=["batch_bfs", "exhaustive", "whole_graph", "reject"],
        help="uniform samplers only (importance weights cannot be shared across pairs)",
    )
    stream_parser.add_argument("--alpha", type=float, default=0.05)
    stream_parser.add_argument("--sort-by", default="score", choices=list(SORT_KEYS))
    stream_parser.add_argument("--markdown", action="store_true",
                               help="render tables as markdown")
    stream_parser.add_argument(
        "--concurrent-queries", type=int, default=0, metavar="N",
        help="while the replay commits, run N threads of snapshot-isolated "
             "rank queries against the same graph through the Session API "
             "and report their throughput — an HTAP smoke test: readers "
             "never block commits and each answer carries its epoch",
    )

    serve_parser = subparsers.add_parser(
        "serve", parents=[shared],
        help="start the correlation service over a local socket",
    )
    serve_parser.add_argument("--edges", required=True, help="edge-list file (u v per line)")
    serve_parser.add_argument("--events", required=True, help="event file (event<TAB>node)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (0 picks a free one, printed at startup)")
    serve_parser.add_argument("--level", type=int, default=1, help="vicinity level h")
    serve_parser.add_argument("--sample-size", type=int, default=900)
    serve_parser.add_argument(
        "--sampler", default="batch_bfs",
        choices=["batch_bfs", "exhaustive", "whole_graph", "reject"],
        help="uniform samplers only (importance weights cannot be shared across pairs)",
    )
    serve_parser.add_argument("--alpha", type=float, default=0.05)
    serve_parser.add_argument(
        "--static", action="store_true",
        help="serve a read-only graph: reject stream commits with 400",
    )
    serve_parser.add_argument(
        "--max-concurrency", type=int, default=4,
        help="requests executing at once before new arrivals queue",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=16,
        help="queued requests before new arrivals are rejected with 429",
    )
    serve_parser.add_argument(
        "--queue-timeout", type=float, default=30.0,
        help="seconds a queued request may wait before a 408 timeout",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve Prometheus text metrics over HTTP on this port "
             "(0 picks a free one, printed at startup); the metrics "
             "protocol verb works regardless",
    )
    serve_parser.add_argument(
        "--slow-request-seconds", type=float, default=None,
        help="log requests slower than this as JSON lines (span tree "
             "included) through the repro.obs.slowlog logger",
    )
    serve_parser.add_argument(
        "--wal", metavar="PATH", default=None,
        help="durable write-ahead log for stream commits: batches already "
             "committed to PATH are replayed into the graph on boot, so a "
             "killed server restarts at its last committed epoch "
             "(incompatible with --static)",
    )
    serve_parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="checkpoint store directory: boot restores the newest valid "
             "checkpoint and replays only the WAL tail past it; the "
             "checkpoint protocol verb and --checkpoint-interval cut new "
             "ones.  Defaults --wal to DIR/wal.log when not given "
             "(incompatible with --static)",
    )
    serve_parser.add_argument(
        "--checkpoint-interval", type=float, default=None, metavar="N",
        help="seconds between automatic background checkpoints (needs "
             "--store; omit to checkpoint only on demand)",
    )
    serve_parser.add_argument(
        "--checkpoint-retain", type=int, default=2, metavar="K",
        help="valid checkpoints kept after each new one (default 2)",
    )

    checkpoint_parser = subparsers.add_parser(
        "checkpoint",
        help="force a checkpoint on a running tesc serve --store instance",
    )
    checkpoint_parser.add_argument("--host", default="127.0.0.1")
    checkpoint_parser.add_argument("--port", type=int, required=True,
                                   help="port of the running tesc serve instance")
    checkpoint_parser.add_argument(
        "--force", action="store_true",
        help="checkpoint even if the epoch is unchanged since the last one",
    )

    status_parser = subparsers.add_parser(
        "status",
        help="summarise a running server's status and metrics",
    )
    status_parser.add_argument("--host", default="127.0.0.1")
    status_parser.add_argument("--port", type=int, required=True,
                               help="port of the running tesc serve instance")
    status_parser.add_argument(
        "--watch", action="store_true",
        help="refresh the summary every --interval seconds until Ctrl-C",
    )
    status_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --watch, in seconds",
    )
    status_parser.add_argument(
        "--iterations", type=int, default=None,
        help="stop --watch after this many refreshes (mainly for tests)",
    )

    experiment_parser = subparsers.add_parser(
        "experiment", parents=[_shared_engine_parent(top_k=False)],
        help="reproduce one or more of the paper's tables/figures",
    )
    experiment_parser.add_argument(
        "experiment_ids", nargs="+", choices=available_experiments(),
        metavar="experiment_id",
        help="one or more of: " + ", ".join(available_experiments()),
    )
    experiment_parser.add_argument("--markdown", action="store_true",
                                   help="render tables as markdown")

    dataset_parser = subparsers.add_parser("dataset", help="generate a synthetic dataset")
    dataset_parser.add_argument("name", choices=available_datasets())
    dataset_parser.add_argument("--scale", default="default")
    dataset_parser.add_argument("--seed", type=int, default=None)

    simulate_parser = subparsers.add_parser("simulate", help="run a small recall study")
    simulate_parser.add_argument("--correlation", choices=["positive", "negative"],
                                 default="positive")
    simulate_parser.add_argument("--level", type=int, default=1)
    simulate_parser.add_argument("--noise", type=float, default=0.0)
    simulate_parser.add_argument("--num-pairs", type=int, default=5)
    simulate_parser.add_argument("--event-size", type=int, default=300)
    simulate_parser.add_argument("--sample-size", type=int, default=200)
    simulate_parser.add_argument("--sampler", default="batch_bfs", choices=available_samplers())
    simulate_parser.add_argument("--seed", type=int, default=7)
    return parser


def _command_test(args: argparse.Namespace) -> int:
    graph, labels = read_edge_list(args.edges)
    label_to_id = {label: index for index, label in enumerate(labels)}
    events = read_event_file(args.events, label_to_id=label_to_id)
    attributed = AttributedGraph(graph, events, labels=labels)
    config = TescConfig(
        vicinity_level=args.level,
        sample_size=args.sample_size,
        sampler=args.sampler,
        alpha=args.alpha,
        alternative=args.alternative,
        random_state=args.seed,
    )
    result = TescTester(attributed, config).test(args.event_a, args.event_b)
    print(result)
    print(
        render_mapping(
            {
                "score (t)": f"{result.score:+.4f}",
                "z-score": f"{result.z_score:+.3f}",
                "p-value": f"{result.p_value:.3e}",
                "verdict": result.verdict.value,
                "reference nodes": result.num_reference_nodes,
                "sampler": args.sampler,
            },
            title="TESC test",
        )
    )
    return 0


def _command_rank(args: argparse.Namespace) -> int:
    graph, labels = read_edge_list(args.edges)
    label_to_id = {label: index for index, label in enumerate(labels)}
    events = read_event_file(args.events, label_to_id=label_to_id)
    attributed = AttributedGraph(graph, events, labels=labels)
    config = TescConfig(
        vicinity_level=args.level,
        sample_size=args.sample_size,
        sampler=args.sampler,
        alpha=args.alpha,
        random_state=args.seed,
    )
    pairs = [tuple(pair) for pair in args.pair] if args.pair else "all"
    workers = resolve_workers(args.workers)
    if (
        args.top_k is not None
        and args.sort_by == "score"
        and not args.no_progressive
    ):
        # A top-k-by-score request is exactly the progressive engine's
        # workload; results are identical to the batch path, only cheaper.
        from repro.core.topk import ProgressiveTopKEngine

        with ProgressiveTopKEngine(attributed, config, workers=workers) as engine:
            topk_ranking = engine.top_k(args.top_k, pairs)
        _print_topk(topk_ranking, workers, args)
        return 0
    # With workers <= 1 the parallel engine is the serial BatchTescEngine,
    # so one code path serves both modes.
    with ParallelBatchTescEngine(attributed, config, workers=workers) as engine:
        ranking = engine.rank_pairs(pairs, top_k=args.top_k, sort_by=args.sort_by)
        stats = engine.stats
    print(ranking.render(markdown=args.markdown))
    print()
    print(
        render_mapping(
            {
                "pairs tested": stats.num_pairs,
                "events involved": stats.num_events,
                "shared reference nodes": ranking.sample.num_distinct,
                "sampling passes": stats.samples_drawn,
                "density BFS calls": stats.density_bfs_calls,
                "workers": workers,
                "sampler": args.sampler,
                "level": args.level,
            },
            title="batch engine",
        )
    )
    return 0


def _print_topk(ranking, workers: int, args: argparse.Namespace) -> int:
    """Render a progressive top-k ranking plus its round/pruning summary."""
    stats = ranking.topk_stats
    print(ranking.render(markdown=args.markdown))
    print()
    rounds = TextTable(
        ["round", "prefix n", "new nodes", "pairs in", "estimated", "pruned",
         "live events", "k-th lower bound"]
    )
    for entry in stats.rounds:
        rounds.add_row(
            [
                entry.index + 1,
                entry.sample_size,
                entry.new_reference_nodes,
                entry.pairs_entering,
                entry.pairs_estimated,
                entry.pairs_pruned,
                entry.live_events,
                "-" if entry.kth_lower_bound is None
                else f"{entry.kth_lower_bound:+.4f}",
            ]
        )
    print(rounds.render(markdown=args.markdown))
    print()
    print(
        render_mapping(
            {
                "k": stats.k,
                "candidate pairs": stats.num_pairs,
                "pairs pruned": stats.pairs_pruned,
                "survivors at full budget": stats.pairs_survived,
                "screening estimates": stats.screen_estimates,
                "full-budget estimates": stats.final_estimates,
                "sample budget": stats.budget,
                "density BFS calls": stats.density_bfs_calls,
                "confidence": ranking.confidence,
                "workers": workers,
                "sampler": args.sampler,
                "level": args.level,
            },
            title="progressive top-k engine",
        )
    )
    return 0


def _command_topk(args: argparse.Namespace) -> int:
    from repro.core.topk import ProgressiveTopKEngine, derive_growth_factor

    k = args.k if args.k is not None else args.top_k
    if k is None:
        print("tesc topk: one of --k / --top-k is required", file=sys.stderr)
        return 2
    graph, labels = read_edge_list(args.edges)
    label_to_id = {label: index for index, label in enumerate(labels)}
    events = read_event_file(args.events, label_to_id=label_to_id)
    attributed = AttributedGraph(graph, events, labels=labels)
    config_kwargs = dict(
        vicinity_level=args.level,
        sample_size=args.sample_size,
        sampler=args.sampler,
        alpha=args.alpha,
        random_state=args.seed,
    )
    if args.confidence is not None:
        config_kwargs["topk_confidence"] = args.confidence
    if args.initial_sample is not None:
        config_kwargs["topk_initial_sample_size"] = args.initial_sample
    if args.bound is not None:
        config_kwargs["topk_bound"] = args.bound
    if args.growth is not None:
        config_kwargs["topk_growth_factor"] = args.growth
    elif args.rounds is not None:
        initial = config_kwargs.get(
            "topk_initial_sample_size", DEFAULT_TOPK_INITIAL_SAMPLE_SIZE
        )
        config_kwargs["topk_growth_factor"] = derive_growth_factor(
            initial, args.sample_size, args.rounds
        )
    config = TescConfig(**config_kwargs)
    pairs = [tuple(pair) for pair in args.pair] if args.pair else "all"
    workers = resolve_workers(args.workers)
    with ProgressiveTopKEngine(attributed, config, workers=workers) as engine:
        ranking = engine.top_k(k, pairs)
    return _print_topk(ranking, workers, args)


def _render_records(records: List[Dict[str, Any]], markdown: bool) -> str:
    """A ranking table from service pair records."""
    table = TextTable(
        ["rank", "event a", "event b", "score", "z", "p-value", "verdict", "n"]
    )
    for pair in records:
        table.add_row(
            [
                pair["rank"],
                pair["event_a"],
                pair["event_b"],
                f"{pair['score']:+.4f}",
                f"{pair['z_score']:+.2f}",
                f"{pair['p_value']:.2e}",
                pair["verdict"],
                pair["num_reference_nodes"],
            ]
        )
    return table.render(markdown=markdown)


def _render_changes(
    changes: List[Tuple[Optional[Dict[str, Any]], Dict[str, Any]]],
    markdown: bool,
) -> str:
    """The ``(old, new)`` records of the pairs whose statistics moved
    (``old`` is ``None`` for a pair the previous answer did not have)."""
    if not changes:
        return "no ranking changes"
    table = TextTable(
        ["event a", "event b", "old score", "new score",
         "old verdict", "new verdict", "rank"]
    )
    for old, new in changes:
        table.add_row(
            [
                new["event_a"],
                new["event_b"],
                "-" if old is None else f"{old['score']:+.4f}",
                f"{new['score']:+.4f}",
                "-" if old is None else old["verdict"],
                new["verdict"],
                new["rank"],
            ]
        )
    return table.render(markdown=markdown)


def _command_stream(args: argparse.Namespace) -> int:
    import threading

    from repro.api import Session
    from repro.streaming import DeltaLog, DynamicAttributedGraph

    graph, labels = read_edge_list(args.edges)
    label_to_id = {label: index for index, label in enumerate(labels)}
    events = read_event_file(args.events, label_to_id=label_to_id)
    dynamic = DynamicAttributedGraph(graph, events, labels=labels)
    config = TescConfig(
        vicinity_level=args.level,
        sample_size=args.sample_size,
        sampler=args.sampler,
        alpha=args.alpha,
        random_state=args.seed,
    )
    pairs = [tuple(pair) for pair in args.pair] if args.pair else "all"
    log = DeltaLog.load(args.deltas)
    session = Session(dynamic, config=config, workers=resolve_workers(args.workers))

    def shown(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        # Ranks are assigned over every pair, so a prefix is the top-k.
        return records if args.top_k is None else records[: max(args.top_k, 0)]

    def counters() -> Tuple[int, int, int]:
        return tuple(
            int(session.metrics.value(name, outcome=outcome))
            for name, outcome in (
                ("tesc_density_columns_total", "computed"),
                ("tesc_density_columns_total", "carried"),
                ("tesc_pair_estimates_total", "reused"),
            )
        )

    # --concurrent-queries: snapshot-isolated readers racing the replay.
    # Each thread loops rank() through the same Session; every query pins an
    # epoch at admission, so the replay's commits never block it and never
    # tear its view.
    stop = threading.Event()
    counts: List[int] = [0] * max(args.concurrent_queries, 0)
    epochs: set = set()
    epochs_lock = threading.Lock()
    query_threads: List[threading.Thread] = []

    def _query_loop(slot: int) -> None:
        done = 0
        while not stop.is_set():
            response = session.rank(pairs, top_k=args.top_k)
            done += 1
            with epochs_lock:
                epochs.add(response["epoch"])
        counts[slot] = done

    for slot in range(len(counts)):
        thread = threading.Thread(
            target=_query_loop, args=(slot,),
            name=f"tesc-stream-query-{slot}", daemon=True,
        )
        query_threads.append(thread)
        thread.start()
    commits = 0
    hung_readers: List[str] = []
    try:
        ranking = session.rank(pairs, sort_by=args.sort_by)["pairs"]
        print("initial ranking:")
        print(_render_records(shown(ranking), args.markdown))
        for number, batch in enumerate(log.replay(), start=1):
            before = counters()
            receipt = session.commit(batch)
            response = session.rank(
                pairs, sort_by=args.sort_by, at_epoch=receipt["epoch"]
            )
            commits = number
            after = counters()
            old = {(pair["event_a"], pair["event_b"]): pair for pair in ranking}
            changes = []
            for pair in response["pairs"]:
                previous = old.get((pair["event_a"], pair["event_b"]))
                if previous is None or any(
                    previous[field] != pair[field]
                    for field in ("score", "z_score", "p_value", "verdict")
                ):
                    changes.append((previous, pair))
            flips = sum(
                previous is None or previous["verdict"] != pair["verdict"]
                for previous, pair in changes
            )
            ranking = response["pairs"]
            print()
            print(
                f"commit {number}: {len(batch)} deltas -> epoch "
                f"{receipt['epoch']}, {len(changes)} pairs changed "
                f"({flips} verdict flips), columns "
                f"{after[0] - before[0]} computed / {after[1] - before[1]} "
                f"carried, pairs {response['computed_pairs']} re-scored "
                f"({after[2] - before[2]} reused) / "
                f"{response['cached_pairs']} cached"
            )
            print(_render_changes(changes, args.markdown))
    finally:
        stop.set()
        for thread in query_threads:
            thread.join(timeout=60.0)
            if thread.is_alive():
                hung_readers.append(thread.name)
        if not hung_readers:
            session.close()
    if hung_readers:
        # A reader that outlived its join window is wedged (deadlocked or
        # stuck in a query that should have returned within a minute).
        # Report and fail rather than exiting 0 over a silent hang; the
        # session is deliberately left open — closing it underneath a live
        # thread would only mask the hang with a second failure.
        print(
            "tesc stream: ERROR: "
            f"{len(hung_readers)} concurrent query thread(s) failed to stop "
            f"within 60s: {', '.join(hung_readers)}",
            file=sys.stderr, flush=True,
        )
        return 3
    print()
    print("final ranking:")
    print(_render_records(shown(ranking), args.markdown))
    if query_threads:
        total = sum(counts)
        spread = f"{min(epochs)}..{max(epochs)}" if epochs else "-"
        print()
        print(
            f"concurrent queries: {total} snapshot-isolated ranks from "
            f"{args.concurrent_queries} thread(s) across epochs {spread} "
            f"while {commits} commit(s) replayed"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import CorrelationServer
    from repro.streaming import DynamicAttributedGraph

    if args.wal and args.static:
        print("tesc serve: --wal needs a dynamic graph; drop --static",
              file=sys.stderr, flush=True)
        return 2
    if args.store and args.static:
        print("tesc serve: --store needs a dynamic graph; drop --static",
              file=sys.stderr, flush=True)
        return 2
    if args.store and not args.wal:
        # The store's WAL lives alongside its checkpoints by default, so
        # one --store flag gives a fully durable server.
        args.wal = os.path.join(args.store, "wal.log")
        os.makedirs(args.store, exist_ok=True)
    graph, labels = read_edge_list(args.edges)
    label_to_id = {label: index for index, label in enumerate(labels)}
    events = read_event_file(args.events, label_to_id=label_to_id)
    graph_cls = AttributedGraph if args.static else DynamicAttributedGraph
    attributed = graph_cls(graph, events, labels=labels)
    config = TescConfig(
        vicinity_level=args.level,
        sample_size=args.sample_size,
        sampler=args.sampler,
        alpha=args.alpha,
        random_state=args.seed,
    )
    if args.slow_request_seconds is not None:
        # Route the slow-request JSON lines to stderr so they interleave
        # cleanly with the startup banner on stdout.
        from repro.obs.slowlog import SLOWLOG_LOGGER_NAME
        from repro.utils.logging import configure_json_logging

        configure_json_logging(SLOWLOG_LOGGER_NAME, stream=sys.stderr)
    server = CorrelationServer(
        attributed, config,
        workers=args.workers,
        host=args.host, port=args.port,
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        default_top_k=args.top_k,
        metrics_port=args.metrics_port,
        slow_request_seconds=args.slow_request_seconds,
        wal=args.wal,
        store=args.store,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_retain=args.checkpoint_retain,
    )
    server.start()
    host, port = server.address
    mode = "static" if args.static else "dynamic"
    print(f"tesc serve: listening on {host}:{port} "
          f"({mode} graph, {server.engine.workers} worker(s))", flush=True)
    if args.store:
        recovery = server.recovery
        detail = recovery.path if recovery is not None else "fresh"
        if recovery is not None and recovery.checkpoint:
            detail += f" from {recovery.checkpoint}"
        print(f"tesc serve: checkpoint store at {args.store} "
              f"(recovery: {detail})", flush=True)
    if args.wal:
        print(f"tesc serve: write-ahead log at {args.wal} "
              f"({server.replayed_batches} committed batch(es) replayed, "
              f"epoch {server.engine.current_epoch()})", flush=True)
    if args.metrics_port is not None:
        metrics_host, metrics_port = server.metrics_address
        print(f"tesc serve: metrics on http://{metrics_host}:{metrics_port}/metrics",
              flush=True)
    try:
        # The accept loop runs on a daemon thread; park the main thread
        # until the client-issued shutdown (or Ctrl-C) stops the server.
        while not server._stopping.wait(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print("tesc serve: interrupted, shutting down", flush=True)
    finally:
        server.close()
    return 0


def _render_status(status: Dict[str, Any]) -> str:
    """One terminal-friendly summary of a server's status payload."""
    overview = {
        key: status.get(key)
        for key in (
            "epoch", "dynamic", "workers", "num_events", "num_nodes",
            "num_edges", "cached_pair_results", "cached_matrices",
            "cached_topk",
        )
    }
    if "retained_epochs" in status:
        overview["retained_epochs"] = len(status["retained_epochs"])
        overview["retained_bytes"] = status.get("retained_bytes")
    admission = status.get("admission", {})
    sections = [
        render_mapping(overview, title="server"),
        render_mapping(admission, title="admission"),
    ]
    storage = status.get("storage")
    if storage:
        checkpoints = storage.get("checkpoints") or []
        recovery = storage.get("recovery") or {}
        wal = status.get("wal") or {}
        sections.append(render_mapping(
            {
                "root": storage.get("root"),
                "checkpoints": len(checkpoints),
                "newest": checkpoints[0] if checkpoints else None,
                "retain": storage.get("retain"),
                "interval_seconds": storage.get("checkpoint_interval"),
                "last_checkpoint_epoch": storage.get("last_checkpoint_epoch"),
                "recovery_path": recovery.get("path"),
                "recovery_replayed": recovery.get("replayed_batches"),
                "wal_total_batches": wal.get("total_batches"),
                "wal_compacted_batches": wal.get("compacted_batches"),
                "wal_compacted_bytes": wal.get("compacted_bytes"),
            },
            title="storage",
        ))
    metrics = status.get("metrics") or {}
    if metrics:
        table = TextTable(["metric", "value"])
        for name, family in sorted(metrics.items()):
            for entry in family.get("values", []):
                labels = entry.get("labels") or {}
                suffix = (
                    "{" + ",".join(
                        f"{k}={v}" for k, v in sorted(labels.items())
                    ) + "}"
                    if labels else ""
                )
                if family.get("type") == "histogram":
                    count, total = entry.get("count", 0), entry.get("sum", 0.0)
                    mean = total / count if count else 0.0
                    value = f"n={count} mean={mean:.4f}s"
                else:
                    value = entry.get("value")
                table.add_row([name + suffix, value])
        sections.append("metrics\n" + table.render())
    return "\n\n".join(sections)


def _command_status(args: argparse.Namespace) -> int:
    from repro.service import CorrelationClient

    refreshes = 0
    try:
        while True:
            with CorrelationClient(args.host, args.port) as client:
                status = client.status()
            if args.watch:
                # Clear and re-home the terminal for a live dashboard feel.
                print("\x1b[2J\x1b[H", end="")
            print(_render_status(status), flush=True)
            refreshes += 1
            if not args.watch:
                return 0
            if args.iterations is not None and refreshes >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _command_checkpoint(args: argparse.Namespace) -> int:
    from repro.service import CorrelationClient

    with CorrelationClient(args.host, args.port) as client:
        result = client.checkpoint(force=args.force)
    if result.get("skipped"):
        print(f"tesc checkpoint: skipped ({result.get('reason')})", flush=True)
        return 0
    print(
        render_mapping(
            {
                "checkpoint": result.get("checkpoint"),
                "epoch": result.get("epoch"),
                "wal batches covered": result.get("wal_batches"),
                "bytes": result.get("nbytes"),
                "wal bytes reclaimed": result.get("reclaimed_bytes"),
                "pruned": ", ".join(result.get("pruned") or []) or "none",
                "duration": f"{result.get('duration_seconds', 0.0):.3f}s",
            },
            title="checkpoint",
        ),
        flush=True,
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # --seed reseeds every experiment's config (each has random_state).
    overrides = {}
    if args.seed is not None:
        overrides["random_state"] = args.seed
    results = run_all(
        args.experiment_ids, workers=args.workers,
        config_overrides=overrides or None,
    )
    for index, result in enumerate(results):
        if index:
            print()
        print(result.render(markdown=args.markdown))
    return 0


def _command_dataset(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.name, scale=args.scale, random_state=args.seed)
    attributed = dataset if isinstance(dataset, AttributedGraph) else getattr(
        dataset, "attributed", None
    )
    if attributed is None:
        # twitter-like returns a bare CSRGraph
        summary = summarize_graph(dataset, random_state=args.seed)
        print(render_mapping(summary.as_dict(), title=f"{args.name} ({args.scale})"))
        return 0
    summary = summarize_graph(attributed.csr, random_state=args.seed)
    print(render_mapping(summary.as_dict(), title=f"{args.name} ({args.scale})"))
    sizes = attributed.event_summary()
    table = TextTable(["event", "occurrences"])
    for event in sorted(sizes)[:20]:
        table.add_row([event, sizes[event]])
    print()
    print(table.render())
    if len(sizes) > 20:
        print(f"... and {len(sizes) - 20} more events")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.datasets.synthetic_dblp import make_dblp_like

    dataset = make_dblp_like(
        num_communities=12, community_size=100, num_positive_pairs=1,
        num_negative_pairs=1, num_background_keywords=0, random_state=args.seed,
    )
    study = SimulationStudy(
        dataset.attributed.csr,
        event_size=args.event_size,
        num_pairs=args.num_pairs,
        random_state=args.seed,
    )
    config = TescConfig(
        vicinity_level=args.level,
        sample_size=args.sample_size,
        sampler=args.sampler,
        random_state=args.seed,
    )
    evaluation = study.recall_for(args.correlation, args.level, args.noise, config)
    print(
        render_mapping(
            {
                "correlation": args.correlation,
                "h": args.level,
                "noise": args.noise,
                "pairs": evaluation.total,
                "detected": evaluation.detected,
                "recall": f"{evaluation.recall:.3f}",
                "mean z": f"{evaluation.mean_z:+.2f}",
            },
            title="simulation study",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()
    if args.command == "test":
        return _command_test(args)
    if args.command == "rank":
        return _command_rank(args)
    if args.command == "topk":
        return _command_topk(args)
    if args.command == "stream":
        return _command_stream(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "status":
        return _command_status(args)
    if args.command == "checkpoint":
        return _command_checkpoint(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "dataset":
        return _command_dataset(args)
    if args.command == "simulate":
        return _command_simulate(args)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
