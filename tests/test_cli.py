"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.graph.generators import community_ring_graph
from repro.graph.io import write_edge_list, write_event_file


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestImportCost:
    def test_cli_import_loads_neither_networkx_nor_scipy_stats(self):
        """Every ``tesc`` boot imports the CLI; both modules are slow to
        load and serve no request path."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print(sorted({'networkx', 'scipy.stats'} & set(sys.modules)))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.strip()
        assert loaded == "[]"

    def test_cli_import_leaves_unused_subcommands_unloaded(self):
        """The experiment, dataset and simulation packages and http.server
        load only when a subcommand (or the metrics endpoint) uses them."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "scripts", "check_cli_imports.py",
        )
        result = subprocess.run(
            [sys.executable, script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert repro.__file__ in result.stdout

    def test_unused_subcommand_choices_match_their_registries(self):
        from repro.cli import DATASET_NAMES, EXPERIMENT_IDS
        from repro.datasets.registry import available_datasets
        from repro.experiments.runner import available_experiments

        assert list(EXPERIMENT_IDS) == available_experiments()
        assert list(DATASET_NAMES) == available_datasets()

    def test_top_k_does_not_import_scipy_stats(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "import sys\n"
            "from repro import AttributedGraph, TescConfig\n"
            "from repro.core.topk import ProgressiveTopKEngine\n"
            "from repro.graph.generators import community_ring_graph\n"
            "graph = community_ring_graph(8, 40, 5.0, 10, random_state=3)\n"
            "events = {'a': range(0, 30), 'b': range(10, 40), 'c': range(160, 200)}\n"
            "config = TescConfig(sample_size=120, topk_initial_sample_size=16,"
            " random_state=3)\n"
            "ProgressiveTopKEngine(AttributedGraph(graph, events), config).top_k(1)\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.strip()
        assert loaded == "False"


class TestServeBootStages:
    def test_boot_stages_are_exported_and_shown_by_status(self, tmp_path):
        """``tesc serve --store`` reports how long reading the edge list, the
        event file and recovering the store took, as tesc_boot_seconds and
        in ``tesc status``."""
        import re

        from repro.cli import _render_status
        from repro.service import CorrelationClient

        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        write_edge_list(graph, str(tmp_path / "graph.txt"))
        write_event_file({"a": range(0, 30), "b": range(10, 40)},
                         str(tmp_path / "events.txt"))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--edges", str(tmp_path / "graph.txt"),
             "--events", str(tmp_path / "events.txt"),
             "--store", str(tmp_path / "store"), "--port", "0",
             "--sample-size", "60", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, banner
            with CorrelationClient(match.group(1), int(match.group(2))) as client:
                status = client.status()
                client.shutdown()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        stages = {
            entry["labels"]["stage"]: entry["value"]
            for entry in status["metrics"]["tesc_boot_seconds"]["values"]
        }
        assert sorted(stages) == ["read_edges", "read_events", "recover"]
        assert all(seconds > 0 for seconds in stages.values())
        boot = _render_status(status).split("\n\n")[2]
        assert boot.splitlines()[0].startswith("boot")
        for stage, seconds in stages.items():
            assert stage in boot and f"{seconds:.3f}s" in boot


class TestTestCommand:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {"a": list(range(0, 30)), "b": list(range(30, 60))}, str(events_path)
        )
        return str(edges_path), str(events_path)

    def test_end_to_end(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "test",
                "--edges", edges_path,
                "--events", events_path,
                "--event-a", "a",
                "--event-b", "b",
                "--level", "1",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "z-score" in output
        assert "verdict" in output


class TestRankCommand:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
            },
            str(events_path),
        )
        return str(edges_path), str(events_path)

    def test_all_pairs_ranked(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "rank",
                "--edges", edges_path,
                "--events", events_path,
                "--level", "1",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "rank" in output and "verdict" in output
        assert "sampling passes" in output
        # 3 events -> 3 unordered pairs in the table.
        assert output.count("positive") + output.count("negative") + output.count(
            "independent"
        ) >= 3

    def test_rejects_unknown_kernel(self, files, capsys):
        """The kernel is picked from the sample size; there is no flag."""
        edges_path, events_path = files
        with pytest.raises(SystemExit):
            main(
                [
                    "rank",
                    "--edges", edges_path,
                    "--events", events_path,
                    "--kendall-kernel", "fast",
                ]
            )
        assert "unrecognized arguments: --kendall-kernel" in capsys.readouterr().err

    def test_explicit_pairs_and_top_k(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "rank",
                "--edges", edges_path,
                "--events", events_path,
                "--pair", "a", "b",
                "--pair", "a", "c",
                "--top-k", "1",
                "--sort-by", "abs_z",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "pairs tested" in output


class TestTopkCommand:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
                "d": list(range(100, 130)),
            },
            str(events_path),
        )
        return str(edges_path), str(events_path)

    def test_topk_end_to_end(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "topk",
                "--edges", edges_path,
                "--events", events_path,
                "--k", "2",
                "--sample-size", "150",
                "--initial-sample", "32",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "progressive top-k engine" in output
        assert "k-th lower bound" in output
        assert "pairs pruned" in output
        # Exactly k result rows (rank column 1..2).
        assert "1    |" in output and "2    |" in output

    def test_rank_top_k_runs_the_batch_engine(self, files, capsys):
        """rank --top-k always runs the exact batch engine; its top-k table
        is the one tesc topk prints."""
        edges_path, events_path = files
        common = [
            "--edges", edges_path,
            "--events", events_path,
            "--sample-size", "150",
            "--seed", "3",
        ]
        assert main(["rank"] + common + ["--top-k", "2"]) == 0
        batch = capsys.readouterr().out
        assert "batch engine" in batch
        assert "progressive" not in batch
        assert main(["topk"] + common + ["--k", "2"]) == 0
        progressive = capsys.readouterr().out
        assert "progressive top-k engine" in progressive
        # The ranked tables (first block up to the blank line) are identical.
        assert progressive.split("\n\n")[0] == batch.split("\n\n")[0]

    def test_rank_top_k_non_score_sort_stays_on_batch_engine(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "rank",
                "--edges", edges_path,
                "--events", events_path,
                "--top-k", "2",
                "--sort-by", "abs_z",
                "--sample-size", "150",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "batch engine" in output
        assert "progressive" not in output


class TestDatasetCommand:
    def test_dblp_summary(self, capsys):
        exit_code = main(["dataset", "dblp", "--scale", "0.2", "--seed", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "nodes" in output
        assert "event" in output

    def test_twitter_summary(self, capsys):
        exit_code = main(["dataset", "twitter", "--scale", "0.05", "--seed", "1"])
        assert exit_code == 0
        assert "nodes" in capsys.readouterr().out


class TestSimulateCommand:
    def test_positive_simulation(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--correlation", "positive",
                "--level", "1",
                "--num-pairs", "2",
                "--event-size", "80",
                "--sample-size", "80",
                "--seed", "4",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "recall" in output


class TestExperimentCommand:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestStreamCommand:
    @pytest.fixture
    def files(self, tmp_path):
        from repro.streaming import DeltaLog

        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        deltas_path = tmp_path / "deltas.jsonl"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
            },
            str(events_path),
        )
        log = DeltaLog()
        log.add_edge(0, 100)
        log.remove_edge(0, 1)
        log.seal()
        log.attach_event("a", 95)
        log.detach_event("b", 12)
        log.seal()
        log.save(str(deltas_path))
        return str(edges_path), str(events_path), str(deltas_path)

    def test_replay_prints_ranking_deltas(self, files, capsys):
        edges_path, events_path, deltas_path = files
        exit_code = main(
            [
                "stream",
                "--edges", edges_path,
                "--events", events_path,
                "--deltas", deltas_path,
                "--level", "1",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "initial ranking" in output
        assert "commit 1" in output
        assert "commit 2" in output
        assert "final ranking" in output
        assert "re-scored" in output
        assert "reused) /" in output

    def test_stream_matches_static_rank_after_replay(self, files, capsys):
        """The final streamed ranking equals a static rank of the final graph."""
        from repro.core.batch import BatchTescEngine
        from repro.core.config import TescConfig
        from repro.graph.io import read_edge_list, read_event_file
        from repro.streaming import DeltaLog, DynamicAttributedGraph

        edges_path, events_path, deltas_path = files
        exit_code = main(
            [
                "stream",
                "--edges", edges_path,
                "--events", events_path,
                "--deltas", deltas_path,
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        streamed = capsys.readouterr().out

        graph, labels = read_edge_list(edges_path)
        label_to_id = {label: index for index, label in enumerate(labels)}
        events = read_event_file(events_path, label_to_id=label_to_id)
        dynamic = DynamicAttributedGraph(graph, events, labels=labels)
        for batch in DeltaLog.load(deltas_path).replay():
            dynamic.apply(batch)
        config = TescConfig(sample_size=80, random_state=3)
        static = BatchTescEngine(dynamic.snapshot(), config).rank_pairs("all")
        final_block = streamed.split("final ranking:")[1]
        for pair in static:
            assert f"{pair.score:+.4f}" in final_block


class TestSharedEngineFlags:
    """rank/topk/stream/serve accept the same engine flags; experiment
    accepts only the ones it honours (--workers, --seed)."""

    SHARED = ["--workers", "2", "--seed", "9"]

    def _parse(self, argv):
        return build_parser().parse_args(argv)

    def test_every_engine_subcommand_accepts_shared_flags(self):
        parser_cases = {
            "rank": ["rank", "--edges", "e", "--events", "v"],
            "topk": ["topk", "--edges", "e", "--events", "v"],
            "stream": ["stream", "--edges", "e", "--events", "v",
                       "--deltas", "d"],
            "serve": ["serve", "--edges", "e", "--events", "v"],
            "experiment": ["experiment", "figure5"],
        }
        for command, argv in parser_cases.items():
            args = self._parse(argv + self.SHARED)
            assert args.command == command
            assert args.workers == 2
            assert args.seed == 9
            if command != "experiment":
                assert self._parse(argv + ["--top-k", "3"]).top_k == 3

    def test_shared_flag_defaults(self):
        args = self._parse(["serve", "--edges", "e", "--events", "v"])
        assert args.workers is None
        assert args.top_k is None
        assert args.seed is None

    def test_experiment_rejects_top_k(self, capsys):
        """No experiment config has a top_k field, so the flag would be
        dropped without a word: it is a usage error instead."""
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "figure5", "--top-k", "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --top-k" in capsys.readouterr().err

    def test_stream_concurrent_queries_flag(self):
        args = self._parse(
            ["stream", "--edges", "e", "--events", "v", "--deltas", "d",
             "--concurrent-queries", "4"]
        )
        assert args.concurrent_queries == 4

    def test_topk_without_k_or_top_k_errors(self, tmp_path, capsys):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file({"a": list(range(0, 30))}, str(events_path))
        exit_code = main(
            ["topk", "--edges", str(edges_path), "--events", str(events_path)]
        )
        assert exit_code == 2
        assert "--k / --top-k" in capsys.readouterr().err


class TestTopkAlias:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
            },
            str(events_path),
        )
        return str(edges_path), str(events_path)

    def test_top_k_is_an_alias_for_k(self, files, capsys):
        edges_path, events_path = files
        base = ["topk", "--edges", edges_path, "--events", events_path,
                "--sample-size", "80", "--seed", "3"]
        assert main(base + ["--k", "2"]) == 0
        via_k = capsys.readouterr().out
        assert main(base + ["--top-k", "2"]) == 0
        via_alias = capsys.readouterr().out
        assert via_k == via_alias


class TestStreamConcurrentQueries:
    @pytest.fixture
    def files(self, tmp_path):
        from repro.streaming import DeltaLog

        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        deltas_path = tmp_path / "deltas.jsonl"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {"a": list(range(0, 30)), "b": list(range(10, 40))},
            str(events_path),
        )
        log = DeltaLog()
        log.attach_event("a", 95)
        log.seal()
        log.attach_event("b", 100)
        log.seal()
        log.save(str(deltas_path))
        return str(edges_path), str(events_path), str(deltas_path)

    def test_concurrent_queries_report_epoch_spread(self, files, capsys):
        edges_path, events_path, deltas_path = files
        exit_code = main(
            [
                "stream",
                "--edges", edges_path,
                "--events", events_path,
                "--deltas", deltas_path,
                "--sample-size", "80",
                "--seed", "3",
                "--concurrent-queries", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "final ranking" in output
        assert "snapshot-isolated ranks from 2 thread(s)" in output
        assert "while 2 commit(s) replayed" in output
