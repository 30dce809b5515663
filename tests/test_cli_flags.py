"""Pins of the ``tesc`` flag set: each subcommand's options, the shared
graph-input defaults, the sampler rule and the required server port."""

import argparse

import pytest

from repro.cli import build_parser
from repro.core.batch import WEIGHTED_SAMPLERS
from repro.sampling.registry import available_samplers

FILES = ["--edges", "e", "--events", "v"]

# The shortest valid argv of every subcommand.
MINIMAL = {
    "test": ["test", *FILES, "--event-a", "a", "--event-b", "b"],
    "rank": ["rank", *FILES],
    "topk": ["topk", *FILES],
    "stream": ["stream", *FILES, "--deltas", "d"],
    "serve": ["serve", *FILES],
    "status": ["status", "--port", "5"],
    "checkpoint": ["checkpoint", "--port", "5"],
    "experiment": ["experiment", "figure5"],
    "dataset": ["dataset", "dblp"],
    "simulate": ["simulate"],
}
GRAPH_INPUT = ["test", "rank", "topk", "stream", "serve"]
SHARED_SAMPLE = ["rank", "topk", "stream", "serve"]

GRAPH_FLAGS = ["--alpha", "--edges", "--events", "--level", "--sample-size", "--sampler"]
ENGINE_FLAGS = ["--seed", "--top-k", "--workers"]
OPTIONS = {
    "test": GRAPH_FLAGS + ["--alternative", "--event-a", "--event-b", "--seed"],
    "rank": GRAPH_FLAGS + ENGINE_FLAGS + ["--markdown", "--pair", "--sort-by"],
    "topk": GRAPH_FLAGS + ENGINE_FLAGS + [
        "--growth", "--initial-sample", "--k", "--markdown", "--pair",
    ],
    "stream": GRAPH_FLAGS + ENGINE_FLAGS + [
        "--concurrent-queries", "--deltas", "--markdown", "--pair", "--sort-by",
    ],
    "serve": GRAPH_FLAGS + ENGINE_FLAGS + [
        "--checkpoint-interval", "--checkpoint-retain", "--host",
        "--max-concurrency", "--max-queue", "--metrics-port", "--port",
        "--queue-timeout", "--slow-request-seconds", "--static", "--store", "--wal",
    ],
    "status": ["--host", "--interval", "--iterations", "--port", "--watch"],
    "checkpoint": ["--force", "--host", "--port"],
    "experiment": ["--markdown", "--seed", "--workers"],
    "dataset": ["--scale", "--seed"],
    "simulate": [
        "--correlation", "--event-size", "--level", "--noise", "--num-pairs",
        "--sample-size", "--sampler", "--seed",
    ],
}


def _subparsers():
    parser = build_parser()
    (action,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def _exit_code(argv):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    return excinfo.value.code


class TestSharedFlags:
    @pytest.mark.parametrize("command", GRAPH_INPUT)
    def test_graph_input_defaults(self, command):
        args = build_parser().parse_args(MINIMAL[command])
        assert args.level == 1
        assert args.sample_size == 900
        assert args.sampler == "batch_bfs"
        assert args.alpha == 0.05

    @pytest.mark.parametrize("sampler", ["importance", "batch_importance"])
    def test_test_accepts_weighted_samplers(self, sampler):
        args = build_parser().parse_args(MINIMAL["test"] + ["--sampler", sampler])
        assert args.sampler == sampler

    @pytest.mark.parametrize("command", SHARED_SAMPLE)
    def test_shared_sample_commands_reject_importance(self, command, capsys):
        assert _exit_code(MINIMAL[command] + ["--sampler", "importance"]) == 2
        assert "invalid choice: 'importance'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SHARED_SAMPLE)
    def test_shared_sample_commands_offer_every_uniform_sampler(self, command):
        sampler = _subparsers()[command]._option_string_actions["--sampler"]
        uniform = set(available_samplers()) - set(WEIGHTED_SAMPLERS)
        assert set(sampler.choices) == uniform

    @pytest.mark.parametrize("command", ["status", "checkpoint"])
    def test_client_commands_require_port(self, command, capsys):
        assert _exit_code([command]) == 2
        assert "--port" in capsys.readouterr().err


class TestFlagSets:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_strings_are_pinned(self, command):
        options = set(_subparsers()[command]._option_string_actions)
        assert options - {"-h", "--help"} == set(OPTIONS[command])

    def test_every_subcommand_is_pinned(self):
        assert set(_subparsers()) == set(OPTIONS) == set(MINIMAL)

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_each_subcommand_dispatches_to_its_handler(self, command):
        args = build_parser().parse_args(MINIMAL[command])
        assert args.command == command
        assert args.handler.__name__ == f"_command_{command}"

    @pytest.mark.parametrize("command", sorted(MINIMAL))
    def test_help_formats(self, command, capsys):
        # argparse checks metavars and help strings only when it formats help.
        assert _exit_code([command, "--help"]) == 0
        assert f"usage: tesc {command}" in capsys.readouterr().out
