"""``tesc serve`` with per-layer timers installed from outside.

Usage::

    python traced_serve.py SPANS.json serve --edges ... (any tesc serve flags)

The launcher wraps each layer's public functions where their callers look
them up (``repro.service.engine.estimate_pair_list``,
``repro.service.server.recover``, ``repro.cli.read_edge_list``, class
attributes for methods), then runs :func:`repro.cli.main` unchanged.  Each
wrapped call records one span — name, start, end, parent span, the request's
idempotency key (``rid``) and, for some layers, one size attribute — into
memory; the spans are written to ``SPANS.json`` when the server shuts down.
Nothing under ``src/`` knows about this file.

Pool workers are forked from this process and inherit the wrappers, but
their spans stay in the worker; the parent-side pool spans
(``pool.density``, ``pool.estimate``) time the whole sharded phase.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module the caller looks the name up in, attribute path, span name).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.engine", "ServiceEngine.rank", "service.rank"),
    ("repro.service.engine", "ServiceEngine.topk", "service.topk"),
    ("repro.service.engine", "ServiceEngine.commit", "service.commit"),
    ("repro.service.admission", "AdmissionController.admit", "service.admission"),
    ("repro.service.pool", "pooled_density_matrix", "pool.density"),
    ("repro.service.engine", "estimate_matrix_pairs_sharded", "pool.estimate"),
    ("repro.core.topk", "estimate_matrix_pairs_sharded", "pool.estimate"),
    ("repro.sampling.cache", "SampleMemo.sample", "sampling.sample"),
    ("repro.core.density", "DensityComputer.density_matrix", "density.matrix"),
    ("repro.core.density", "DensityComputer.append_columns", "density.append"),
    ("repro.service.engine", "estimate_pair_list", "estimate.pairs"),
    ("repro.core.topk", "estimate_pair_list", "estimate.pairs"),
    ("repro.core.topk", "ProgressiveTopKEngine.top_k", "topk.top_k"),
    ("repro.core.estimators", "PairEstimateBatcher.screen_pair", "topk.screen"),
    ("repro.streaming.dynamic_graph", "DynamicAttributedGraph.apply", "streaming.apply"),
    ("repro.streaming.dynamic_graph", "DynamicAttributedGraph.pin", "streaming.pin"),
    ("repro.streaming.delta", "WriteAheadLog.append_batch", "wal.append"),
    ("repro.service.server", "recover", "storage.recover"),
    ("repro.service.engine", "ServiceEngine.checkpoint", "storage.checkpoint"),
    ("repro.cli", "read_edge_list", "graph.read_edges"),
    ("repro.cli", "read_event_file", "graph.read_events"),
)

#: span name -> (before(args), value(state, args, result)): the one size
#: attribute recorded with each call of that layer that returns normally
#: (``state`` is what ``before`` returned).
ATTRIBUTES: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "density.matrix": (None, lambda _s, args, _r: len(args[1])),  # columns
    "pool.density": (None, lambda _s, args, _r: len(args[2])),  # columns
    "estimate.pairs": (None, lambda _s, args, _r: len(args[0])),  # pairs
    "pool.estimate": (None, lambda _s, args, _r: len(args[3])),  # pairs
    "wal.append": (  # bytes appended
        lambda args: args[0].committed_offset,
        lambda before, args, _r: args[0].committed_offset - before,
    ),
    "storage.recover": (None, lambda _s, _a, report: report.replayed_batches),
    "storage.checkpoint": (None, lambda _s, _a, result: bool(result.get("skipped"))),
}


class SpanRecorder:
    """In-memory span store fed by the wrappers installed by :meth:`wrap`.

    A span is the tuple ``(id, parent, name, start, end, rid, value)`` with
    ``time.perf_counter`` timestamps (``CLOCK_MONOTONIC``, comparable with
    the load generator's clock) and ``value`` the :data:`ATTRIBUTES` entry.
    Parents come from a per-thread stack, so a span's children are exactly
    the wrapped calls made inside it on the same thread.  Spans hold only
    scalars, so the garbage collector stops tracking them and a long run's
    span list does not slow down collections in the server.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def note_rid(self, message: Dict[str, Any]) -> None:
        """Tag this thread's following spans with the request's ``rid``."""
        self._local.rid = message.get("rid")

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)
        before, describe = ATTRIBUTES.get(name, (None, None))
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            rid = getattr(local, "rid", None)
            state = before(args) if before is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, name, start, time.perf_counter(), rid, None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            value = describe(state, args, result) if describe is not None else None
            spans.append((span_id, parent, name, start, end, rid, value))
            return result

        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry and the server's request decoder."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            self.wrap(owner, attribute, name)
        server = importlib.import_module("repro.service.server")
        decode_line = server.decode_line

        @functools.wraps(decode_line)
        def decode_and_note(line):
            message = decode_line(line)
            self.note_rid(message)
            return message

        server.decode_line = decode_and_note

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


def main(argv: List[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    recorder.install()
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
