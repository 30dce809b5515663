"""Graph and event file IO.

Two simple text formats cover everything the experiments need:

* **edge list** — one ``u<whitespace>v`` pair per line, ``#`` comments
  allowed; node labels may be arbitrary strings and are densified in
  first-seen order (as :class:`~repro.graph.builder.GraphBuilder` does).
* **event file** — one ``event_name<TAB>node_label`` record per line, mapping
  events (keywords, alert types, products) to the nodes they occurred on.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph

#: The ASCII bytes ``str.split()`` separates tokens on (``\n`` among them).
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[code for code in range(128) if chr(code).isspace()]] = True
#: Whitespace ``str.split()`` also separates on beyond ASCII (e.g. U+00A0).
_WIDE_SPACE = re.compile(r"[^\S\x00-\x7f]")


def read_edge_list(path: str, comment: str = "#") -> Tuple[Graph, List[str]]:
    """Read an edge-list file.

    Returns the graph and the list of node labels indexed by dense node id.
    The graph keeps the CSR parsed from the file, which its ``to_csr()``
    returns until the graph is mutated, and builds its adjacency sets only
    when first read (:meth:`Graph.from_csr`).
    """
    if not os.path.exists(path):
        raise GraphFormatError(f"edge list file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    endpoints = _edge_endpoints(text, path, comment)
    ids: Dict[str, int] = {}
    codes = np.array([ids.setdefault(label, len(ids)) for label in endpoints],
                     dtype=np.int64)
    sources, targets = codes[0::2], codes[1::2]
    # A self-loop line still registers its node, but adds no edge.
    edge = sources != targets
    sources, targets = sources[edge], targets[edge]
    csr = CSRGraph.from_edge_arrays(len(ids), sources, targets)
    # Fresh copies of the labels: the token strings they were found among
    # are all freed together, so the allocator can hand their memory back.
    labels = [label.encode("utf-8").decode("utf-8") for label in ids]
    # The adjacency sets, once built, iterate as if added in file order.
    return Graph.from_csr(csr, (sources, targets)), labels


def _edge_endpoints(text: str, path: str, comment: str) -> List[str]:
    """The first two tokens of every edge line of ``text``, in file order
    and flattened (``u0, v0, u1, v1, ...``).

    Blank lines and lines whose stripped text starts with ``comment`` are
    skipped; further tokens on a line are ignored.  One ``str.split()``
    yields every token and one vectorised scan of the bytes finds the line
    each token is on, so no Python code runs per line.
    """
    tokens = text.split()
    if not tokens:
        return []
    # Line breaks are the "\n" of text mode; other whitespace separates
    # tokens as str.split() does, beyond ASCII included.
    scan = _WIDE_SPACE.sub(" ", text) if not text.isascii() else text
    data = np.frombuffer(scan.encode("utf-8"), dtype=np.uint8)
    space = _ASCII_SPACE[data]
    starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
    line_of = np.searchsorted(np.flatnonzero(data == ord("\n")), starts)
    heads = np.flatnonzero(np.concatenate(([True], line_of[1:] != line_of[:-1])))
    counts = np.diff(np.append(heads, starts.size))
    commented = np.ones(heads.size, dtype=bool)
    for offset, byte in enumerate(comment.encode("utf-8")):
        position = starts[heads] + offset
        inside = position < data.size
        commented &= inside & (data[np.where(inside, position, 0)] == byte)
    edge_line = ~commented
    short = edge_line & (counts < 2)
    if short.any():
        line_index = int(line_of[heads[np.argmax(short)]])
        line = text.split("\n")[line_index].strip()
        raise GraphFormatError(
            f"{path}:{line_index + 1}: expected 'u v', got {line!r}"
        )
    firsts = heads[edge_line]
    if firsts.size and firsts[-1] - firsts[0] == 2 * (firsts.size - 1) and (
        firsts[-1] + 2 == starts.size
    ):
        # Every edge line holds exactly two tokens (the common layout).
        return tokens[int(firsts[0]):]
    picks = np.stack((firsts, firsts + 1), axis=1).ravel()
    return [tokens[index] for index in picks.tolist()]


def write_edge_list(graph: Graph, path: str,
                    labels: Optional[Sequence[str]] = None) -> None:
    """Write a graph to an edge-list file (labels default to node ids)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
        for u, v in graph.edges():
            lu = labels[u] if labels is not None else u
            lv = labels[v] if labels is not None else v
            handle.write(f"{lu}\t{lv}\n")


def read_event_file(path: str, label_to_id: Optional[Mapping[str, int]] = None,
                    comment: str = "#") -> Dict[str, List[int]]:
    """Read an event file into ``{event_name: [node ids]}``.

    When ``label_to_id`` is given, node labels are translated to dense ids
    and unknown labels raise :class:`GraphFormatError`; otherwise labels must
    already be integer node ids.
    """
    if not os.path.exists(path):
        raise GraphFormatError(f"event file not found: {path}")
    events: Dict[str, List[int]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip() or line.startswith(comment):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{line_number}: expected 'event<TAB>node', got {line!r}"
                )
            event, label = parts[0], parts[1]
            if label_to_id is not None:
                if label not in label_to_id:
                    raise GraphFormatError(
                        f"{path}:{line_number}: unknown node label {label!r}"
                    )
                node = int(label_to_id[label])
            else:
                try:
                    node = int(label)
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{line_number}: node label {label!r} is not an id "
                        "and no label mapping was provided"
                    ) from exc
            events.setdefault(event, []).append(node)
    return events


def write_event_file(events: Mapping[str, Iterable[int]], path: str,
                     labels: Optional[Sequence[str]] = None) -> None:
    """Write ``{event: node ids}`` to an event file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# event\tnode\n")
        for event in sorted(events):
            for node in events[event]:
                label = labels[node] if labels is not None else node
                handle.write(f"{event}\t{label}\n")
