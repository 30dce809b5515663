"""networkx interoperability.

networkx is never used on the hot path, but converting back and forth lets
tests cross-check traversal results against a reference implementation and
lets downstream users bring their own networkx graphs to the TESC API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # imported in the functions: networkx is slow to load
    import networkx as nx


def from_networkx(nx_graph: "nx.Graph") -> Tuple[Graph, Dict[Hashable, int]]:
    """Convert a networkx graph to a dense-id :class:`Graph`.

    Directed graphs are treated as undirected (matching the paper's setting)
    and self-loops are dropped.  Returns the graph and the label→id mapping.
    """
    undirected = nx_graph.to_undirected() if nx_graph.is_directed() else nx_graph
    labels = list(undirected.nodes())
    label_to_id = {label: index for index, label in enumerate(labels)}
    graph = Graph(len(labels))
    for u, v in undirected.edges():
        if u == v:
            continue
        graph.add_edge(label_to_id[u], label_to_id[v])
    return graph, label_to_id


def to_networkx(graph, labels: Optional[List[Hashable]] = None) -> "nx.Graph":
    """Convert a :class:`Graph` or :class:`CSRGraph` to networkx."""
    import networkx as nx

    if not isinstance(graph, (Graph, CSRGraph)):
        raise TypeError(f"expected Graph or CSRGraph, got {type(graph).__name__}")
    nx_graph = nx.Graph()
    if labels is not None and len(labels) != graph.num_nodes:
        raise ValueError("labels length must equal the number of nodes")
    name = (lambda node: labels[node]) if labels is not None else (lambda node: node)
    nx_graph.add_nodes_from(name(node) for node in range(graph.num_nodes))
    nx_graph.add_edges_from((name(u), name(v)) for u, v in graph.edges())
    return nx_graph
