"""Sampler interface and common result types."""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.exceptions import EmptyReferenceSetError, SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSEngine
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import (
    check_positive_int,
    check_vicinity_level,
    sorted_unique,
)


@dataclass
class SamplingCost:
    """Cost counters accumulated while drawing one reference sample.

    The complexity analysis of Section 4.4 compares samplers by the number of
    h-hop BFS searches they issue and the amount of adjacency data scanned;
    these counters make that comparison measurable.
    """

    bfs_calls: int = 0
    nodes_scanned: int = 0
    edges_scanned: int = 0
    rejections: int = 0
    out_of_sight_draws: int = 0

    def merge_engine(self, engine: BFSEngine) -> None:
        """Fold a BFS engine's counters into this cost record."""
        self.bfs_calls += engine.bfs_calls
        self.nodes_scanned += engine.nodes_scanned
        self.edges_scanned += engine.edges_scanned


@dataclass
class ReferenceSample:
    """A sample of reference nodes plus the metadata estimators need.

    Attributes
    ----------
    nodes:
        Distinct reference node ids.
    frequencies:
        How many times each node was drawn (all ones for uniform samplers;
        the ``W`` multiset of Algorithm 2 for importance sampling).
    probabilities:
        Per-draw selection probability ``p(r_i)`` for non-uniform samplers,
        ``None`` for uniform ones.
    weighted:
        Whether the estimator must apply importance weights (Eq. 8).
    population_size:
        ``N = |V^h_{a∪b}|`` when the sampler enumerated it (Batch BFS),
        otherwise ``None``.
    cost:
        The :class:`SamplingCost` accumulated while sampling.
    draw_order:
        The same node ids in the order the sampler drew them, when the
        sampler records one (``None`` otherwise).  For uniform samplers the
        draw sequence is exchangeable, so every prefix of ``draw_order`` is
        itself a uniform sample of the population — the invariant the
        progressive top-k engine's round schedule rests on: its rounds are
        the prefixes ``draw_order[:m]`` of one full-budget sample.
    """

    nodes: np.ndarray
    frequencies: np.ndarray
    probabilities: Optional[np.ndarray] = None
    weighted: bool = False
    population_size: Optional[int] = None
    cost: SamplingCost = field(default_factory=SamplingCost)
    draw_order: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.frequencies = np.asarray(self.frequencies, dtype=np.int64)
        if self.nodes.ndim != 1:
            raise SamplingError("nodes must be a 1-D array")
        if self.frequencies.shape != self.nodes.shape:
            raise SamplingError("frequencies must have the same shape as nodes")
        if sorted_unique(self.nodes).size != self.nodes.size:
            raise SamplingError("reference nodes must be distinct")
        if self.probabilities is not None:
            self.probabilities = np.asarray(self.probabilities, dtype=float)
            if self.probabilities.shape != self.nodes.shape:
                raise SamplingError("probabilities must have the same shape as nodes")
        if self.draw_order is not None:
            self.draw_order = np.asarray(self.draw_order, dtype=np.int64)
            if (
                self.draw_order.shape != self.nodes.shape
                or not np.array_equal(np.sort(self.draw_order), np.sort(self.nodes))
            ):
                raise SamplingError(
                    "draw_order must be a permutation of the sampled nodes"
                )

    @property
    def num_distinct(self) -> int:
        """Number of distinct reference nodes in the sample."""
        return int(self.nodes.size)

    @property
    def num_draws(self) -> int:
        """Total number of draws (``n'`` in Algorithm 2)."""
        return int(self.frequencies.sum())


def deterministic_draw_order(nodes: np.ndarray) -> np.ndarray:
    """A content-keyed pseudo-random permutation of ``nodes``.

    Fallback draw order for samples whose sampler did not record one (e.g.
    the exhaustive sampler, whose "sample" is the enumerated population).
    The permutation is keyed purely by the node-set content, so any process
    — parent or worker, fresh engine or cached — derives the identical
    order for the same sample without consuming anyone's RNG stream.
    """
    canonical = np.sort(np.asarray(nodes, dtype=np.int64))
    digest = hashlib.sha1(canonical.tobytes()).digest()
    seed = int.from_bytes(digest[:8], "little")
    order_rng = np.random.Generator(np.random.PCG64(seed))
    return canonical[order_rng.permutation(canonical.size)]


class ReferenceSampler(abc.ABC):
    """Strategy interface for reference-node sampling.

    Concrete samplers are constructed with everything that does not depend on
    the event pair (the graph, vicinity index, RNG) and are then asked for
    samples via :meth:`sample`, which receives the union event-node set
    ``V_{a∪b}`` and the vicinity level.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, graph: CSRGraph, random_state: RandomState = None) -> None:
        self.graph = graph
        self.rng = ensure_rng(random_state)

    @abc.abstractmethod
    def sample(self, event_nodes: np.ndarray, level: int,
               sample_size: int) -> ReferenceSample:
        """Draw a reference sample for the given event-node union."""

    def _validate(self, event_nodes: np.ndarray, level: int, sample_size: int) -> np.ndarray:
        check_vicinity_level(level)
        check_positive_int(sample_size, "sample_size")
        nodes = sorted_unique(np.asarray(event_nodes, dtype=np.int64))
        if nodes.size == 0:
            raise EmptyReferenceSetError("the two events have no occurrences")
        if nodes.min() < 0 or nodes.max() >= self.graph.num_nodes:
            raise SamplingError("event nodes fall outside the graph")
        return nodes

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"
