"""Tests for the dirty tracker: the region must cover every changed vicinity."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.graph.traversal import BFSEngine, dirty_vicinity
from repro.streaming import Delta, DirtyTracker, DynamicAttributedGraph


def _vicinity_sets(csr, level):
    engine = BFSEngine(csr)
    return [
        frozenset(engine.vicinity(node, level).tolist())
        for node in range(csr.num_nodes)
    ]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_structure_region_covers_every_changed_vicinity(level):
    """Soundness: any node whose V^h changed is inside the dirty region."""
    rng = np.random.default_rng(level)
    for seed in range(4):
        graph = erdos_renyi_graph(70, 0.05, random_state=seed)
        dynamic = DynamicAttributedGraph(graph, {"a": [0, 1]})
        before = _vicinity_sets(dynamic.csr, level)
        deltas = []
        edges = list(dynamic.csr.edges())
        for _ in range(6):
            if rng.random() < 0.5 and edges:
                u, v = edges.pop(int(rng.integers(0, len(edges))))
                deltas.append(Delta.edge_remove(u, v))
            else:
                u, v = int(rng.integers(0, 70)), int(rng.integers(0, 70))
                if u != v and not dynamic.csr.has_edge(u, v):
                    deltas.append(Delta.edge_add(u, v))
        applied = dynamic.apply(deltas)
        if not applied.structure_changed:
            continue
        region = DirtyTracker(level).region(applied)
        after = _vicinity_sets(dynamic.csr, level)
        changed = {
            node for node in range(70) if before[node] != after[node]
        }
        assert changed <= set(region.structure.tolist())


def test_structure_region_is_tight_at_level_one():
    """At h=1 only the endpoints themselves can change vicinity."""
    graph = erdos_renyi_graph(40, 0.1, random_state=9)
    dynamic = DynamicAttributedGraph(graph, {"a": [0]})
    u, v = next(iter(dynamic.csr.edges()))
    applied = dynamic.apply([Delta.edge_remove(u, v)])
    region = DirtyTracker(1).region(applied)
    assert set(region.structure.tolist()) == {u, v}


def test_event_patch_regions_and_signs():
    """Event toggles are journaled as (event, node, sign); their regions are
    left to the reader, who takes V^h_node on its own snapshot."""
    graph = erdos_renyi_graph(50, 0.08, random_state=2)
    dynamic = DynamicAttributedGraph(graph, {"a": [1, 2], "b": [3]})
    applied = dynamic.apply(
        [Delta.event_attach("a", 10), Delta.event_detach("b", 3),
         Delta.event_detach("b", 4)]  # no-op: never an occurrence
    )
    region = DirtyTracker(2).region(applied)
    assert region.structure.size == 0
    assert region.toggles == (("a", 10, +1), ("b", 3, -1))


def test_journal_spans_consecutive_epochs():
    graph = erdos_renyi_graph(40, 0.1, random_state=3)
    dynamic = DynamicAttributedGraph(graph, {"a": [0]})
    tracker = DirtyTracker(2, journal_size=2)
    first = tracker.record(dynamic.apply([Delta.event_attach("a", 5)]))
    assert tracker.between(0, 0) == []
    assert tracker.between(0, 1) == [first]
    assert tracker.between(1, 0) is None
    dynamic.events.add_occurrence("a", 6)  # out of band: never journaled
    second = tracker.record(dynamic.apply([Delta.event_attach("a", 7)]))
    assert dynamic.epoch == 3
    assert tracker.between(2, 3) == [second]
    assert tracker.between(0, 3) is None
    # A batch without effect produces no epoch and no entry.
    tracker.record(dynamic.apply([Delta.event_attach("a", 7)]))
    u, v = next(iter(dynamic.csr.edges()))
    tracker.record(dynamic.apply([Delta.edge_remove(u, v)]))
    assert tracker.between(0, 1) is None  # epoch 1 aged out
    assert len(tracker.between(2, 4)) == 2


def test_region_reuses_rebase_dirty_sets():
    """When the vicinity-index rebase already ran the endpoint BFS, the
    tracker must reuse its per-level dirty arrays instead of recomputing."""
    graph = erdos_renyi_graph(60, 0.08, random_state=4)
    dynamic = DynamicAttributedGraph(graph, {"a": [0, 1], "b": [2]})
    dynamic.vicinity_index(levels=(1, 2))  # make the index live
    u, v = next(iter(dynamic.csr.edges()))
    applied = dynamic.apply([Delta.edge_remove(u, v)])
    assert applied.vicinity_dirty is not None
    assert set(applied.vicinity_dirty) == {1, 2}
    region = DirtyTracker(2).region(applied)
    assert region.structure is applied.vicinity_dirty[2]
    # A level the rebase did not cover falls back to a fresh traversal.
    fresh = DirtyTracker(3).region(applied)
    np.testing.assert_array_equal(
        np.sort(fresh.structure),
        np.sort(
            dirty_vicinity(applied.old_csr, applied.new_csr, [u, v], 2)
        ),
    )


def test_empty_batch_is_empty_region():
    graph = erdos_renyi_graph(30, 0.1, random_state=1)
    dynamic = DynamicAttributedGraph(graph, {"a": [0], "b": [1]})
    region = DirtyTracker(2).region(dynamic.empty_batch())
    assert region.is_empty


def test_dirty_vicinity_unions_old_and_new_reachability():
    # Path 0-1-2 3: adding (2, 3) makes 3 reachable; removing it again must
    # still be covered from the old graph's side.
    from repro.graph.adjacency import Graph

    graph = Graph(4)
    graph.add_edges([(0, 1), (1, 2), (2, 3)])
    old = graph.to_csr()
    graph.remove_edge(2, 3)
    new = graph.to_csr()
    region = dirty_vicinity(old, new, [2, 3], 1)
    assert set(region.tolist()) == {1, 2, 3}
    assert dirty_vicinity(old, new, [], 1).size == 0
