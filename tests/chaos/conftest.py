"""Shared fixtures for the chaos suite.

Every test here runs with the fault registry disarmed before and after, so
a failing assertion can never leak an armed plan into the next test (or
into the rest of the session's suites).
"""

import contextlib

import pytest

from repro.core.config import TescConfig
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.service import faults
from repro.streaming.dynamic_graph import DynamicAttributedGraph


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No plan leaks in or out of a test, pass or fail."""
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def chaos_dataset():
    """A small DBLP-like attributed graph plus a matching config."""
    dataset = make_dblp_like(
        num_communities=10,
        community_size=24,
        num_positive_pairs=3,
        num_negative_pairs=2,
        num_background_keywords=8,
        random_state=11,
    )
    config = TescConfig(vicinity_level=1, sample_size=120, random_state=17)
    return dataset, config


@pytest.fixture()
def make_dynamic_graph(chaos_dataset):
    """Factory for fresh dynamic copies of the dataset's graph.

    Chaos scenarios need *several* identical graphs — one per engine or
    server replica being compared bit-for-bit — so this yields a factory
    rather than a single instance.
    """
    dataset, _config = chaos_dataset
    attributed = dataset.attributed

    def _make():
        return DynamicAttributedGraph(
            attributed.csr,
            {name: attributed.event_nodes(name) for name in attributed.event_names()},
        )

    return _make


@contextlib.contextmanager
def running_server(graph, config, **kwargs):
    """Start a CorrelationServer, yield it, and always tear it down."""
    from repro.service.server import CorrelationServer

    server = CorrelationServer(graph, config, **kwargs)
    server.start()
    try:
        yield server
    finally:
        server.close()
