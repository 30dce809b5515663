"""Shared fixtures for the correlation-service suites."""

import glob
import os

import pytest

from repro.core.config import TescConfig
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.streaming.dynamic_graph import DynamicAttributedGraph


def shm_segments():
    """Names of live ``tesc_`` shared-memory segments (``/dev/shm``).

    The service creates none, so any segment that appears is a leak.
    """
    return sorted(os.path.basename(path) for path in glob.glob("/dev/shm/tesc_*"))


@pytest.fixture(scope="module")
def service_dataset():
    """A small DBLP-like attributed graph plus a matching config."""
    dataset = make_dblp_like(
        num_communities=10,
        community_size=30,
        num_positive_pairs=4,
        num_negative_pairs=3,
        num_background_keywords=10,
        random_state=11,
    )
    config = TescConfig(vicinity_level=1, sample_size=200, random_state=17)
    return dataset, config


@pytest.fixture()
def dynamic_graph(service_dataset):
    """A fresh dynamic copy of the dataset's graph (mutable per test)."""
    dataset, _config = service_dataset
    attributed = dataset.attributed
    return DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )
