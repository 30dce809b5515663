"""Sampler registry: map configuration names to sampler instances."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.vicinity import VicinityIndex
from repro.sampling.base import ReferenceSampler
from repro.sampling.batch_bfs import BatchBFSSampler, ExhaustiveSampler
from repro.sampling.importance import ImportanceSampler
from repro.sampling.reject import RejectionSampler
from repro.sampling.whole_graph import WholeGraphSampler
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.config import TescConfig
    from repro.events.attributed_graph import AttributedGraph

_FactoryType = Callable[..., ReferenceSampler]


#: Default nodes-per-vicinity of the "batch_importance" sampler, following the
#: Section 5.2.2 recommendation of a small batch (3 for h=2).
DEFAULT_BATCH_PER_VICINITY = 3

#: Samplers that need the ``|V^h_v|`` vicinity-size index to draw.
INDEXED_SAMPLERS = ("importance", "batch_importance", "reject")


def _batch_importance_factory(graph: CSRGraph, *, vicinity_index=None,
                              random_state=None, batch_per_vicinity=None,
                              **_ignored) -> ReferenceSampler:
    return ImportanceSampler(
        graph,
        vicinity_index=vicinity_index,
        batch_per_vicinity=batch_per_vicinity or DEFAULT_BATCH_PER_VICINITY,
        random_state=random_state,
    )


_REGISTRY: Dict[str, _FactoryType] = {
    "batch_bfs": lambda graph, *, random_state=None, **_ignored: BatchBFSSampler(
        graph, random_state=random_state
    ),
    "exhaustive": lambda graph, *, random_state=None, **_ignored: ExhaustiveSampler(
        graph, random_state=random_state
    ),
    "reject": lambda graph, *, vicinity_index=None, random_state=None, **_ignored: RejectionSampler(
        graph, vicinity_index=vicinity_index, random_state=random_state
    ),
    "importance": lambda graph, *, vicinity_index=None, random_state=None,
    batch_per_vicinity=None, **_ignored: ImportanceSampler(
        graph,
        vicinity_index=vicinity_index,
        batch_per_vicinity=batch_per_vicinity or 1,
        random_state=random_state,
    ),
    "batch_importance": _batch_importance_factory,
    "whole_graph": lambda graph, *, random_state=None, **_ignored: WholeGraphSampler(
        graph, random_state=random_state
    ),
}


def available_samplers() -> List[str]:
    """Names of all registered samplers."""
    return sorted(_REGISTRY)


def register_sampler(name: str, factory: _FactoryType, overwrite: bool = False) -> None:
    """Register a custom sampler factory under ``name``."""
    if not overwrite and name in _REGISTRY:
        raise ConfigurationError(f"sampler {name!r} is already registered")
    _REGISTRY[name] = factory


def create_sampler(
    name: str,
    graph: CSRGraph,
    *,
    vicinity_index: Optional[VicinityIndex] = None,
    random_state: RandomState = None,
    batch_per_vicinity: Optional[int] = None,
) -> ReferenceSampler:
    """Instantiate the sampler registered under ``name``.

    ``batch_per_vicinity=None`` keeps each sampler's own default (1 for
    "importance", :data:`DEFAULT_BATCH_PER_VICINITY` for "batch_importance").
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown sampler {name!r}; available: {', '.join(available_samplers())}"
        )
    return factory(
        graph,
        vicinity_index=vicinity_index,
        random_state=random_state,
        batch_per_vicinity=batch_per_vicinity,
    )


def sampler_key(cfg: "TescConfig") -> tuple:
    """The part of ``cfg`` that decides which sampler (and RNG stream) draws.

    Sample and density caches key on this; an unhashable seed object is
    keyed by identity, so distinct ``Generator`` objects never share an
    entry.
    """
    seed = cfg.random_state
    seed_token = seed if seed is None or isinstance(seed, int) else id(seed)
    return (cfg.sampler, cfg.batch_per_vicinity, seed_token)


def make_config_sampler(attributed: "AttributedGraph", cfg: "TescConfig"):
    """A fresh sampler for ``cfg`` over ``attributed`` (freshly seeded RNG).

    The single place that knows how a :class:`~repro.core.config.TescConfig`
    maps to a sampler instance (registry lookup, vicinity-index wiring,
    ``batch_per_vicinity``).  :class:`~repro.sampling.cache.SampleMemo`
    calls this on every miss, which is what keeps each memoised draw
    bit-identical to a from-scratch engine's.
    """
    vicinity_index = (
        attributed.vicinity_index(levels=(cfg.vicinity_level,))
        if cfg.sampler in INDEXED_SAMPLERS
        else None
    )
    return create_sampler(
        cfg.sampler,
        attributed.csr,
        vicinity_index=vicinity_index,
        random_state=cfg.random_state,
        batch_per_vicinity=cfg.batch_per_vicinity,
    )
