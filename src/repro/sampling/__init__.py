"""Reference-node sampling algorithms (Section 4 of the paper).

All samplers implement :class:`~repro.sampling.base.ReferenceSampler` and
return a :class:`~repro.sampling.base.ReferenceSample`.  The registry maps
string names (as used in :class:`repro.core.config.TescConfig`) to sampler
factories.
"""

from repro.sampling.base import ReferenceSample, ReferenceSampler, SamplingCost
from repro.sampling.batch_bfs import BatchBFSSampler, ExhaustiveSampler
from repro.sampling.reject import RejectionSampler
from repro.sampling.importance import ImportanceSampler
from repro.sampling.whole_graph import WholeGraphSampler
from repro.sampling.registry import available_samplers, create_sampler

__all__ = [
    "ReferenceSample",
    "ReferenceSampler",
    "SamplingCost",
    "BatchBFSSampler",
    "ExhaustiveSampler",
    "RejectionSampler",
    "ImportanceSampler",
    "WholeGraphSampler",
    "available_samplers",
    "create_sampler",
]
