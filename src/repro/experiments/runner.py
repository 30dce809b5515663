"""Experiment registry and EXPERIMENTS.md generation."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.figure5 import Figure5Config, run_figure5
from repro.experiments.figure6 import Figure6Config, run_figure6
from repro.experiments.figure7 import Figure7Config, run_figure7
from repro.experiments.figure8 import Figure8Config, run_figure8
from repro.experiments.figure9 import Figure9Config, run_figure9
from repro.experiments.figure10 import Figure10Config, run_figure10
from repro.experiments.table1 import Table1Config, run_table1
from repro.experiments.table2 import Table2Config, run_table2
from repro.experiments.table3 import Table3Config, run_table3
from repro.experiments.table4 import Table4Config, run_table4
from repro.experiments.table5 import Table5Config, run_table5

#: experiment id -> (config factory, runner)
_REGISTRY: Dict[str, tuple] = {
    "figure5": (Figure5Config, run_figure5),
    "figure6": (Figure6Config, run_figure6),
    "figure7": (Figure7Config, run_figure7),
    "figure8": (Figure8Config, run_figure8),
    "figure9": (Figure9Config, run_figure9),
    "figure10": (Figure10Config, run_figure10),
    "table1": (Table1Config, run_table1),
    "table2": (Table2Config, run_table2),
    "table3": (Table3Config, run_table3),
    "table4": (Table4Config, run_table4),
    "table5": (Table5Config, run_table5),
}


def available_experiments() -> List[str]:
    """Ids of all registered experiments (figures first, then tables)."""
    return sorted(_REGISTRY)


def experiment_config_fields(experiment_id: str) -> frozenset:
    """Names of the overridable config fields of one experiment.

    Every experiment config is a dataclass; this is the set of keyword
    overrides :func:`run_experiment` accepts for it (``random_state`` is
    common to all of them).
    """
    entry = _REGISTRY.get(experiment_id)
    if entry is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(available_experiments())}"
        )
    config_factory = entry[0]
    if dataclasses.is_dataclass(config_factory):
        return frozenset(f.name for f in dataclasses.fields(config_factory))
    return frozenset()


def run_experiment(experiment_id: str, config=None, **config_overrides) -> ExperimentResult:
    """Run one experiment by id.

    ``config`` may be a prepared config object; otherwise the experiment's
    default config is created and ``config_overrides`` are applied to it.
    """
    entry = _REGISTRY.get(experiment_id)
    if entry is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(available_experiments())}"
        )
    config_factory, runner = entry
    if config is None:
        config = config_factory(**config_overrides)
    elif config_overrides:
        raise ExperimentError("pass either a config object or overrides, not both")
    return runner(config)


def run_all(experiment_ids: Optional[List[str]] = None,
            progress: Optional[Callable[[str], None]] = None,
            workers: Optional[int] = None,
            config_overrides: Optional[Dict[str, Any]] = None) -> List[ExperimentResult]:
    """Run several (default: all) experiments with their default configs.

    ``workers`` > 1 fans the experiments out across a process pool, one
    worker task per experiment (each experiment seeds its own RNG from its
    config, so results are identical to a serial run).  Results are returned
    in the requested order either way.  ``workers=0`` or negative means one
    worker per available core.

    ``config_overrides`` are applied to each experiment's default config —
    e.g. ``random_state`` reseeds every experiment.  A key that some
    requested experiment's config does not define (see
    :func:`experiment_config_fields`) raises
    :class:`~repro.exceptions.ExperimentError` naming the key and the
    experiment, before any experiment runs.
    """
    from repro.core.parallel import resolve_workers

    ids = list(experiment_ids) if experiment_ids is not None else available_experiments()
    for experiment_id in ids:
        if experiment_id not in _REGISTRY:
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; available: "
                f"{', '.join(available_experiments())}"
            )
    overrides = dict(config_overrides or {})
    for experiment_id in ids:
        unknown = sorted(set(overrides) - experiment_config_fields(experiment_id))
        if unknown:
            raise ExperimentError(
                f"config override {unknown[0]!r} is not a field of "
                f"experiment {experiment_id!r}'s config"
            )
    worker_count = resolve_workers(workers)
    if worker_count > 1 and len(ids) > 1:
        if progress is not None:
            for experiment_id in ids:
                progress(experiment_id)
        with ProcessPoolExecutor(max_workers=min(worker_count, len(ids))) as pool:
            futures = [
                pool.submit(run_experiment, experiment_id, **overrides)
                for experiment_id in ids
            ]
            return [future.result() for future in futures]
    results: List[ExperimentResult] = []
    for experiment_id in ids:
        if progress is not None:
            progress(experiment_id)
        results.append(run_experiment(experiment_id, **overrides))
    return results


def render_report(results: List[ExperimentResult], markdown: bool = True) -> str:
    """Render a full experiments report (the body of EXPERIMENTS.md)."""
    parts: List[str] = []
    if markdown:
        parts.append("# Experiment results")
        parts.append("")
        parts.append(
            "Each section reproduces one table or figure of the paper on the "
            "synthetic substitute datasets (see DESIGN.md for the substitutions "
            "and EXPERIMENTS.md for the paper-vs-measured discussion)."
        )
        parts.append("")
    for result in results:
        parts.append(result.render(markdown=markdown))
        parts.append("")
    return "\n".join(parts)
