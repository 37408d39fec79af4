"""Experiment registry: one module per paper claim, keyed ``E1`` .. ``E13``.

Each module exposes ``SPEC`` (an
:class:`~repro.experiments.spec.ExperimentSpec`), its ``WORKLOAD``
dataclass type, ``PRESETS`` (the ``quick`` and ``full`` workloads, read
through ``preset(mode)``) and ``run(workload, seed=0) ->
ExperimentResult``.  A run is identified by (spec, workload, seed): that
triple is its cache key, and ``result.parameters`` reports the workload
plus the values the run derives.  Use :func:`get_experiment` /
:func:`run_experiment` for access by id, or the CLI
(``python -m repro``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any
from types import ModuleType

from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cache import ResultCache
from repro.experiments import (
    e1_cover_expanders,
    e2_bips_infection,
    e3_fractional_branching,
    e4_duality,
    e5_growth_bound,
    e6_phases,
    e7_baselines,
    e8_spectral_sweep,
    e9_branching_sweep,
    e10_persistence_ablation,
    e11_whp_tails,
    e12_dynamic_graphs,
    e13_message_loss,
)
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.scenarios.base import Workload, workload_label

#: Registry of experiment modules in presentation order.
REGISTRY: dict[str, ModuleType] = {
    module.SPEC.experiment_id: module
    for module in (
        e1_cover_expanders,
        e2_bips_infection,
        e3_fractional_branching,
        e4_duality,
        e5_growth_bound,
        e6_phases,
        e7_baselines,
        e8_spectral_sweep,
        e9_branching_sweep,
        e10_persistence_ablation,
        e11_whp_tails,
        e12_dynamic_graphs,
        e13_message_loss,
    )
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in presentation order."""
    return list(REGISTRY)


def get_experiment(experiment_id: str) -> ModuleType:
    """The experiment module for an id (case-insensitive)."""
    module = REGISTRY.get(experiment_id.upper())
    if module is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(REGISTRY)}"
        )
    return module


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The :class:`ExperimentSpec` for an id."""
    return get_experiment(experiment_id).SPEC


def resolved_parameters(experiment_id: str, workload: Workload) -> dict[str, Any]:
    """The run-identity parameters of an experiment run, computable *before* it.

    The experiment's spec (version included) and the workload's
    canonical form.  Together with ``seed`` they determine what a run
    computes, which is exactly what the result cache must key on: any
    change to a workload field or a spec version changes the key.
    """
    return {
        "spec": get_experiment(experiment_id).SPEC.to_dict(),
        "workload": workload.to_dict(),
    }


def _resolve_cache(
    cache: "ResultCache | None", cache_dir: Any | None
) -> "ResultCache | None":
    """Normalise the ``cache=`` / ``cache_dir=`` pair to a cache or ``None``."""
    if cache is not None:
        return cache
    if cache_dir is not None:
        from repro.cache import ResultCache  # deferred: avoids an import cycle

        return ResultCache(cache_dir)
    return None


def run_experiment_cached(
    experiment_id: str,
    *,
    mode: str | None = None,
    seed: int = 0,
    workload: Workload | None = None,
    cache: "ResultCache | None" = None,
    cache_dir: Any | None = None,
) -> tuple[ExperimentResult, bool]:
    """Run one experiment, consulting a result cache when one is given.

    ``workload`` (a :class:`~repro.scenarios.base.Workload` of the
    experiment's type) runs that configuration; ``mode`` selects the
    quick/full preset (the default is quick).  Passing both is an
    error.  Returns ``(result, cached)`` where ``cached`` is True when
    the result came from the cache instead of being recomputed.  A
    fresh computation is stored back, so the next identical call is a
    hit.  The entry is keyed by (spec, workload, seed), so a mode run
    and a run of the equal workload share one entry.
    """
    module = get_experiment(experiment_id)
    if workload is None:
        workload = module.preset("quick" if mode is None else mode)
    elif mode is not None:
        raise ExperimentError(
            f"pass either workload= or mode=, not both "
            f"(got mode={mode!r} and a workload)"
        )
    store = _resolve_cache(cache, cache_dir)
    if store is None:
        return module.run(workload, seed), False
    label = workload_label(module.PRESETS, workload)  # raises on a wrong type
    parameters = resolved_parameters(experiment_id, workload)
    hit = store.get(module.SPEC.experiment_id, label, seed, parameters)
    if hit is not None:
        return hit, True
    result = module.run(workload, seed)
    store.put(module.SPEC.experiment_id, label, seed, parameters, result)
    return result, False


def run_experiment(
    experiment_id: str,
    *,
    mode: str | None = None,
    seed: int = 0,
    workload: Workload | None = None,
    cache: "ResultCache | None" = None,
    cache_dir: Any | None = None,
) -> ExperimentResult:
    """Run one experiment by id and return its result.

    ``workload``/``mode`` select the configuration exactly as in
    :func:`run_experiment_cached`.  ``cache=`` (a
    :class:`~repro.cache.ResultCache`) or ``cache_dir=`` (a path)
    enables result caching: a previously stored identical run is
    loaded instead of recomputed.
    """
    result, _ = run_experiment_cached(
        experiment_id,
        mode=mode,
        seed=seed,
        workload=workload,
        cache=cache,
        cache_dir=cache_dir,
    )
    return result


__all__ = [
    "REGISTRY",
    "experiment_ids",
    "get_experiment",
    "get_spec",
    "resolved_parameters",
    "run_experiment",
    "run_experiment_cached",
    "ExperimentResult",
    "ExperimentSpec",
]
