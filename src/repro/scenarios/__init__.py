"""Declarative scenario layer: parameterized workloads for every experiment.

Every experiment ``E1`` .. ``E13`` runs from a typed :class:`Workload`
dataclass, and the workload is the run's identity: every run is keyed
by (spec, workload, seed).  Each experiment writes its ``quick`` /
``full`` paper defaults once as two workload values, and named
:class:`Scenario`\\ s layer sparse field overrides on top, opening new
size grids, degree sets, graph families, churn and loss regimes
without touching experiment code.

Entry points:

* ``run_experiment("E1", workload=...)`` /
  ``module.run(workload, seed)`` — run a concrete workload;
* :func:`get_scenario` / :func:`load_scenario` — named built-ins and
  JSON files;
* ``repro scenario list|info|run|validate`` and
  ``repro run E1 --set sizes=256,512`` on the CLI;
* ``"scenario"`` / ``"overrides"`` fields on campaign entries.
"""

from repro.scenarios.base import (
    PRESET_MODES,
    FieldSpec,
    Workload,
    workload_label,
)
from repro.scenarios.families import GraphCase, GraphFamily
from repro.scenarios.registry import (
    Scenario,
    diversity_scenario_names,
    get_scenario,
    iter_scenarios,
    load_scenario,
    resolve_scenario,
    scenario_names,
    validate_scenario_dict,
)
from repro.scenarios.workloads import (
    WORKLOAD_TYPES,
    E1Workload,
    E2Workload,
    E3Workload,
    E4Workload,
    E5Workload,
    E6Workload,
    E7Workload,
    E8Workload,
    E9Workload,
    E10Workload,
    E11Workload,
    E12Workload,
    E13Workload,
)

__all__ = [
    "PRESET_MODES",
    "FieldSpec",
    "Workload",
    "workload_label",
    "GraphCase",
    "GraphFamily",
    "Scenario",
    "get_scenario",
    "iter_scenarios",
    "load_scenario",
    "resolve_scenario",
    "scenario_names",
    "diversity_scenario_names",
    "validate_scenario_dict",
    "WORKLOAD_TYPES",
    "E1Workload",
    "E2Workload",
    "E3Workload",
    "E4Workload",
    "E5Workload",
    "E6Workload",
    "E7Workload",
    "E8Workload",
    "E9Workload",
    "E10Workload",
    "E11Workload",
    "E12Workload",
    "E13Workload",
]
