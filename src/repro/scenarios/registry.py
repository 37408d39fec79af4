"""Named scenarios: paper presets plus diversity regimes, and JSON files.

A :class:`Scenario` binds an experiment to a declarative workload
description — a ``base`` preset (``quick``/``full``) plus sparse field
``overrides``.  Scenarios stay declarative until :meth:`Scenario.
workload` resolves them against the experiment's presets.

The built-in registry ships:

* the paper defaults, ``e1-quick`` … ``e13-full`` (empty overrides);
* *diversity* scenarios that run the paper's claims on regimes beyond
  the reproduction defaults — hypercube / torus / power-law /
  small-world graph families, heavier churn, harsher message loss,
  thinner branching surpluses — the axes the related COBRA/BIPS
  literature varies.

Scenario JSON files (see :func:`load_scenario`) carry the same fields
as :meth:`Scenario.to_dict`; ``repro scenario validate`` checks them
against this schema, and ``repro campaign`` accepts them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import ScenarioError
from repro.scenarios.base import PRESET_MODES, Workload

#: Keys a scenario description may carry.
_SCENARIO_KEYS = frozenset({"name", "description", "experiment_id", "base", "overrides"})


@dataclass(frozen=True)
class Scenario:
    """A named, declarative experiment configuration."""

    name: str
    experiment_id: str
    description: str = ""
    base: str = "quick"
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(f"scenario needs a non-empty string name, got {self.name!r}")
        if self.base not in PRESET_MODES:
            raise ScenarioError(
                f"scenario {self.name!r}: base must be one of {list(PRESET_MODES)}, "
                f"got {self.base!r}"
            )
        if not isinstance(self.overrides, Mapping):
            raise ScenarioError(
                f"scenario {self.name!r}: overrides must be an object, "
                f"got {type(self.overrides).__name__}"
            )
        object.__setattr__(self, "overrides", dict(self.overrides))

    def workload(self) -> Workload:
        """Resolve to a concrete workload: the base preset plus the overrides.

        Raises :class:`ScenarioError` (with the scenario name) if the
        experiment id is unknown or an override does not fit the
        experiment's workload type.
        """
        from repro.errors import ExperimentError
        from repro.experiments import get_experiment  # deferred: import cycle

        try:
            module = get_experiment(self.experiment_id)
            return module.preset(self.base).with_overrides(self.overrides)
        except ExperimentError as error:  # ScenarioError included
            raise ScenarioError(f"scenario {self.name!r}: {error}") from None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, matching the scenario-file schema."""
        data: dict[str, Any] = {
            "name": self.name,
            "experiment_id": self.experiment_id,
            "base": self.base,
        }
        if self.description:
            data["description"] = self.description
        if self.overrides:
            data["overrides"] = dict(self.overrides)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        """Parse and validate a scenario description strictly.

        Unknown keys, a missing name or experiment id, a bad base
        preset, and overrides that do not fit the experiment's workload
        are all :class:`ScenarioError`\\ s naming the problem — a
        malformed scenario file fails before any work is done.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario description must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - _SCENARIO_KEYS)
        if unknown:
            raise ScenarioError(
                f"scenario description has unknown keys {unknown}; "
                f"allowed keys are {sorted(_SCENARIO_KEYS)}"
            )
        for key in ("name", "experiment_id"):
            if key not in data or not isinstance(data[key], str) or not data[key]:
                raise ScenarioError(
                    f"scenario description needs a non-empty string {key!r}, got {data!r}"
                )
        description = data.get("description", "")
        if not isinstance(description, str):
            raise ScenarioError(
                f"scenario {data['name']!r}: description must be a string, "
                f"got {description!r}"
            )
        scenario = cls(
            name=data["name"],
            experiment_id=data["experiment_id"],
            description=description,
            base=data.get("base", "quick"),
            overrides=data.get("overrides", {}),
        )
        scenario.workload()  # resolve eagerly: bad ids/overrides fail here
        return scenario


def validate_scenario_dict(data: Any) -> Scenario:
    """Validate a scenario description against the schema; returns it parsed."""
    return Scenario.from_dict(data)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate one scenario JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as error:
        raise ScenarioError(f"cannot read scenario file {path}: {error}") from None
    except ValueError as error:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {error}") from None
    try:
        return Scenario.from_dict(data)
    except ScenarioError as error:
        raise ScenarioError(f"scenario file {path}: {error}") from None


def _looks_like_file(name: str) -> bool:
    return "/" in name or "\\" in name or name.endswith(".json")


def resolve_scenario(name_or_path: str) -> Scenario:
    """A scenario by registry name, or from a JSON file path."""
    if _looks_like_file(name_or_path):
        return load_scenario(name_or_path)
    return get_scenario(name_or_path)


# ---------------------------------------------------------------------------
# Built-in registry.
# ---------------------------------------------------------------------------

#: Diversity scenarios: the paper's claims on regimes beyond the
#: reproduction defaults.  Sizes are chosen so every scenario runs in
#: seconds from the CLI.
_DIVERSITY: tuple[Scenario, ...] = (
    Scenario(
        name="e1-wide-degrees",
        experiment_id="E1",
        description=(
            "Theorem 1's degree independence stressed on a wider degree set "
            "(4..64) over a smaller size grid"
        ),
        overrides={"sizes": (128, 256, 512, 1024), "degrees": (4, 16, 64), "samples": 8},
    ),
    Scenario(
        name="e2-hypercube",
        experiment_id="E2",
        description=(
            "BIPS vs COBRA on hypercubes — bipartite (lambda = 1), so the "
            "theorems are vacuous, yet both processes stay logarithmic"
        ),
        overrides={
            "sizes": (64, 128, 256, 512),
            "samples": 8,
            "family": {"kind": "hypercube"},
        },
    ),
    Scenario(
        name="e2-torus-2d",
        experiment_id="E2",
        description=(
            "BIPS vs COBRA on 2-D tori (odd sides) — a non-expander family "
            "where completion grows polynomially, not logarithmically"
        ),
        overrides={
            "sizes": (81, 225, 441),
            "samples": 8,
            "family": {"kind": "torus", "dims": 2},
        },
    ),
    Scenario(
        name="e2-small-world",
        experiment_id="E2",
        description=(
            "BIPS vs COBRA on Watts-Strogatz small-world graphs (k=8, 20% "
            "rewiring) — locally clustered, globally short"
        ),
        overrides={
            "sizes": (128, 256, 512),
            "samples": 8,
            "family": {"kind": "small_world", "degree": 8, "rewire": 0.2},
        },
    ),
    Scenario(
        name="e2-power-law",
        experiment_id="E2",
        description=(
            "BIPS vs COBRA on Barabasi-Albert power-law graphs — strongly "
            "irregular hubs, outside the paper's regular setting"
        ),
        overrides={
            "sizes": (128, 256, 512),
            "samples": 8,
            "family": {"kind": "power_law", "attach": 4},
        },
    ),
    Scenario(
        name="e2-power-law-sparse",
        experiment_id="E2",
        description=(
            "the power-law regime rerun on the sparse-frontier engine at "
            "64x the diversity sizes — irregular hubs, rounds costing the "
            "frontier instead of samples x n"
        ),
        overrides={
            "sizes": (2048, 8192, 32768),
            "samples": 8,
            "family": {"kind": "power_law", "attach": 4},
            "engine": "sparse",
        },
    ),
    Scenario(
        name="e2-torus-implicit-1m",
        experiment_id="E2",
        description=(
            "BIPS vs COBRA on a million-vertex 3-D implicit torus: "
            "neighbours computed on the fly (no CSR arrays); each shard "
            "opens in sparse rounds and switches to dense rows (about "
            "62 MB for BIPS, 6 MB for COBRA at 2 replicas) only when "
            "they fit — runs to full completion in ~1 GB RSS"
        ),
        overrides={
            "sizes": (29_791, 103_823, 1_030_301),
            "samples": 2,
            "family": {"kind": "torus_implicit", "dims": 3},
            "engine": "sparse",
        },
    ),
    Scenario(
        name="e1-event-expander",
        experiment_id="E1",
        description=(
            "Theorem 1 under asynchronous Gillespie clocks: the continuous-time "
            "event engine at transmission rate 2 on a compact expander ladder"
        ),
        overrides={
            "sizes": (128, 256, 512),
            "degrees": (8,),
            "samples": 6,
            "engine": "event",
            "transmission_rate": 2.0,
        },
    ),
    Scenario(
        name="e2-event-sparse",
        experiment_id="E2",
        description=(
            "BIPS vs COBRA on 2-D tori via the event engine — the sparse-"
            "frontier regime where event cost beats rounds x n"
        ),
        overrides={
            "sizes": (49, 121, 225),
            "samples": 6,
            "family": {"kind": "torus", "dims": 2},
            "engine": "event",
        },
    ),
    Scenario(
        name="e2-heterogeneous-rates",
        experiment_id="E2",
        description=(
            "per-edge transmission-rate heterogeneity on circulants — a fast "
            "(0,1) contact and a throttled (1,2) contact, event engine only"
        ),
        overrides={
            "sizes": (65, 129),
            "samples": 6,
            "family": {"kind": "circulant", "offsets": (1, 2)},
            "engine": "event",
            "edge_rate_overrides": ((0, 1, 4.0), (1, 2, 0.25)),
        },
    ),
    Scenario(
        name="e3-thin-surplus",
        experiment_id="E3",
        description=(
            "Theorem 3 near the boundary: branching surpluses down to "
            "rho = 0.05 on a compact ladder"
        ),
        overrides={"sizes": (128, 256, 512, 1024), "rhos": (0.05, 0.1, 0.2), "samples": 8},
    ),
    Scenario(
        name="e12-rapid-churn",
        experiment_id="E12",
        description=(
            "dynamic graphs under heavy churn only: a fresh expander every "
            "1-2 rounds vs static, on a compact ladder"
        ),
        overrides={"sizes": (64, 128, 256), "samples": 6, "periods": (1, 2, 10_000_000)},
    ),
    Scenario(
        name="e13-harsh-loss",
        experiment_id="E13",
        description=(
            "message loss pushed toward the (1-p)k = 1 threshold, with a "
            "fine sweep across criticality"
        ),
        overrides={
            "n": 512,
            "loss_rates": (0.0, 0.3, 0.45),
            "critical_sweep": (0.45, 0.5, 0.55),
            "samples": 120,
        },
    ),
)


def _builtin_scenarios() -> dict[str, Scenario]:
    from repro.experiments import experiment_ids  # deferred: import cycle

    registry: dict[str, Scenario] = {}
    for experiment_id in experiment_ids():
        for mode in PRESET_MODES:
            name = f"{experiment_id.lower()}-{mode}"
            registry[name] = Scenario(
                name=name,
                experiment_id=experiment_id,
                description=f"paper defaults for {experiment_id} at {mode} scale",
                base=mode,
            )
    for scenario in _DIVERSITY:
        if scenario.name in registry:  # pragma: no cover - definition bug
            raise ScenarioError(f"duplicate built-in scenario {scenario.name!r}")
        registry[scenario.name] = scenario
    return registry


def scenario_names() -> list[str]:
    """All built-in scenario names (presets first, then diversity)."""
    return list(_builtin_scenarios())


def diversity_scenario_names() -> list[str]:
    """The built-in scenarios beyond the paper's quick/full defaults."""
    return [scenario.name for scenario in _DIVERSITY]


def get_scenario(name: str) -> Scenario:
    """A built-in scenario by name (case-insensitive)."""
    registry = _builtin_scenarios()
    scenario = registry.get(name) or registry.get(name.lower())
    if scenario is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; run 'repro scenario list' or pass a "
            f"scenario JSON file path"
        )
    return scenario


def iter_scenarios() -> Iterator[Scenario]:
    """All built-in scenarios in registry order."""
    yield from _builtin_scenarios().values()
