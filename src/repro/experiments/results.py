"""Experiment result records: tables + figures + findings, JSON-round-trippable."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.tables import Table
from repro.errors import ExperimentError
from repro.experiments.spec import ExperimentSpec


@dataclass
class ExperimentResult:
    """Everything one experiment run produced.

    Attributes
    ----------
    spec:
        The experiment's identity card.
    mode:
        ``"quick"`` (CI-scale) or ``"full"`` (EXPERIMENTS.md-scale) when
        the workload equals that preset, else ``"scenario"``.
    seed:
        Master seed of the run.
    parameters:
        ``{"workload": ...}``, the run's workload as plain data, plus
        the values the run derives (such as ``"lambda"``).
    tables:
        Named result tables.
    figures:
        Named ASCII figures (multi-line strings).
    findings:
        Headline conclusions, one sentence each, in display order.
    """

    spec: ExperimentSpec
    mode: str
    seed: int
    parameters: dict[str, Any] = field(default_factory=dict)
    tables: dict[str, Table] = field(default_factory=dict)
    figures: dict[str, str] = field(default_factory=dict)
    findings: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report: banner, findings, tables, figures."""
        blocks = [self.spec.header(), f"  mode  : {self.mode} (seed {self.seed})"]
        if self.findings:
            blocks.append("findings:")
            blocks.extend(f"  * {finding}" for finding in self.findings)
        for name, table in self.tables.items():
            blocks.append(f"\n-- {name} --")
            blocks.append(table.render())
        for name, figure in self.figures.items():
            blocks.append(f"\n-- {name} --")
            blocks.append(figure)
        return "\n".join(blocks)

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (tables stored as records)."""
        return {
            "spec": self.spec.to_dict(),
            "mode": self.mode,
            "seed": self.seed,
            "parameters": self.parameters,
            "tables": {name: table.to_records() for name, table in self.tables.items()},
            "figures": dict(self.figures),
            "findings": list(self.findings),
        }

    def save(self, path: str | Path) -> Path:
        """Write the result as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, default=_coerce))
        return path

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_json_dict`."""
        try:
            spec = ExperimentSpec.from_dict(data["spec"])
            tables = {
                name: Table.from_records(records) if records else Table(["empty"])
                for name, records in data["tables"].items()
            }
            return cls(
                spec=spec,
                mode=data["mode"],
                seed=data["seed"],
                parameters=data["parameters"],
                tables=tables,
                figures=data["figures"],
                findings=data["findings"],
            )
        except KeyError as missing:
            raise ExperimentError(f"malformed result payload: missing {missing}") from None

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        """Read a result previously written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        try:
            return cls.from_json_dict(data)
        except ExperimentError as error:
            raise ExperimentError(f"malformed result file {path}: {error}") from None


def _coerce(value: Any):
    """JSON fallback for NumPy scalars."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value)}")
