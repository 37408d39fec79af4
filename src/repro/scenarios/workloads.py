"""The thirteen experiment workload dataclasses, E1 through E13.

Each class is one experiment's parameter surface: every value its
``run`` reads is a validated field.  The ``quick``/``full`` presets
are written *in the experiment modules themselves* (their ``PRESETS``
mapping); these classes only define the shape, defaults, coercion
rules, and cross-field validation.

Field values accept scenario-friendly spellings — ``"256,512"`` from
the CLI's ``--set``, plain JSON lists from scenario files, family
descriptions as kind strings or dicts — and normalise to tuples and
structured objects, so equal workloads compare equal however they were
written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ScenarioError
from repro.scenarios.base import (
    FieldSpec,
    Workload,
    choice_field,
    float_field,
    float_tuple_field,
    int_field,
    int_tuple_field,
    object_field,
    object_tuple_field,
)
from repro.scenarios.families import GraphCase, GraphFamily

#: The measurement engines: the names the engine-aware workloads, the
#: ``measure_*`` helpers of :mod:`repro.experiments.sweep` and the CLI's
#: ``--engine`` flag accept.
ENGINE_CHOICES = ("batch", "sparse", "event")


def _edge_rate_triple(item):
    """One ``(u, v, rate)`` scenario entry, normalised to a tuple."""
    if not isinstance(item, (list, tuple)) or len(item) != 3:
        raise ScenarioError(f"expected a [u, v, rate] triple, got {item!r}")
    u, v, rate = item
    if (
        isinstance(u, bool)
        or isinstance(v, bool)
        or not isinstance(u, int)
        or not isinstance(v, int)
    ):
        raise ScenarioError(f"edge endpoints must be integers, got {item!r}")
    if u < 0 or v < 0:
        raise ScenarioError(f"edge endpoints must be >= 0, got {item!r}")
    if u == v:
        raise ScenarioError(f"edge endpoints must differ (no self-loops), got {item!r}")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        raise ScenarioError(f"edge rate must be a number, got {item!r}")
    rate = float(rate)
    if rate != rate or rate in (float("inf"), float("-inf")) or rate < 0.0:
        raise ScenarioError(f"edge rate must be a finite number >= 0, got {rate}")
    return (u, v, rate)


def _require_event_engine(experiment: str, engine: str, rate_options) -> None:
    """Reject rate fields left non-default while a round engine is selected."""
    if engine == "event":
        return
    used = sorted(name for name, non_default in rate_options.items() if non_default)
    if used:
        raise ScenarioError(
            f"{experiment} field(s) {', '.join(used)} only apply to the "
            f"continuous-time engine; set engine='event' (got engine={engine!r})"
        )


@dataclass(frozen=True)
class E1Workload(Workload):
    """E1 — COBRA cover on random regular expanders: `n` × `r` grid."""

    sizes: tuple[int, ...]
    degrees: tuple[int, ...]
    samples: int
    branching: float = 2.0
    engine: str = "batch"
    transmission_rate: float = 1.0

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "sizes": int_tuple_field(minimum=8, doc="graph sizes n of the ladder"),
        "degrees": int_tuple_field(minimum=3, doc="regular degrees r to sweep"),
        "samples": int_field(minimum=1, doc="cover-time replicas per (n, r) cell"),
        "branching": float_field(minimum=1.0, doc="COBRA branching factor k"),
        "engine": choice_field(ENGINE_CHOICES, doc="measurement engine"),
        "transmission_rate": float_field(
            minimum=1e-9, doc="event-engine firing rate per active site"
        ),
    }

    def validate(self) -> None:
        smallest = min(self.sizes)
        for degree in self.degrees:
            if degree >= smallest:
                raise ScenarioError(
                    f"E1 degree {degree} must be below the smallest size {smallest}"
                )
        _require_event_engine(
            "E1", self.engine, {"transmission_rate": self.transmission_rate != 1.0}
        )


@dataclass(frozen=True)
class E2Workload(Workload):
    """E2 — BIPS infection vs COBRA cover on one graph-family ladder."""

    sizes: tuple[int, ...]
    samples: int
    family: GraphFamily
    engine: str = "batch"
    transmission_rate: float = 1.0
    recovery_rate: float = 0.0
    edge_rate_overrides: tuple[tuple[int, int, float], ...] = ()

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "sizes": int_tuple_field(minimum=8, doc="graph sizes n of the ladder"),
        "samples": int_field(minimum=1, doc="replicas per size"),
        "family": object_field(
            GraphFamily.from_value, doc="graph family the ladder is built from"
        ),
        "engine": choice_field(ENGINE_CHOICES, doc="measurement engine"),
        "transmission_rate": float_field(
            minimum=1e-9, doc="event-engine firing rate per armed vertex"
        ),
        "recovery_rate": float_field(
            minimum=0.0, doc="event-engine spontaneous recovery rate (BIPS)"
        ),
        "edge_rate_overrides": object_tuple_field(
            _edge_rate_triple,
            min_items=0,
            doc="per-edge contact-rate overrides as [u, v, rate] triples",
        ),
    }

    def validate(self) -> None:
        for n in self.sizes:
            self.family.validate_size(n)
        _require_event_engine(
            "E2",
            self.engine,
            {
                "transmission_rate": self.transmission_rate != 1.0,
                "recovery_rate": self.recovery_rate != 0.0,
                "edge_rate_overrides": bool(self.edge_rate_overrides),
            },
        )
        for u, v, _rate in self.edge_rate_overrides:
            for endpoint in (u, v):
                if endpoint >= min(self.sizes):
                    raise ScenarioError(
                        f"E2 edge_rate_overrides endpoint {endpoint} must fit "
                        f"the smallest ladder size {min(self.sizes)}"
                    )


@dataclass(frozen=True)
class E3Workload(Workload):
    """E3 — fractional branching ``1 + rho`` on a fixed-degree ladder."""

    sizes: tuple[int, ...]
    rhos: tuple[float, ...]
    samples: int
    degree: int

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "sizes": int_tuple_field(minimum=8, doc="graph sizes n of the ladder"),
        "rhos": float_tuple_field(minimum=1e-6, doc="branching surpluses rho > 0"),
        "samples": int_field(minimum=1, doc="replicas per (rho, n) cell"),
        "degree": int_field(minimum=3, doc="regular degree of the expanders"),
    }


@dataclass(frozen=True)
class E4Workload(Workload):
    """E4 — the exact + Monte-Carlo duality check."""

    trials: int
    exact_t_max: int
    mc_n: int = 200
    mc_degree: int = 6
    mc_source: int = 117
    mc_checkpoints: tuple[int, ...] = (1, 2, 3, 5, 8)

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "trials": int_field(minimum=10, doc="Monte-Carlo trials per estimate"),
        "exact_t_max": int_field(minimum=1, doc="horizon of the exact tier"),
        "mc_n": int_field(minimum=16, doc="Monte-Carlo expander size"),
        "mc_degree": int_field(minimum=3, doc="Monte-Carlo expander degree"),
        "mc_source": int_field(minimum=1, doc="BIPS source vertex of the MC check"),
        "mc_checkpoints": int_tuple_field(minimum=1, doc="rounds t compared"),
    }

    def validate(self) -> None:
        if self.mc_source >= self.mc_n:
            raise ScenarioError(
                f"E4 mc_source {self.mc_source} must be below mc_n {self.mc_n}"
            )
        if self.mc_degree >= self.mc_n:
            raise ScenarioError(
                f"E4 mc_degree {self.mc_degree} must be below mc_n {self.mc_n}"
            )


@dataclass(frozen=True)
class E5Workload(Workload):
    """E5 — the one-step growth bound over a list of graph cases."""

    sampled_sets: int
    cases: tuple[GraphCase, ...]
    branchings: tuple[float, ...] = (2.0, 1.5, 1.25)
    exhaustive_limit: int = 12

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "sampled_sets": int_field(minimum=10, doc="random infected sets per case"),
        "cases": object_tuple_field(GraphCase.from_value, doc="graphs to check"),
        "branchings": float_tuple_field(minimum=1.0, doc="branching factors 1 + rho"),
        "exhaustive_limit": int_field(
            minimum=2, doc="max vertices for exhaustive subset enumeration"
        ),
    }

    def validate(self) -> None:
        if self.exhaustive_limit > 22:
            raise ScenarioError(
                f"E5 exhaustive_limit {self.exhaustive_limit} would enumerate "
                f"2**{self.exhaustive_limit} subsets; keep it <= 22"
            )


@dataclass(frozen=True)
class E6Workload(Workload):
    """E6 — three-phase BIPS growth trajectories."""

    sizes: tuple[int, ...]
    trajectories: int
    degree: int
    boundary_constant: float = 1.0
    branching: float = 2.0

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "sizes": int_tuple_field(minimum=32, doc="graph sizes n of the ladder"),
        "trajectories": int_field(minimum=1, doc="recorded trajectories per size"),
        "degree": int_field(minimum=3, doc="regular degree of the expanders"),
        "boundary_constant": float_field(
            minimum=1e-9, doc="K in the phase boundary m = K log n/(1-lambda)^2"
        ),
        "branching": float_field(minimum=1.0, doc="BIPS branching factor k"),
    }


@dataclass(frozen=True)
class E7Workload(Workload):
    """E7 — complete graphs, tori, and the k=1 random-walk baseline."""

    complete_sizes: tuple[int, ...]
    torus2d_sides: tuple[int, ...]
    torus3d_sides: tuple[int, ...]
    walk_sizes: tuple[int, ...]
    samples: int
    walk_degree: int = 8

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "complete_sizes": int_tuple_field(minimum=4, doc="complete-graph sizes"),
        "torus2d_sides": int_tuple_field(minimum=3, doc="2-D torus side lengths"),
        "torus3d_sides": int_tuple_field(minimum=3, doc="3-D torus side lengths"),
        "walk_sizes": int_tuple_field(minimum=8, doc="k=1 walk expander sizes"),
        "samples": int_field(minimum=1, doc="replicas per cell"),
        "walk_degree": int_field(minimum=3, doc="degree of the walk expanders"),
    }


@dataclass(frozen=True)
class E8Workload(Workload):
    """E8 — cover time vs spectral gap on circulants and regulars."""

    circulant_n: int
    chords: tuple[int, ...]
    regular_n: int
    degrees: tuple[int, ...]
    samples: int

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "circulant_n": int_field(minimum=16, doc="circulant family size"),
        "chords": int_tuple_field(minimum=1, doc="chord counts j of C_n(1..j)"),
        "regular_n": int_field(minimum=16, doc="random-regular family size"),
        "degrees": int_tuple_field(minimum=3, doc="random-regular degrees"),
        "samples": int_field(minimum=1, doc="replicas per graph"),
    }

    def validate(self) -> None:
        if self.circulant_n % 2 == 0:
            raise ScenarioError(
                f"E8 circulant_n must be odd (non-bipartite for every chord "
                f"set), got {self.circulant_n}"
            )
        for j in self.chords:
            if 2 * j >= self.circulant_n:
                raise ScenarioError(
                    f"E8 chord count {j} needs circulant_n > 2j, "
                    f"got {self.circulant_n}"
                )
        for degree in self.degrees:
            if degree >= self.regular_n:
                raise ScenarioError(
                    f"E8 degree {degree} must be below regular_n {self.regular_n}"
                )


@dataclass(frozen=True)
class E9Workload(Workload):
    """E9 — branching factor vs transmission budget on one expander."""

    n: int
    r: int
    branchings: tuple[float, ...]
    samples: int

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "n": int_field(minimum=32, doc="expander size"),
        "r": int_field(minimum=3, doc="expander degree"),
        "branchings": float_tuple_field(minimum=1.0, doc="COBRA branching factors"),
        "samples": int_field(minimum=1, doc="replicas per protocol"),
    }


@dataclass(frozen=True)
class E10Workload(Workload):
    """E10 — persistent-source ablation (BIPS vs plain SIS)."""

    n: int
    r: int
    sis_trials: int
    bips_trials: int
    round_cap: int = 2000

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "n": int_field(minimum=32, doc="expander size"),
        "r": int_field(minimum=3, doc="expander degree"),
        "sis_trials": int_field(minimum=10, doc="plain-SIS trials per branching"),
        "bips_trials": int_field(minimum=5, doc="BIPS trials"),
        "round_cap": int_field(minimum=10, doc="round cap per trial"),
    }


@dataclass(frozen=True)
class E11Workload(Workload):
    """E11 — geometric tails and concentration of completion times."""

    tail_n: int
    tail_r: int
    tail_samples: int
    ladder: tuple[int, ...]
    ladder_samples: int

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "tail_n": int_field(minimum=64, doc="fixed expander size for the tails"),
        "tail_r": int_field(minimum=3, doc="expander degree"),
        "tail_samples": int_field(minimum=100, doc="completion times sampled"),
        "ladder": int_tuple_field(minimum=32, doc="sizes of the concentration ladder"),
        "ladder_samples": int_field(minimum=20, doc="replicas per ladder size"),
    }


@dataclass(frozen=True)
class E12Workload(Workload):
    """E12 — COBRA/BIPS on evolving expanders."""

    sizes: tuple[int, ...]
    samples: int
    degree: int
    periods: tuple[int, ...] = (1, 4, 10_000_000)

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "sizes": int_tuple_field(minimum=16, doc="graph sizes n of the ladder"),
        "samples": int_field(minimum=1, doc="replicas per (period, n) cell"),
        "degree": int_field(minimum=3, doc="regular degree of the expanders"),
        "periods": int_tuple_field(
            minimum=1, doc="re-sampling periods (>= 10_000_000 = static)"
        ),
    }

    def validate(self) -> None:
        # E12 derives each period's graph and process seeds from
        # period % 1000 and labels every period >= 10_000_000 "static":
        # periods that agree on either would share seeds or a row label.
        streams: dict[int, int] = {}
        for period in self.periods:
            if period % 1000 in streams:
                raise ScenarioError(
                    f"E12 periods {streams[period % 1000]} and {period} share a "
                    "seed stream (equal period % 1000); pick periods that differ "
                    "mod 1000"
                )
            streams[period % 1000] = period
        static = [period for period in self.periods if period >= 10_000_000]
        if len(static) > 1:
            raise ScenarioError(
                f"E12 periods {static[0]} and {static[1]} are both >= 10_000_000 "
                "and would both be labelled 'static'; keep at most one"
            )


@dataclass(frozen=True)
class E13Workload(Workload):
    """E13 — COBRA/BIPS under independent message loss."""

    n: int
    r: int
    loss_rates: tuple[float, ...]
    critical_sweep: tuple[float, ...]
    samples: int
    round_cap: int = 3000
    exact_t_max: int = 10

    FIELDS: ClassVar[dict[str, FieldSpec]] = {
        "n": int_field(minimum=64, doc="expander size"),
        "r": int_field(minimum=3, doc="expander degree"),
        "loss_rates": float_tuple_field(
            minimum=0.0, maximum=0.49, doc="supercritical loss rates p ((1-p)k > 1)"
        ),
        "critical_sweep": float_tuple_field(
            minimum=0.0, maximum=0.95, doc="loss rates swept across (1-p)k = 1"
        ),
        "samples": int_field(minimum=10, doc="replicas per loss rate"),
        "round_cap": int_field(minimum=100, doc="round cap per replica"),
        "exact_t_max": int_field(minimum=1, doc="horizon of the exact lossy duality"),
    }

    def validate(self) -> None:
        if 0.0 not in self.loss_rates:
            raise ScenarioError(
                "E13 loss_rates must include 0.0 (the lossless reference "
                "the slowdown is measured against)"
            )


#: Workload class per experiment id (presentation order).
WORKLOAD_TYPES: dict[str, type[Workload]] = {
    "E1": E1Workload,
    "E2": E2Workload,
    "E3": E3Workload,
    "E4": E4Workload,
    "E5": E5Workload,
    "E6": E6Workload,
    "E7": E7Workload,
    "E8": E8Workload,
    "E9": E9Workload,
    "E10": E10Workload,
    "E11": E11Workload,
    "E12": E12Workload,
    "E13": E13Workload,
}
