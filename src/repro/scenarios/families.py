"""Graph families as data: build a size-``n`` member from a description.

Scenario workloads name their substrate declaratively — ``{"kind":
"hypercube"}``, ``{"kind": "small_world", "degree": 8, "rewire":
0.2}`` — instead of baking a generator call into experiment code.
:class:`GraphFamily` validates the description and builds concrete
members through :mod:`repro.graphs.generators`.

Two invariants matter for reproducibility:

* the ``random_regular`` kind builds *exactly* what
  :func:`repro.experiments.sweep.expander_with_gap` builds for the
  same ``(n, degree, seed)`` — same seed derivation, same generator —
  so the preset workloads of E2 are bit-identical to the pre-scenario
  code;
* every kind validates its sizes up front (a hypercube needs a power
  of two, a torus a perfect ``d``-th power), so a bad scenario fails
  before any simulation work with an error naming the size.

:class:`GraphCase` is the sibling for *individual* graphs: a single
``(label, generator, args)`` description used by workloads that
measure a fixed list of graphs (E5's growth-bound cases) rather than
a family ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro._rng import SeedLike, derive_seed_sequence
from repro.errors import ScenarioError
from repro.graphs import generators, implicit
from repro.graphs.base import Graph

#: Family kinds and the parameters each accepts (``None`` = optional).
#: The ``*_implicit`` kinds build the same topologies as their
#: concrete namesakes but as :mod:`repro.graphs.implicit` backends —
#: neighbours computed on the fly, no CSR arrays — so million-vertex
#: ladders construct in O(1) memory.  They are separate kinds (not a
#: storage flag) so a scenario's serialised form, and therefore its
#: cache identity, states exactly what ran.
FAMILY_KINDS: dict[str, dict[str, Any]] = {
    "random_regular": {"degree": 8},
    "complete": {},
    "hypercube": {},
    "torus": {"dims": 2},
    "circulant": {"offsets": (1, 2, 5)},
    "hypercube_implicit": {},
    "torus_implicit": {"dims": 2},
    "circulant_implicit": {"offsets": (1, 2, 5)},
    "small_world": {"degree": 8, "rewire": 0.2},
    "power_law": {"attach": 4},
    "erdos_renyi": {"avg_degree": 8.0},
}


@dataclass(frozen=True)
class GraphFamily:
    """A declarative graph family: a kind plus its shape parameters.

    ``params`` holds only the keys the kind accepts (defaults filled
    in), so two descriptions of the same family serialise identically.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ScenarioError(
                f"unknown graph family {self.kind!r}; "
                f"known kinds: {', '.join(sorted(FAMILY_KINDS))}"
            )
        accepted = FAMILY_KINDS[self.kind]
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ScenarioError(
                f"graph family {self.kind!r} does not accept {unknown}; "
                f"parameters are {sorted(accepted)}"
            )
        merged = {**accepted, **self.params}
        normalised: dict[str, Any] = {}
        for key, value in merged.items():
            if key == "offsets":
                normalised[key] = tuple(int(item) for item in value)
            elif key in ("rewire", "avg_degree"):
                normalised[key] = float(value)
            else:
                normalised[key] = int(value)
        object.__setattr__(self, "params", normalised)
        self._validate_params()

    def _validate_params(self) -> None:
        params = self.params
        if self.kind in ("random_regular", "small_world") and params["degree"] < 2:
            raise ScenarioError(
                f"graph family {self.kind!r} needs degree >= 2, "
                f"got {params['degree']}"
            )
        if self.kind == "small_world":
            if params["degree"] % 2 != 0:
                raise ScenarioError(
                    f"small_world needs an even degree, got {params['degree']}"
                )
            if not 0.0 <= params["rewire"] <= 1.0:
                raise ScenarioError(
                    f"small_world rewire must be in [0, 1], got {params['rewire']}"
                )
        if self.kind in ("torus", "torus_implicit") and params["dims"] < 1:
            raise ScenarioError(f"{self.kind} needs dims >= 1, got {params['dims']}")
        if self.kind in ("circulant", "circulant_implicit") and not params["offsets"]:
            raise ScenarioError(f"{self.kind} needs at least one offset")
        if self.kind == "power_law" and params["attach"] < 1:
            raise ScenarioError(f"power_law needs attach >= 1, got {params['attach']}")
        if self.kind == "erdos_renyi" and params["avg_degree"] <= 0:
            raise ScenarioError(
                f"erdos_renyi needs avg_degree > 0, got {params['avg_degree']}"
            )

    # -- construction --------------------------------------------------

    @classmethod
    def from_value(cls, value: Any) -> "GraphFamily":
        """Parse a family from an instance, a kind string, or a dict."""
        if isinstance(value, GraphFamily):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, Mapping):
            data = dict(value)
            kind = data.pop("kind", None)
            if not isinstance(kind, str):
                raise ScenarioError(
                    f"graph family description needs a string 'kind', got {value!r}"
                )
            return cls(kind=kind, params=data)
        raise ScenarioError(
            f"expected a graph family kind, description dict, or GraphFamily, "
            f"got {value!r}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (``kind`` plus the normalised parameters)."""
        return {
            "kind": self.kind,
            **{
                key: list(value) if isinstance(value, tuple) else value
                for key, value in sorted(self.params.items())
            },
        }

    # -- building members ----------------------------------------------

    def validate_size(self, n: int) -> None:
        """Reject sizes this family has no member of, naming the fix."""
        if n < 4:
            raise ScenarioError(f"graph family sizes must be >= 4, got {n}")
        if self.kind in ("hypercube", "hypercube_implicit") and n & (n - 1):
            raise ScenarioError(
                f"{self.kind} sizes must be powers of two, got {n}"
            )
        if self.kind in ("torus", "torus_implicit"):
            dims = self.params["dims"]
            side = round(n ** (1.0 / dims))
            if side**dims != n or side < 3:
                raise ScenarioError(
                    f"{self.kind}(dims={dims}) sizes must be side**{dims} with "
                    f"side >= 3, got {n}"
                )
        if self.kind == "random_regular":
            degree = self.params["degree"]
            if degree >= n or (n * degree) % 2:
                raise ScenarioError(
                    f"random_regular(degree={degree}) needs n > degree with "
                    f"n*degree even, got n={n}"
                )
        if self.kind in ("small_world", "power_law"):
            key = "degree" if self.kind == "small_world" else "attach"
            if self.params[key] >= n:
                raise ScenarioError(
                    f"{self.kind}({key}={self.params[key]}) needs n > {key}, got n={n}"
                )

    def build(self, n: int, seed: SeedLike = None) -> Graph:
        """A size-``n`` member of the family (seeded for random kinds)."""
        self.validate_size(n)
        params = self.params
        if self.kind == "random_regular":
            # Exactly expander_with_gap's construction: the preset path
            # must stay bit-identical to the pre-scenario experiments.
            rng = np.random.default_rng(derive_seed_sequence(seed))
            return generators.random_regular(n, params["degree"], seed=rng)
        if self.kind == "complete":
            return generators.complete(n)
        if self.kind == "hypercube":
            return generators.hypercube(n.bit_length() - 1)
        if self.kind == "torus":
            dims = params["dims"]
            side = round(n ** (1.0 / dims))
            return generators.torus((side,) * dims)
        if self.kind == "circulant":
            return generators.circulant(n, params["offsets"])
        if self.kind == "hypercube_implicit":
            return implicit.ImplicitHypercube(n.bit_length() - 1)
        if self.kind == "torus_implicit":
            dims = params["dims"]
            side = round(n ** (1.0 / dims))
            return implicit.ImplicitTorus((side,) * dims)
        if self.kind == "circulant_implicit":
            return implicit.ImplicitCirculant(n, params["offsets"])
        if self.kind == "small_world":
            rng = np.random.default_rng(derive_seed_sequence(seed))
            return generators.watts_strogatz(
                n, params["degree"], params["rewire"], seed=rng
            )
        if self.kind == "power_law":
            rng = np.random.default_rng(derive_seed_sequence(seed))
            return generators.barabasi_albert(n, params["attach"], seed=rng)
        assert self.kind == "erdos_renyi"
        rng = np.random.default_rng(derive_seed_sequence(seed))
        probability = min(1.0, params["avg_degree"] / (n - 1))
        return generators.erdos_renyi(n, probability, seed=rng, connected=True)

    def label(self) -> str:
        """Short human label used in plot titles and table rows.

        For ``random_regular`` this is the exact phrase the
        pre-scenario experiments printed, keeping preset reports
        byte-identical.
        """
        params = self.params
        if self.kind == "random_regular":
            return f"random {params['degree']}-regular"
        if self.kind == "complete":
            return "complete"
        if self.kind == "hypercube":
            return "hypercube"
        if self.kind == "torus":
            return f"{params['dims']}-D torus"
        if self.kind == "circulant":
            return f"circulant{params['offsets']}"
        if self.kind == "hypercube_implicit":
            return "hypercube (implicit)"
        if self.kind == "torus_implicit":
            return f"{params['dims']}-D torus (implicit)"
        if self.kind == "circulant_implicit":
            return f"circulant{params['offsets']} (implicit)"
        if self.kind == "small_world":
            return f"small-world (k={params['degree']}, rewire={params['rewire']})"
        if self.kind == "power_law":
            return f"power-law (attach={params['attach']})"
        return f"G(n, p) avg degree {params['avg_degree']}"


@dataclass(frozen=True)
class GraphCase:
    """One named graph built by a generator call: ``(label, generator, args)``.

    Workloads that measure a fixed list of graphs (E5) carry a tuple of
    these.  ``seed_offset`` marks generators that take a seed (the case
    receives ``run_seed + seed_offset``, reproducing the pre-scenario
    seeding); ``None`` means the generator is deterministic.
    """

    label: str
    generator: str
    args: tuple[Any, ...] = ()
    seed_offset: int | None = None

    def __post_init__(self) -> None:
        if not self.label or not isinstance(self.label, str):
            raise ScenarioError(f"graph case needs a non-empty label, got {self.label!r}")
        if self.generator not in generators.__all__:
            raise ScenarioError(
                f"graph case {self.label!r}: unknown generator {self.generator!r} "
                f"(choose from {', '.join(generators.__all__)})"
            )
        object.__setattr__(self, "args", _normalise_args(self.args))
        if self.seed_offset is not None:
            object.__setattr__(self, "seed_offset", int(self.seed_offset))

    @classmethod
    def from_value(cls, value: Any) -> "GraphCase":
        """Parse a case from an instance or a description dict."""
        if isinstance(value, GraphCase):
            return value
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"label", "generator", "args", "seed_offset"})
            if unknown:
                raise ScenarioError(f"graph case has unknown keys {unknown}")
            try:
                return cls(
                    label=value["label"],
                    generator=value["generator"],
                    args=tuple(value.get("args", ())),
                    seed_offset=value.get("seed_offset"),
                )
            except KeyError as missing:
                raise ScenarioError(f"graph case is missing {missing}") from None
        raise ScenarioError(f"expected a graph case description, got {value!r}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON serialisation."""
        data: dict[str, Any] = {
            "label": self.label,
            "generator": self.generator,
            "args": [list(arg) if isinstance(arg, tuple) else arg for arg in self.args],
        }
        if self.seed_offset is not None:
            data["seed_offset"] = self.seed_offset
        return data

    def build(self, seed: int = 0) -> Graph:
        """Build the graph (seeded generators get ``seed + seed_offset``)."""
        builder = getattr(generators, self.generator)
        if self.seed_offset is None:
            return builder(*self.args)
        return builder(*self.args, seed=seed + self.seed_offset)


def _normalise_args(args: Any) -> tuple[Any, ...]:
    if not isinstance(args, (list, tuple)):
        raise ScenarioError(f"graph case args must be a list, got {args!r}")
    normalised = []
    for arg in args:
        if isinstance(arg, (list, tuple)):
            normalised.append(tuple(arg))
        elif isinstance(arg, (bool, int, float, str)):
            normalised.append(arg)
        else:
            raise ScenarioError(f"graph case args must be scalars or lists, got {arg!r}")
    return tuple(normalised)


def nearest_valid_sizes(family: GraphFamily, sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Snap a size grid onto the family's valid member sizes.

    Convenience for scenario authors: powers of two for hypercubes,
    perfect powers for tori (preferring odd sides, which keep the torus
    non-bipartite), parity fixes for regular families.  Sizes already
    valid pass through unchanged.
    """
    snapped = []
    for n in sizes:
        if family.kind in ("hypercube", "hypercube_implicit"):
            snapped.append(1 << max(2, round(math.log2(n))))
        elif family.kind in ("torus", "torus_implicit"):
            dims = family.params["dims"]
            side = max(3, round(n ** (1.0 / dims)))
            if side % 2 == 0:
                side += 1
            snapped.append(side**dims)
        elif family.kind == "random_regular":
            degree = family.params["degree"]
            n = max(n, degree + 1)
            if (n * degree) % 2:
                n += 1
            snapped.append(n)
        else:
            snapped.append(n)
    return tuple(dict.fromkeys(snapped))
