"""Workload machinery: typed, validated, canonically serialisable.

A *workload* is the complete declarative description of what one
experiment run computes — the size grid, degree set, sample counts,
branching grids, loss rates, …  Each experiment module defines a
frozen dataclass deriving from :class:`Workload` (see
:mod:`repro.scenarios.workloads`), writes its ``quick`` and ``full``
presets once as two such values (``PRESETS``), and looks them up with
``preset(mode)``.

The machinery here gives every workload class uniform behaviour:

* **Coercion + validation.**  Field values are normalised through the
  class's :data:`FIELDS` specs on construction (``[256, 512]`` and
  ``"256,512"`` both become ``(256, 512)``), and invalid values raise
  :class:`~repro.errors.ScenarioError` naming the field.
* **Canonical serialisation.**  :meth:`Workload.to_dict` emits plain
  JSON-shaped data; passed through
  :func:`repro.cache.canonical_json`, it is the workload's identity.
  Every run is keyed by (spec, workload, seed) — see
  :func:`repro.experiments.resolved_parameters` — and reports the
  workload as ``result.parameters["workload"]``.
* **Overrides.**  :meth:`Workload.with_overrides` applies a sparse
  ``{field: value}`` mapping (the CLI's ``--set``, a campaign entry's
  ``"overrides"``, a scenario file) on top of a base workload,
  rejecting unknown field names.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Callable, ClassVar, Mapping, TypeVar

from repro.errors import ScenarioError

#: The reserved preset names every experiment ships.
PRESET_MODES = ("quick", "full")

#: A concrete workload class, for helpers that return their argument's type.
W = TypeVar("W", bound="Workload")


def _reject(field_name: str, message: str) -> ScenarioError:
    return ScenarioError(f"workload field {field_name!r}: {message}")


# ---------------------------------------------------------------------------
# Field specs: one coercion + validation rule per workload field.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """How one workload field coerces and validates its value.

    ``coerce`` receives ``(field_name, raw_value)`` and returns the
    normalised value or raises :class:`ScenarioError`.
    """

    coerce: Callable[[str, Any], Any]
    doc: str = ""


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            continue
    return token


def _as_sequence(name: str, value: Any) -> list[Any]:
    """A raw field value as a list of scalar items.

    Accepts tuples/lists, a single scalar, or a comma-separated string
    (the CLI ``--set sizes=256,512`` form).
    """
    if isinstance(value, str):
        items = [_parse_scalar(part) for part in value.split(",") if part.strip()]
        if not items:
            raise _reject(name, f"expected at least one value, got {value!r}")
        return items
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _coerce_int(name: str, value: Any) -> int:
    if isinstance(value, str):
        value = _parse_scalar(value)
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value == int(value):
            return int(value)
        raise _reject(name, f"expected an integer, got {value!r}")
    return value


def _coerce_float(name: str, value: Any) -> float:
    if isinstance(value, str):
        value = _parse_scalar(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reject(name, f"expected a number, got {value!r}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise _reject(name, f"expected a finite number, got {value!r}")
    return value


def int_field(minimum: int | None = None, doc: str = "") -> FieldSpec:
    """An integer field with an optional lower bound."""

    def coerce(name: str, value: Any) -> int:
        result = _coerce_int(name, value)
        if minimum is not None and result < minimum:
            raise _reject(name, f"must be >= {minimum}, got {result}")
        return result

    return FieldSpec(coerce, doc)


def float_field(
    minimum: float | None = None,
    maximum: float | None = None,
    doc: str = "",
) -> FieldSpec:
    """A finite-float field with optional inclusive bounds."""

    def coerce(name: str, value: Any) -> float:
        result = _coerce_float(name, value)
        if minimum is not None and result < minimum:
            raise _reject(name, f"must be >= {minimum}, got {result}")
        if maximum is not None and result > maximum:
            raise _reject(name, f"must be <= {maximum}, got {result}")
        return result

    return FieldSpec(coerce, doc)


def int_tuple_field(
    minimum: int | None = None,
    min_items: int = 1,
    doc: str = "",
) -> FieldSpec:
    """A non-empty tuple of integers, each with an optional lower bound."""

    def coerce(name: str, value: Any) -> tuple[int, ...]:
        items = tuple(_coerce_int(name, item) for item in _as_sequence(name, value))
        if len(items) < min_items:
            raise _reject(name, f"needs at least {min_items} value(s), got {items!r}")
        if minimum is not None:
            for item in items:
                if item < minimum:
                    raise _reject(name, f"every value must be >= {minimum}, got {item}")
        return items

    return FieldSpec(coerce, doc)


def float_tuple_field(
    minimum: float | None = None,
    maximum: float | None = None,
    min_items: int = 1,
    doc: str = "",
) -> FieldSpec:
    """A non-empty tuple of finite floats with optional inclusive bounds."""

    def coerce(name: str, value: Any) -> tuple[float, ...]:
        items = tuple(_coerce_float(name, item) for item in _as_sequence(name, value))
        if len(items) < min_items:
            raise _reject(name, f"needs at least {min_items} value(s), got {items!r}")
        for item in items:
            if minimum is not None and item < minimum:
                raise _reject(name, f"every value must be >= {minimum}, got {item}")
            if maximum is not None and item > maximum:
                raise _reject(name, f"every value must be <= {maximum}, got {item}")
        return items

    return FieldSpec(coerce, doc)


def object_field(
    from_value: Callable[[Any], Any],
    doc: str = "",
) -> FieldSpec:
    """A structured field (e.g. a graph family) with its own parser.

    ``from_value`` receives the raw value (already-built instance,
    dict, or string) and returns the structured object; its
    :class:`ScenarioError`\\ s pass through annotated with the field
    name.
    """

    def coerce(name: str, value: Any) -> Any:
        try:
            return from_value(value)
        except ScenarioError as error:
            raise _reject(name, str(error)) from None

    return FieldSpec(coerce, doc)


def choice_field(options: tuple[str, ...], doc: str = "") -> FieldSpec:
    """A string field restricted to a fixed set of options."""

    def coerce(name: str, value: Any) -> str:
        if not isinstance(value, str) or value not in options:
            raise _reject(
                name,
                f"must be one of {', '.join(repr(o) for o in options)}, "
                f"got {value!r}",
            )
        return value

    return FieldSpec(coerce, doc)


def object_tuple_field(
    from_value: Callable[[Any], Any],
    min_items: int = 1,
    doc: str = "",
) -> FieldSpec:
    """A non-empty tuple of structured items parsed by ``from_value``."""

    def coerce(name: str, value: Any) -> tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise _reject(name, f"expected a list, got {value!r}")
        if len(value) < min_items:
            raise _reject(name, f"needs at least {min_items} item(s), got {len(value)}")
        items = []
        for item in value:
            try:
                items.append(from_value(item))
            except ScenarioError as error:
                raise _reject(name, str(error)) from None
        return tuple(items)

    return FieldSpec(coerce, doc)


# ---------------------------------------------------------------------------
# The workload base class.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Base class of the per-experiment workload dataclasses.

    Subclasses are frozen dataclasses whose fields each have a
    :class:`FieldSpec` in the class-level :data:`FIELDS` mapping.
    Construction coerces and validates every field; equality is plain
    dataclass equality on the normalised values, which is what makes
    "is this workload exactly the quick/full preset?" a safe check.
    """

    #: One :class:`FieldSpec` per dataclass field, in field order.
    FIELDS: ClassVar[dict[str, FieldSpec]] = {}

    def __post_init__(self) -> None:
        cls = type(self)
        declared = {spec.name for spec in fields(self)}
        if set(cls.FIELDS) != declared:  # pragma: no cover - definition bug
            raise ScenarioError(
                f"{cls.__name__}.FIELDS must cover exactly the dataclass fields; "
                f"specs: {sorted(cls.FIELDS)}, fields: {sorted(declared)}"
            )
        for name, spec in cls.FIELDS.items():
            value = spec.coerce(name, getattr(self, name))
            object.__setattr__(self, name, value)
        self.validate()

    def validate(self) -> None:
        """Cross-field validation hook; subclasses may override."""

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-shaped form: tuples as lists, objects via ``to_dict``."""
        return {spec.name: _jsonable(getattr(self, spec.name)) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Workload":
        """Inverse of :meth:`to_dict`; unknown keys are errors.

        Fields with dataclass defaults may be omitted (so descriptions
        written before a field existed keep loading); fields without a
        default are required.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"{cls.__name__} description must be an object, "
                f"got {type(data).__name__}"
            )
        declared = [spec.name for spec in fields(cls)]
        unknown = sorted(set(data) - set(declared))
        if unknown:
            raise ScenarioError(
                f"{cls.__name__} has no field(s) {unknown}; "
                f"fields are {declared}"
            )
        required = {
            spec.name
            for spec in fields(cls)
            if spec.default is MISSING and spec.default_factory is MISSING
        }
        missing = sorted(required - set(data))
        if missing:
            raise ScenarioError(f"{cls.__name__} description is missing {missing}")
        return cls(**{name: data[name] for name in declared if name in data})

    # -- overrides -----------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "Workload":
        """A copy with ``overrides`` applied (coerced and re-validated).

        Unknown field names raise :class:`ScenarioError` listing the
        workload's actual fields, so a typoed override fails loudly
        instead of silently running the base workload.
        """
        if not isinstance(overrides, Mapping):
            raise ScenarioError(
                f"overrides must be a mapping of field names to values, "
                f"got {type(overrides).__name__}"
            )
        declared = [spec.name for spec in fields(self)]
        unknown = sorted(set(overrides) - set(declared))
        if unknown:
            raise ScenarioError(
                f"{type(self).__name__} has no field(s) {unknown}; "
                f"fields are {declared}"
            )
        if not overrides:
            return self
        return replace(self, **dict(overrides))

    def describe(self) -> str:
        """One-line ``field=value`` summary for CLI listings."""
        parts = []
        for spec in fields(self):
            value = _jsonable(getattr(self, spec.name))
            parts.append(f"{spec.name}={value!r}")
        return ", ".join(parts)


def _jsonable(value: Any) -> Any:
    """A field value as plain JSON-shaped data."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def overrides_digest(overrides: Mapping[str, Any]) -> str:
    """Short stable digest of an overrides mapping, for result-file names.

    Two different override sets on the same experiment/seed must not
    write to the same file; eight canonical-JSON digest characters keep
    the names distinct and reproducible.
    """
    import hashlib

    from repro.cache import canonical_json  # deferred: avoids an import cycle

    payload = canonical_json(dict(overrides))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


# ---------------------------------------------------------------------------
# Presets and run labels shared by every experiment module.
# ---------------------------------------------------------------------------


def preset_workload(presets: Mapping[str, W], mode: str) -> W:
    """The ``mode`` preset of an experiment's ``PRESETS`` mapping.

    Bad preset names raise ``ValueError`` naming ``mode``.
    """
    if mode not in PRESET_MODES:
        raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")
    return presets[mode]


def workload_label(presets: Mapping[str, Workload], workload: Workload) -> str:
    """``"quick"``, ``"full"``, or ``"scenario"`` for a workload.

    The label is a preset's name when the workload equals that preset,
    and ``"scenario"`` otherwise; it stamps ``ExperimentResult.mode``.
    A workload of another experiment's class raises
    :class:`ScenarioError` naming the expected class.
    """
    expected = type(presets["quick"])
    if not isinstance(workload, expected):
        raise ScenarioError(
            f"expected a {expected.__name__}, got {type(workload).__name__}"
        )
    for mode in PRESET_MODES:
        if workload == presets[mode]:
            return mode
    return "scenario"
