"""Output digests and output checks.

Digests are drift-proof: integers hash exactly, other floats are
rounded to 10 significant digits first, and ``λ`` (with everything
derived from it) is kept out of the hash and compared at 1e-9
relative instead, because ``eigsh`` without a start vector jitters in
the last bits between calls.  Findings text and ASCII figures are
formatted views of the tables and are not hashed.

Checks hold for every correct build at every seed: the experiment
checks are the shape asserts of ``benchmarks/bench_e*.py``, and the
ensemble checks are lower bounds and wide law bands.
"""

from __future__ import annotations

import hashlib
import json
import math
from numbers import Integral, Real
from typing import Any

import numpy as np

LAMBDA_RTOL = 1e-9

#: Parameter keys derived from λ.
LAMBDA_PARAMETERS = {"lambda"}

#: (experiment, table) -> columns derived from λ (the eigensolver output).
LAMBDA_COLUMNS: dict[tuple[str, str], set[str]] = {
    ("E1", "cover times"): {"lambda", "condition", "T = log n/(1-l)^3"},
    ("E1", "complete graph (r = n-1 endpoint)"): {"lambda"},
    ("E2", "BIPS vs COBRA"): {"lambda", "T bound"},
    ("E3", "cover times"): {"lambda"},
    ("E5", "growth-bound ratios"): {"lambda", "min exact/bound"},
    ("E6", "phase durations vs budgets"): {
        "lambda",
        "boundary m",
        "small budget",
        "mid budget",
        "endgame budget",
    },
    ("E8", "cover vs gap"): {"lambda", "1/(1-lambda)", "bound T"},
    ("E8", "power-law fits"): {"gap exponent", "R^2"},
}


def canonical(value: Any) -> Any:
    """JSON-ready value: exact integers, floats at 10 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return float(f"{value:.10g}") + 0.0  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(item) for item in value]
    return value if value is None else str(value)


def _hash(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _floats(value: Any) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [item for entry in value for item in _floats(entry)]
    return [float(value)]


def experiment_digest(experiment_id: str, result) -> tuple[str, list[float]]:
    """``(hash of everything but λ, λ-derived values)`` for one result."""
    lambdas: list[float] = []
    parameters = {}
    for key, value in result.parameters.items():
        if key in LAMBDA_PARAMETERS:
            lambdas.extend(_floats(value))
        else:
            parameters[key] = canonical(value)
    tables = {}
    for table_name, table in result.tables.items():
        derived = LAMBDA_COLUMNS.get((experiment_id, table_name), set())
        keep = [i for i, header in enumerate(table.headers) if header not in derived]
        lam = [i for i, header in enumerate(table.headers) if header in derived]
        tables[table_name] = {
            "headers": [table.headers[i] for i in keep],
            "rows": [[canonical(row[i]) for i in keep] for row in table.rows],
        }
        lambdas.extend(float(row[i]) for row in table.rows for i in lam)
    payload = {"id": experiment_id, "mode": result.mode, "seed": result.seed}
    payload.update(parameters=parameters, tables=tables)
    return _hash(payload), lambdas


def times_digest(times: np.ndarray) -> tuple[str, list[float]]:
    """Completion times are integers: hash them exactly."""
    data = np.ascontiguousarray(np.asarray(times, dtype="<i8"))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16], []


def lambdas_match(first: list[float], second: list[float]) -> bool:
    """λ-derived values agree at :data:`LAMBDA_RTOL` relative."""
    if len(first) != len(second):
        return False
    return all(
        (math.isnan(a) and math.isnan(b))
        or math.isclose(a, b, rel_tol=LAMBDA_RTOL, abs_tol=1e-300)
        for a, b in zip(first, second)
    )


# -- experiment checks (the shape asserts of benchmarks/bench_e*.py) --------


def _column(result, table: str, column: str) -> list[Any]:
    return result.tables[table].column(column)


def _check_e1(result):
    if min(_column(result, "log-n fits per degree", "R^2")) <= 0.8:
        yield "E1 cover time no longer linear in log n (R^2 <= 0.8)"


def _check_e2(result):
    if not all(0.2 < ratio < 5.0 for ratio in _column(result, "BIPS vs COBRA", "infec/cov")):
        yield "E2 infection and cover times no longer of the same order"


def _check_e3(result):
    if min(_column(result, "log-n fits per rho", "R^2")) <= 0.7:
        yield "E3 fractional branching lost its log-n shape (R^2 <= 0.7)"


def _check_e4(result):
    if max(_column(result, "exact verification", "max |LHS - RHS|")) >= 1e-10:
        yield "E4 exact duality gap >= 1e-10"


def _check_e5(result):
    if min(_column(result, "growth-bound ratios", "min exact/bound")) < 1.0 - 1e-9:
        yield "E5 Lemma 1 growth bound violated (ratio < 1)"


def _check_e7(result):
    exponents = _column(result, "torus power-law fits", "power-law exponent")
    if not 0.3 < exponents[0] < 0.75:
        yield f"E7 2-D torus exponent {exponents[0]:.3f} outside (0.3, 0.75)"
    if not 0.2 < exponents[1] < 0.55:
        yield f"E7 3-D torus exponent {exponents[1]:.3f} outside (0.2, 0.55)"


def _check_e8(result):
    if max(_column(result, "power-law fits", "gap exponent")) > 3.0:
        yield "E8 gap exponent exceeds the Theorem 1 ceiling of 3"


def _check_e9(result):
    table = result.tables["protocol comparison"]
    rounds = dict(zip(table.column("protocol"), table.column("mean rounds")))
    if not rounds["COBRA k=1.0"] > 20 * rounds["COBRA k=2.0"]:
        yield "E9 k=1 is not far slower than k=2"


def _check_e10(result):
    if result.tables["outcomes"].rows[-1][3] != 0:
        yield "E10 BIPS went extinct"


def _check_e11(result):
    rates = _column(result, "geometric tail fits", "tail rate / round")
    if not all(0.0 < rate < 0.9 for rate in rates):
        yield "E11 tails stopped decaying geometrically"


def _check_e12(result):
    if min(_column(result, "log-n fits", "R^2")) <= 0.7:
        yield "E12 dynamic regimes lost the log-n shape (R^2 <= 0.7)"


def _check_e13(result):
    if max(_column(result, "exact lossy duality", "max |LHS - RHS|")) >= 1e-10:
        yield "E13 exact lossy duality gap >= 1e-10"


EXPERIMENT_CHECKS = {
    "E1": _check_e1,
    "E2": _check_e2,
    "E3": _check_e3,
    "E4": _check_e4,
    "E5": _check_e5,
    "E7": _check_e7,
    "E8": _check_e8,
    "E9": _check_e9,
    "E10": _check_e10,
    "E11": _check_e11,
    "E12": _check_e12,
    "E13": _check_e13,
}


def check_experiment(experiment_id: str, result) -> list[str]:
    """Failed shape checks of one experiment result (E6 has none)."""
    if result.spec.experiment_id != experiment_id or not result.tables:
        return [f"{experiment_id} returned an empty or foreign result"]
    check = EXPERIMENT_CHECKS.get(experiment_id)
    return list(check(result)) if check is not None else []


# -- ensemble checks ---------------------------------------------------------


def check_ensemble(
    times: np.ndarray,
    *,
    n: int,
    n_samples: int,
    eccentricity: int,
    branching: float,
    expander: bool,
) -> list[str]:
    """Lower bounds every replica obeys, plus wide law bands on the mean.

    Completing takes at least the start's eccentricity in rounds, and a
    single token (k=1) needs at least n-1 moves.  On expanders the k=2
    mean lies in [log2 n, 4 log2 n] and the k=1 mean in
    [0.8, 2] x n ln n.
    """
    times = np.asarray(times)
    failures = []
    if times.shape != (n_samples,):
        failures.append(f"expected {n_samples} times, got shape {times.shape}")
        return failures
    if (times < 0).any():
        failures.append(f"{int((times < 0).sum())} replicas returned -1")
    if times.min() < eccentricity:
        failures.append(f"a time {int(times.min())} is below the eccentricity {eccentricity}")
    if branching == 1.0 and times.min() < n - 1:
        failures.append(f"a k=1 cover {int(times.min())} is below n-1 = {n - 1}")
    if expander:
        mean = float(times.mean())
        if branching == 2.0 and not math.log2(n) <= mean <= 4 * math.log2(n):
            failures.append(f"k=2 mean {mean:.2f} outside [log2 n, 4 log2 n] at n={n}")
        if branching == 1.0 and not 0.8 <= mean / (n * math.log(n)) <= 2.0:
            failures.append(f"k=1 mean {mean:.0f} outside [0.8, 2] x n ln n at n={n}")
    return failures
