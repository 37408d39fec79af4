"""Cache-key and result back-compat goldens for the workload refactor.

``tests/data/scenario_goldens.json`` was captured from the pre-scenario
code (module constants + ``run(mode=...)`` only):

* ``cache_keys`` — ``result_key(eid, mode, 0, resolved_parameters())``
  for all 13 experiments × quick/full;
* ``micro_result_digests`` — SHA-256 of the canonical result JSON of a
  micro-scale quick run (seed 1) per experiment;
* ``quick_result_digests`` — the same digest at *unpatched* quick scale
  for E8 (its micro run is excluded: the old code hard-coded
  ``circulant(513...)`` labels that ignored patched constants, a
  stale-label bug the workload refactor fixes).

These tests pin the acceptance criteria: preset workloads produce the
same cache keys and the same results as the old ``mode=`` path.

All three were re-captured once when ``random_regular`` moved from
networkx to the in-repo NumPy pairing: every experiment draws random
regular graphs, so every result changed and every spec version was
bumped.

**Rounding rule.**  Report tables mix sampled integers with floats from
eigensolvers and least-squares fits, whose last bits drift across
LAPACK/ARPACK builds.  :func:`result_digest` therefore hashes integers
exactly and floats rounded to 10 significant digits, with ``-0.0``
folded into ``0.0`` and nan/inf written as their ``repr`` — the rule
``e2ebench/outputs.canonical`` uses.  Kernel outputs stay exactly
pinned by ``tests/data/batch_goldens.npz``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ResultCache, result_key
from repro.experiments import (
    experiment_ids,
    get_experiment,
    resolved_parameters,
)
from repro.experiments.microscale import MICRO_OVERRIDES, apply_micro_overrides
from repro.experiments.results import ExperimentResult
from repro.experiments.spec import ExperimentSpec

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "scenario_goldens.json").read_text()
)

#: Spec versions while ``random_regular`` still called networkx.
PRE_NUMPY_SAMPLER_VERSIONS = {
    "E1": "2", "E2": "2", "E3": "2", "E4": "2", "E5": "1", "E6": "2", "E7": "2",
    "E8": "2", "E9": "2", "E10": "1", "E11": "2", "E12": "1", "E13": "2",
}


def _canonical(value):
    """JSON-ready value under the module's rounding rule."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return float(f"{value:.10g}") + 0.0  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return str(value)


def result_digest(result) -> str:
    """SHA-256 of the result JSON with floats canonicalised (see the docstring)."""
    payload = json.dumps(
        _canonical(result.to_json_dict()), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestCacheKeyGoldens:
    @pytest.mark.parametrize("experiment_id", experiment_ids())
    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_preset_keys_unchanged(self, experiment_id, mode):
        golden = GOLDENS["cache_keys"][f"{experiment_id}:{mode}:0"]
        # The legacy mode path ...
        via_mode = result_key(
            experiment_id, mode, 0, resolved_parameters(experiment_id, mode)
        )
        # ... and the preset-workload path must both produce the
        # pre-refactor key.
        workload = get_experiment(experiment_id).preset(mode)
        via_workload = result_key(
            experiment_id,
            mode,
            0,
            resolved_parameters(experiment_id, workload=workload),
        )
        assert via_mode == golden
        assert via_workload == golden

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_results_from_before_the_numpy_sampler_miss(self, experiment_id, tmp_path):
        # Every experiment draws random regular graphs, so the switch from
        # networkx to the NumPy pairing bumped every spec version: a
        # result cached under the previous version must not be served.
        current = resolved_parameters(experiment_id, "quick")
        stale = copy.deepcopy(current)
        stale["spec"]["version"] = PRE_NUMPY_SAMPLER_VERSIONS[experiment_id]
        assert current["spec"]["version"] != stale["spec"]["version"]
        cached = ExperimentResult(
            spec=ExperimentSpec.from_dict(stale["spec"]),
            mode="quick",
            seed=0,
            parameters={},
            tables={},
            figures={},
            findings=[],
        )
        cache = ResultCache(tmp_path)
        cache.put(experiment_id, "quick", 0, stale, cached)
        assert cache.get(experiment_id, "quick", 0, stale) is not None
        assert cache.get(experiment_id, "quick", 0, current) is None

    def test_scenario_workloads_get_their_own_keys(self):
        module = get_experiment("E4")
        bespoke = module.preset("quick").with_overrides({"trials": 999})
        parameters = resolved_parameters("E4", workload=bespoke)
        assert parameters["mode"] == "scenario"
        assert parameters["workload"]["trials"] == 999
        key = result_key("E4", "scenario", 0, parameters)
        assert key != GOLDENS["cache_keys"]["E4:quick:0"]

    def test_patched_constants_still_change_preset_keys(self, monkeypatch):
        # The legacy scrape survives: micro-overriding a constant must
        # move the key (stale cache entries can never be served).
        module = get_experiment("E4")
        before = result_key("E4", "quick", 0, resolved_parameters("E4", "quick"))
        monkeypatch.setattr(module, "QUICK_TRIALS", 123)
        after = result_key("E4", "quick", 0, resolved_parameters("E4", "quick"))
        assert before != after


class TestResultGoldens:
    @pytest.mark.parametrize(
        "experiment_id", sorted(GOLDENS["micro_result_digests"], key=lambda e: int(e[1:]))
    )
    def test_micro_results_bit_identical(self, experiment_id, monkeypatch):
        """Preset workloads reproduce the captured results."""
        apply_micro_overrides(experiment_id, monkeypatch.setattr)
        module = get_experiment(experiment_id)
        result = module.run(module.preset("quick"), seed=1)
        assert result.mode == "quick"
        assert result_digest(result) == GOLDENS["micro_result_digests"][experiment_id]

    def test_e8_quick_result_bit_identical(self):
        """E8's golden is pinned at true quick scale (see module docstring)."""
        module = get_experiment("E8")
        result = module.run(mode="quick", seed=1)
        assert result_digest(result) == GOLDENS["quick_result_digests"]["E8"]

    def test_mode_shim_equals_workload_path(self, monkeypatch):
        """run(mode=...) and run(preset workload) are the same run."""
        apply_micro_overrides("E4", monkeypatch.setattr)
        module = get_experiment("E4")
        via_mode = module.run(mode="quick", seed=3)
        via_workload = module.run(module.preset("quick"), seed=3)
        assert via_mode.to_json_dict() == via_workload.to_json_dict()

    def test_goldens_cover_every_experiment(self):
        covered = set(GOLDENS["micro_result_digests"]) | set(
            GOLDENS["quick_result_digests"]
        )
        assert covered == set(experiment_ids())
        assert set(MICRO_OVERRIDES) == set(experiment_ids())
