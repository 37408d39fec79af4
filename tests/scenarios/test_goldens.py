"""Cache-key and result goldens of the preset and micro workloads.

``tests/data/scenario_goldens.json`` pins:

* ``cache_keys`` — ``result_key(eid, mode, 0, resolved_parameters(eid,
  preset(mode)))`` for all 13 experiments × quick/full;
* ``micro_result_digests`` — SHA-256 of the canonical result JSON of a
  micro-scale run (:func:`~repro.experiments.microscale.micro_workload`,
  seed 1) per experiment;
* ``quick_result_digests`` — the same digest of E8's quick preset run
  (seed 1), in place of its micro run.

The goldens were re-captured when ``random_regular`` moved from
networkx to the in-repo NumPy pairing (every result changed and every
spec version was bumped), and again when the workload became the only
run identity: the cache keys became (spec, workload, seed) and
``parameters`` became the workload, with every table, figure and
finding unchanged.  E10's and E13's entries (micro digests and cache
keys) were re-captured alone when their ensembles moved from the
process classes onto the batch kernels' law values: new draw streams
of the same laws, under bumped spec versions.

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
from repro.experiments.microscale import MICRO_OVERRIDES, micro_workload
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
        workload = get_experiment(experiment_id).preset(mode)
        key = result_key(experiment_id, mode, 0, resolved_parameters(experiment_id, workload))
        assert key == golden

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_results_from_before_the_numpy_sampler_miss(self, experiment_id, tmp_path):
        # Every experiment draws random regular graphs, so the switch from
        # networkx to the NumPy pairing bumped every spec version: a
        # result cached under the previous version must not be served.
        current = resolved_parameters(
            experiment_id, get_experiment(experiment_id).preset("quick")
        )
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
        parameters = resolved_parameters("E4", bespoke)
        assert set(parameters) == {"spec", "workload"}
        assert parameters["workload"]["trials"] == 999
        key = result_key("E4", "scenario", 0, parameters)
        assert key != GOLDENS["cache_keys"]["E4:quick:0"]


class TestResultGoldens:
    @pytest.mark.parametrize(
        "experiment_id", sorted(GOLDENS["micro_result_digests"], key=lambda e: int(e[1:]))
    )
    def test_micro_results_bit_identical(self, experiment_id):
        """Micro workloads reproduce the captured results."""
        result = get_experiment(experiment_id).run(micro_workload(experiment_id), seed=1)
        # E5's micro overrides are empty, so its micro run is the quick preset.
        assert result.mode == ("scenario" if MICRO_OVERRIDES[experiment_id] else "quick")
        assert result_digest(result) == GOLDENS["micro_result_digests"][experiment_id]

    def test_e8_quick_result_bit_identical(self):
        """E8's golden is pinned at true quick scale (see module docstring)."""
        module = get_experiment("E8")
        result = module.run(module.preset("quick"), seed=1)
        assert result_digest(result) == GOLDENS["quick_result_digests"]["E8"]

    def test_goldens_cover_every_experiment(self):
        covered = set(GOLDENS["micro_result_digests"]) | set(
            GOLDENS["quick_result_digests"]
        )
        assert covered == set(experiment_ids())
        assert set(MICRO_OVERRIDES) == set(experiment_ids())
