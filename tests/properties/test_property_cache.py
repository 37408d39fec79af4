"""Property-based tests for cache-key stability.

The result cache is only sound if its key function is a *canonical*
identity: the same logical parameters must always produce the same
digest (dict ordering, float formatting, and process boundaries must
not matter), and any differing field must produce a different digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.cache import canonical_json, result_key
from repro.experiments import experiment_ids, get_experiment, resolved_parameters

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16)
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

parameter_dicts = st.dictionaries(st.text(min_size=1, max_size=12), json_values, max_size=6)


class TestKeyInvariance:
    @given(parameters=parameter_dicts, data=st.data())
    def test_invariant_to_dict_insertion_order(self, parameters, data):
        items = list(parameters.items())
        shuffled = dict(data.draw(st.permutations(items)))
        assert result_key("E1", "quick", 0, parameters) == result_key(
            "E1", "quick", 0, shuffled
        )

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_invariant_to_float_formatting(self, value):
        # The same float written as repr, padded scientific notation, or
        # parsed back from JSON text is one value — and one key.
        reformatted = float(f"{value:.17e}")
        assert reformatted == value
        assert result_key("E1", "quick", 0, {"x": value}) == result_key(
            "E1", "quick", 0, {"x": reformatted}
        )
        roundtripped = json.loads(json.dumps(value))
        assert result_key("E1", "quick", 0, {"x": value}) == result_key(
            "E1", "quick", 0, {"x": roundtripped}
        )

    def test_float_literal_formats_collapse(self):
        # 1e-3 and 0.001 are different JSON spellings of one number.
        for left_text, right_text in [("1e-3", "0.001"), ("1E2", "100.0"), ("0.50", "0.5")]:
            left = {"x": json.loads(left_text)}
            right = {"x": json.loads(right_text)}
            assert result_key("E1", "quick", 0, left) == result_key("E1", "quick", 0, right)

    @given(parameters=parameter_dicts)
    def test_canonical_json_is_deterministic(self, parameters):
        assert canonical_json(parameters) == canonical_json(parameters)


class TestKeyDistinctness:
    @given(parameters=parameter_dicts)
    def test_distinct_across_identity_fields(self, parameters):
        base = result_key("E1", "quick", 0, parameters)
        assert result_key("E2", "quick", 0, parameters) != base
        assert result_key("E1", "full", 0, parameters) != base
        assert result_key("E1", "quick", 1, parameters) != base

    @given(parameters=parameter_dicts, fresh_key=st.text(min_size=1, max_size=12))
    def test_distinct_when_a_field_is_added(self, parameters, fresh_key):
        grown = {**parameters, fresh_key: "sentinel-not-in-values"}
        if canonical_json(grown) == canonical_json(parameters):
            return  # fresh_key already held exactly this value
        assert result_key("E1", "quick", 0, grown) != result_key(
            "E1", "quick", 0, parameters
        )

    @given(parameters=parameter_dicts, data=st.data())
    def test_distinct_when_a_value_changes(self, parameters, data):
        if not parameters:
            return
        key = data.draw(st.sampled_from(sorted(parameters)))
        # Wrapping any value in a list always changes its canonical form.
        mutated = {**parameters, key: [parameters[key]]}
        assert result_key("E1", "quick", 0, mutated) != result_key(
            "E1", "quick", 0, parameters
        )


class TestCrossProcessStability:
    FIXED = {"sizes": [64, 128], "rho": 0.5, "label": "tail", "exact": True}

    def test_key_stable_across_processes(self):
        script = (
            "import json, sys\n"
            "from repro.cache import result_key\n"
            "params = json.loads(sys.argv[1])\n"
            "print(result_key('E1', 'quick', 0, params))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script, json.dumps(self.FIXED)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert completed.stdout.strip() == result_key("E1", "quick", 0, self.FIXED)

    def test_resolved_parameters_deterministic(self):
        e4 = get_experiment("E4")
        quick, full = e4.preset("quick"), e4.preset("full")
        assert resolved_parameters("E4", quick) == resolved_parameters("E4", quick)
        assert resolved_parameters("E4", quick) != resolved_parameters("E4", full)


def _key(experiment_id, workload):
    return result_key(experiment_id, "quick", 0, resolved_parameters(experiment_id, workload))


def _cli_string(value):
    """A scalar or tuple of numbers spelled the way ``--set`` takes it."""
    if isinstance(value, tuple):
        return ",".join(str(item) for item in value)
    return str(value)


class TestWorkloadIdentity:
    """The cache key follows every workload field, and only its value."""

    def test_every_field_the_presets_vary_changes_the_key(self):
        for experiment_id in experiment_ids():
            module = get_experiment(experiment_id)
            quick, full = module.preset("quick"), module.preset("full")
            base = _key(experiment_id, quick)
            varied = [
                field
                for field in full.to_dict()
                if getattr(quick, field) != getattr(full, field)
            ]
            assert varied, f"{experiment_id}'s presets differ in no field"
            for field in varied:
                moved = quick.with_overrides({field: getattr(full, field)})
                assert _key(experiment_id, moved) != base, (experiment_id, field)

    def test_equal_workloads_share_a_key_however_written(self):
        for experiment_id in experiment_ids():
            quick = get_experiment(experiment_id).preset("quick")
            base = _key(experiment_id, quick)
            rebuilt = type(quick).from_dict(quick.to_dict())
            assert _key(experiment_id, rebuilt) == base, experiment_id
            spelled = {
                field: _cli_string(value)
                for field, value in vars(quick).items()
                if isinstance(value, (int, float))
                or (
                    isinstance(value, tuple)
                    and value
                    and all(isinstance(item, (int, float)) for item in value)
                )
            }
            assert spelled, experiment_id
            assert _key(experiment_id, quick.with_overrides(spelled)) == base, experiment_id
