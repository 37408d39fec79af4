"""Tests for the workload dataclasses and their field machinery."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError, ScenarioError
from repro.experiments import experiment_ids, get_experiment, run_experiment
from repro.scenarios import (
    WORKLOAD_TYPES,
    E1Workload,
    E2Workload,
    E4Workload,
    E13Workload,
    GraphFamily,
)
from repro.scenarios.base import workload_label


class TestPresets:
    @pytest.mark.parametrize("experiment_id", experiment_ids())
    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_every_experiment_has_both_presets(self, experiment_id, mode):
        module = get_experiment(experiment_id)
        workload = module.preset(mode)
        assert isinstance(workload, WORKLOAD_TYPES[experiment_id])
        assert workload == module.preset(mode)  # deterministic
        assert workload_label(module.PRESETS, workload) == mode

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_presets_differ(self, experiment_id):
        module = get_experiment(experiment_id)
        assert module.preset("quick") != module.preset("full")

    def test_bad_preset_mode_raises_valueerror(self):
        # preset(mode) and run_experiment(mode=...) raise ValueError naming mode.
        module = get_experiment("E1")
        with pytest.raises(ValueError, match="mode"):
            module.preset("gigantic")


class TestRoundTrip:
    @pytest.mark.parametrize("experiment_id", experiment_ids())
    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_to_dict_from_dict_roundtrip(self, experiment_id, mode):
        workload = get_experiment(experiment_id).preset(mode)
        rebuilt = type(workload).from_dict(workload.to_dict())
        assert rebuilt == workload
        assert rebuilt.to_dict() == workload.to_dict()

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        data = get_experiment("E1").preset("quick").to_dict()
        with pytest.raises(ScenarioError, match="no field"):
            E1Workload.from_dict({**data, "bogus": 1})
        del data["sizes"]
        with pytest.raises(ScenarioError, match="missing"):
            E1Workload.from_dict(data)


class TestCoercion:
    def test_cli_style_strings_coerce(self):
        base = get_experiment("E1").preset("quick")
        workload = base.with_overrides({"sizes": "256,512", "samples": "4"})
        assert workload.sizes == (256, 512)
        assert workload.samples == 4

    def test_lists_coerce_to_tuples(self):
        workload = E1Workload(sizes=[64, 128], degrees=[3], samples=2)
        assert workload.sizes == (64, 128)
        assert workload.degrees == (3,)

    def test_equal_workloads_compare_equal_across_spellings(self):
        a = E1Workload(sizes=(64, 128), degrees=(3,), samples=2)
        b = E1Workload(sizes=[64, 128], degrees="3", samples=2.0)
        assert a == b

    def test_family_coerces_from_string_and_dict(self):
        base = get_experiment("E2").preset("quick")
        by_name = base.with_overrides({"sizes": (64, 128), "family": "hypercube"})
        by_dict = base.with_overrides(
            {"sizes": (64, 128), "family": {"kind": "hypercube"}}
        )
        assert by_name == by_dict
        assert by_name.family == GraphFamily("hypercube")


class TestValidation:
    def test_unknown_override_lists_fields(self):
        base = get_experiment("E1").preset("quick")
        with pytest.raises(ScenarioError, match="no field.*'sizzes'.*sizes"):
            base.with_overrides({"sizzes": (64,)})

    def test_bad_values_name_the_field(self):
        with pytest.raises(ScenarioError, match="'samples'"):
            E1Workload(sizes=(64,), degrees=(3,), samples=0)
        with pytest.raises(ScenarioError, match="'sizes'"):
            E1Workload(sizes=(), degrees=(3,), samples=2)
        with pytest.raises(ScenarioError, match="finite"):
            E1Workload(sizes=(64,), degrees=(3,), samples=2, branching=float("nan"))

    def test_cross_field_validation(self):
        with pytest.raises(ScenarioError, match="degree 64 must be below"):
            E1Workload(sizes=(32,), degrees=(64,), samples=2)
        with pytest.raises(ScenarioError, match="mc_source"):
            E4Workload(trials=100, exact_t_max=3, mc_n=50, mc_source=50)
        with pytest.raises(ScenarioError, match="include 0.0"):
            E13Workload(
                n=128,
                r=8,
                loss_rates=(0.1,),
                critical_sweep=(0.5,),
                samples=20,
            )

    @pytest.mark.parametrize(
        "periods, match",
        [
            ((1, 1001), "periods 1 and 1001 share a seed stream"),
            ((4, 4), "periods 4 and 4 share a seed stream"),
            ((1000, 10_000_000), "periods 1000 and 10000000 share a seed stream"),
            ((10_000_000, 20_000_000), "share a seed stream"),
            ((2, 10_000_000, 10_000_001), "both >= 10_000_000"),
        ],
    )
    def test_e12_periods_must_not_share_a_seed_stream(self, periods, match):
        base = get_experiment("E12").preset("quick")
        with pytest.raises(ScenarioError, match=match):
            base.with_overrides({"periods": periods})

    def test_e12_distinct_periods_accepted(self):
        base = get_experiment("E12").preset("quick")
        workload = base.with_overrides({"periods": (1, 2, 999, 10_000_000)})
        assert workload.periods == (1, 2, 999, 10_000_000)

    def test_family_sizes_validated(self):
        with pytest.raises(ScenarioError, match="powers of two"):
            E2Workload(sizes=(100,), samples=2, family="hypercube")
        with pytest.raises(ScenarioError, match="torus"):
            E2Workload(sizes=(101,), samples=2, family={"kind": "torus", "dims": 2})


class TestResolveWorkload:
    """How ``run_experiment`` and ``run`` resolve and label a workload."""

    def test_default_is_quick(self):
        # E5's quick preset runs in well under a second.
        result = run_experiment("E5")
        assert result.mode == "quick"
        assert result.parameters["workload"] == get_experiment("E5").preset("quick").to_dict()

    def test_mode_and_workload_conflict(self):
        module = get_experiment("E4")
        with pytest.raises(ExperimentError, match="not both"):
            run_experiment("E4", mode="quick", workload=module.preset("quick"))

    def test_run_rejects_wrong_workload_type(self):
        e1_workload = get_experiment("E1").preset("quick")
        with pytest.raises(ScenarioError, match="E4Workload"):
            get_experiment("E4").run(e1_workload)
        with pytest.raises(ScenarioError, match="E4Workload"):
            run_experiment("E4", workload=e1_workload)
        with pytest.raises(ScenarioError, match="E4Workload"):
            run_experiment("E4", workload="quick")

    def test_overrides_equal_to_preset_label_as_preset(self):
        module = get_experiment("E4")
        workload = module.preset("quick").with_overrides(
            {"trials": str(module.preset("quick").trials)}
        )
        assert workload_label(module.PRESETS, workload) == "quick"
        assert (
            workload_label(module.PRESETS, workload.with_overrides({"trials": 7777}))
            == "scenario"
        )
