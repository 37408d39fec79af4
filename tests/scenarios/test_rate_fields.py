"""Schema tests for the engine/rate workload fields and their scenarios."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.experiments import get_experiment
from repro.scenarios import E1Workload, E2Workload
from repro.scenarios.registry import get_scenario, validate_scenario_dict


def e2(**overrides) -> E2Workload:
    base = dict(sizes=(64, 128), samples=2, family="hypercube")
    base.update(overrides)
    return E2Workload(**base)


class TestEngineField:
    def test_defaults_to_batch(self):
        assert e2().engine == "batch"
        assert E1Workload(sizes=(64,), degrees=(3,), samples=2).engine == "batch"

    @pytest.mark.parametrize("engine", ["batch", "event", "sparse"])
    def test_accepts_every_seam_engine(self, engine):
        assert e2(engine=engine).engine == engine

    def test_rejects_unknown_engine(self):
        for engine in ("quantum", "process"):
            with pytest.raises(ScenarioError, match="'engine'.*one of"):
                e2(engine=engine)
            with pytest.raises(ScenarioError, match="'engine'.*one of"):
                E1Workload(sizes=(64,), degrees=(3,), samples=2, engine=engine)
        with pytest.raises(ScenarioError, match="'engine'"):
            e2(engine=7)

    def test_experiments_without_the_field_reject_it(self):
        # E3 has no engine seam; a scenario targeting it must fail loudly.
        base = get_experiment("E3").preset("quick")
        with pytest.raises(ScenarioError, match="no field.*engine"):
            base.with_overrides({"engine": "event"})
        with pytest.raises(ScenarioError, match="no field"):
            base.with_overrides({"transmission_rate": 2.0})


class TestRateFields:
    def test_rates_require_the_event_engine(self):
        with pytest.raises(ScenarioError, match="engine='event'"):
            e2(transmission_rate=2.0)
        with pytest.raises(ScenarioError, match="engine='event'"):
            e2(recovery_rate=0.5)
        with pytest.raises(ScenarioError, match="engine='event'"):
            e2(edge_rate_overrides=((0, 1, 2.0),))
        with pytest.raises(ScenarioError, match="engine='event'"):
            E1Workload(
                sizes=(64,), degrees=(3,), samples=2, transmission_rate=0.5
            )

    def test_rates_accepted_on_the_event_engine(self):
        workload = e2(
            engine="event",
            transmission_rate=2.0,
            recovery_rate=0.25,
            edge_rate_overrides=[[0, 1, 4.0]],
        )
        assert workload.transmission_rate == 2.0
        assert workload.edge_rate_overrides == ((0, 1, 4.0),)

    def test_negative_rates_rejected(self):
        with pytest.raises(ScenarioError, match="'transmission_rate'"):
            e2(engine="event", transmission_rate=-1.0)
        with pytest.raises(ScenarioError, match="'recovery_rate'"):
            e2(engine="event", recovery_rate=-0.5)
        with pytest.raises(ScenarioError, match="'transmission_rate'.*finite"):
            e2(engine="event", transmission_rate=float("inf"))

    @pytest.mark.parametrize(
        "triple, message",
        [
            ((0, 1), "triple"),
            ("0,1,2", "triple"),
            ((0.5, 1, 2.0), "integers"),
            ((True, 1, 2.0), "integers"),
            ((-1, 1, 2.0), ">= 0"),
            ((1, 1, 2.0), "self-loops"),
            ((0, 1, "fast"), "number"),
            ((0, 1, -2.0), "finite number >= 0"),
            ((0, 1, float("nan")), "finite number >= 0"),
        ],
    )
    def test_malformed_edge_overrides_rejected(self, triple, message):
        with pytest.raises(ScenarioError, match=message):
            e2(engine="event", edge_rate_overrides=[triple])

    def test_edge_override_endpoints_must_fit_every_ladder_size(self):
        with pytest.raises(ScenarioError, match="smallest ladder size"):
            e2(engine="event", edge_rate_overrides=[(0, 64, 1.0)])


class TestSerialisation:
    def test_round_trip_keeps_rate_fields(self):
        workload = e2(
            engine="event", recovery_rate=0.1, edge_rate_overrides=((0, 1, 4.0),)
        )
        rebuilt = E2Workload.from_dict(workload.to_dict())
        assert rebuilt == workload
        assert rebuilt.edge_rate_overrides == ((0, 1, 4.0),)

    def test_pre_rate_descriptions_still_load(self):
        # Descriptions written before the rate fields existed omit them;
        # from_dict must fill the defaults rather than reject.
        data = {"sizes": [64, 128], "samples": 2, "family": {"kind": "hypercube"}}
        workload = E2Workload.from_dict(data)
        assert workload == e2()

    def test_required_fields_still_required(self):
        with pytest.raises(ScenarioError, match="missing.*sizes"):
            E2Workload.from_dict({"samples": 2, "family": {"kind": "hypercube"}})


class TestScenarioSchema:
    def _description(self, **overrides) -> dict:
        merged = {
            "sizes": [64, 128],
            "samples": 2,
            "family": {"kind": "hypercube"},
            "engine": "event",
            **overrides,
        }
        return {
            "name": "rate-demo",
            "experiment_id": "E2",
            "overrides": merged,
        }

    def test_valid_rate_scenario_parses(self):
        scenario = validate_scenario_dict(
            self._description(edge_rate_overrides=[[0, 1, 4.0]])
        )
        assert scenario.workload().engine == "event"

    def test_rate_without_event_engine_rejected(self):
        with pytest.raises(ScenarioError, match="engine='event'"):
            validate_scenario_dict(self._description(engine="batch", recovery_rate=0.5))

    def test_negative_rate_rejected(self):
        with pytest.raises(ScenarioError, match="transmission_rate"):
            validate_scenario_dict(self._description(transmission_rate=-2.0))

    def test_malformed_edge_override_rejected(self):
        with pytest.raises(ScenarioError, match="triple"):
            validate_scenario_dict(self._description(edge_rate_overrides=[[0, 1]]))


class TestRegistryScenarios:
    @pytest.mark.parametrize(
        "name",
        ["e1-event-expander", "e2-event-sparse", "e2-heterogeneous-rates"],
    )
    def test_event_scenarios_resolve(self, name):
        workload = get_scenario(name).workload()
        assert workload.engine == "event"

    def test_heterogeneous_rates_carries_overrides(self):
        workload = get_scenario("e2-heterogeneous-rates").workload()
        assert workload.edge_rate_overrides == ((0, 1, 4.0), (1, 2, 0.25))
