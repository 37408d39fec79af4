"""Tests for the experiment registry."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import experiment_ids, get_experiment, get_spec


class TestRegistry:
    def test_thirteen_experiments_registered(self):
        ids = experiment_ids()
        assert ids == [f"E{i}" for i in range(1, 14)]

    def test_every_module_has_spec_and_run(self):
        for experiment_id in experiment_ids():
            module = get_experiment(experiment_id)
            assert module.SPEC.experiment_id == experiment_id
            assert callable(module.run)

    def test_specs_reference_the_paper(self):
        references = [get_spec(i).paper_reference for i in experiment_ids()]
        joined = " ".join(references)
        for landmark in ("Theorem 1", "Theorem 2", "Theorem 3", "Theorem 4", "Lemma"):
            assert landmark in joined

    def test_case_insensitive_lookup(self):
        assert get_spec("e4").experiment_id == "E4"

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("E99")

    def test_run_rejects_bad_mode(self):
        for experiment_id in experiment_ids():
            with pytest.raises(ValueError, match="mode"):
                get_experiment(experiment_id).preset("gigantic")
