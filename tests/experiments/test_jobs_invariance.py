"""Experiments that shard their own loops give the same result at any ``jobs``.

E12 maps its replicas, and E4/E13 their exact duality cases, over
:func:`repro.parallel.map_shards`; E11's ensembles go through
``sample_completion_times``.  Micro overrides patch module constants in
this process only, so these runs also check that no pool kernel reads
one (under ``REPRO_TEST_START_METHOD=spawn`` workers re-import the
modules and would see the unpatched values).
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.microscale import apply_micro_overrides
from repro.parallel import set_default_jobs


@pytest.mark.parametrize("experiment_id", ["E4", "E11", "E12", "E13"])
def test_same_result_at_jobs_1_and_2(experiment_id, monkeypatch):
    apply_micro_overrides(experiment_id, monkeypatch.setattr)
    results = []
    previous = set_default_jobs(1)
    try:
        for jobs in (1, 2):
            set_default_jobs(jobs)
            results.append(run_experiment(experiment_id, seed=1).to_json_dict())
    finally:
        set_default_jobs(previous)
    assert results[0] == results[1]
