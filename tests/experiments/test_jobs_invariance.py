"""Experiments that shard their own loops give the same result at any ``jobs``.

E12 maps its replicas, and E4/E13 their exact duality cases, over
:func:`repro.parallel.map_shards`; E4's Monte-Carlo tier and E11's
ensembles run on the batch shard kernels, and E7's k = 1 walks on the
sparse ones.  Micro overrides patch module constants in this process
only, so these runs also check that no pool kernel reads one (under
``REPRO_TEST_START_METHOD=spawn`` workers re-import the modules and
would see the unpatched values).
"""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment, run_experiment
from repro.experiments.microscale import MICRO_OVERRIDES, apply_micro_overrides
from repro.parallel import MIN_SHARD_SIZE, set_default_jobs

#: On top of the micro overrides: E7's three samples per cell would be
#: one shard, so widen its cells past one shard.
WIDER = {"E7": {"QUICK": {**MICRO_OVERRIDES["E7"]["QUICK"], "samples": MIN_SHARD_SIZE + 8}}}


@pytest.mark.parametrize("experiment_id", ["E4", "E7", "E11", "E12", "E13"])
def test_same_result_at_jobs_1_and_2(experiment_id, monkeypatch):
    apply_micro_overrides(experiment_id, monkeypatch.setattr)
    for name, value in WIDER.get(experiment_id, {}).items():
        monkeypatch.setattr(get_experiment(experiment_id), name, value)
    results = []
    previous = set_default_jobs(1)
    try:
        for jobs in (1, 2):
            set_default_jobs(jobs)
            results.append(run_experiment(experiment_id, seed=1).to_json_dict())
    finally:
        set_default_jobs(previous)
    assert results[0] == results[1]
