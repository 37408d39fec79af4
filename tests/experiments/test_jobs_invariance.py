"""Experiments that shard their own loops give the same result at any ``jobs``.

E12 maps its replicas, and E4/E13 their exact duality cases, over
:func:`repro.parallel.map_shards`; E4's Monte-Carlo tier, E10's SIS and
BIPS trials, E11's ensembles and E13's lossy ensembles run on the batch
shard kernels, and E7's k = 1 walks on the sparse ones.  Each runs its
micro workload; its kernels get what they need as task arguments, so
the check holds under any start method (CI also runs this file with
``REPRO_TEST_START_METHOD=spawn``).
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.microscale import micro_workload
from repro.parallel import MIN_SHARD_SIZE, set_default_jobs

#: On top of the micro overrides: E7's three samples per cell would be
#: one shard, so widen its cells past one shard.
WIDER = {"E7": {"samples": MIN_SHARD_SIZE + 8}}


@pytest.mark.parametrize("experiment_id", ["E4", "E7", "E10", "E11", "E12", "E13"])
def test_same_result_at_jobs_1_and_2(experiment_id):
    workload = micro_workload(experiment_id).with_overrides(WIDER.get(experiment_id, {}))
    results = []
    previous = set_default_jobs(1)
    try:
        for jobs in (1, 2):
            set_default_jobs(jobs)
            result = run_experiment(experiment_id, workload=workload, seed=1)
            results.append(result.to_json_dict())
    finally:
        set_default_jobs(previous)
    assert results[0] == results[1]
