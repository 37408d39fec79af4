"""The batch kernels' law values: lossy COBRA, plain SIS and reach-all BIPS.

E10 and E13 run their ensembles under these laws
(:class:`~repro.core.batch.CobraLaw`, :class:`~repro.core.batch.BipsLaw`),
so each is checked against a reference:

* **Lossy COBRA's extinction rounds** against the exact law: the mass
  ``ExactCobra(graph, branching=k, loss_probability=p)`` puts on ``∅``
  after ``t`` rounds (``distribution_at(0, t)[0]``, evolved one round at
  a time) is ``P(dead by round t)``.  The kernel stops a replica that
  covers, which would hide its later death, so it runs on the graph
  plus one isolated vertex: cover is impossible there, and every run
  ends in extinction or at the cap.  4,000 runs at (k, p) = (2, 0.6)
  and (1.5, 0.4), on Petersen and C9, by the chi-square test of
  ``tests/exact_law.py``.  ``p ≠ 1/2``, so an inverted thinning coin
  changes the law.
* **Plain SIS** (``BipsLaw(persistent_source=False)``) against
  :class:`~repro.core.sis.SisProcess`: how each run ends (extinct, and
  in which round; full, and in which round; or timed out), 4,000 kernel
  runs against 1,000 process runs, by a two-sample chi-square test.
* **Lossy BIPS's reach-all time** (``BipsLaw(loss=0.2,
  reach_all=True)``) against :class:`~repro.core.bips.BipsProcess`
  stepped until every vertex has been infected once, by the same
  two-sample test.

The lossy BIPS infection-time law itself is checked against
``ExactBips`` in ``tests/core/test_bips_conformance.py``.

The false-positive budget is ``α = 1e-3`` per statistical test, nine
tests in all; at the pinned seeds the outcome is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro._rng import spawn_generators
from repro.core.batch import (
    BatchOutcome,
    BipsLaw,
    CobraLaw,
    batch_bips_infection_times,
    batch_cobra_cover_times,
)
from repro.core.bips import BipsProcess
from repro.core.runner import run_process
from repro.core.sis import SisProcess
from repro.errors import CoverTimeoutError, InfectionTimeoutError, ProcessError
from repro.exact.cobra_exact import ExactCobra
from repro.graphs import generators
from repro.graphs.build import from_edges

from tests.exact_law import exact_law_pvalue

ALPHA = 1e-3
KERNEL_SAMPLES = 4000
PROCESS_SAMPLES = 1000
#: Past this round the extinction laws below have mass below 1e-5.
EXTINCTION_HORIZON = 60
#: Rounds before an SIS run counts as timed out.
SIS_CAP = 300
SIS = BipsLaw(persistent_source=False)

GRAPHS = {
    "petersen": generators.petersen,
    "C9": lambda: generators.cycle(9),
}


def two_sample_pvalue(first: np.ndarray, second: np.ndarray, min_count: int = 10) -> float:
    """Chi-square p-value that two samples of integer codes share one law.

    Codes are taken in ascending order and adjacent ones pooled until
    both samples together hold at least ``min_count`` of each bin.
    """
    values = np.union1d(first, second)
    table = np.stack(
        [
            np.bincount(np.searchsorted(values, sample), minlength=values.size)
            for sample in (first, second)
        ]
    )
    pooled: list[np.ndarray] = []
    pending = np.zeros(2, dtype=np.int64)
    for column in table.T:
        pending = pending + column
        if pending.sum() >= min_count:
            pooled.append(pending)
            pending = np.zeros(2, dtype=np.int64)
    pooled[-1] = pooled[-1] + pending
    return float(stats.chi2_contingency(np.array(pooled).T).pvalue)


def _codes(ended: np.ndarray, rounds: np.ndarray, cap: int) -> np.ndarray:
    """One integer per run: extinct at t → t, full at t → cap + t, timeout → 2·cap + 1."""
    codes = np.where(ended == "extinct", rounds, cap + rounds)
    return np.where(ended == "timeout", 2 * cap + 1, codes)


@pytest.mark.parametrize("branching, loss", [(2.0, 0.6), (1.5, 0.4)])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_lossy_cobra_extinction_rounds_follow_the_exact_law(name, branching, loss):
    graph = GRAPHS[name]()
    exact = ExactCobra(graph, branching=branching, loss_probability=loss)
    distribution = exact.distribution_at(0, 0)
    dead = [float(distribution[0])]
    for _ in range(EXTINCTION_HORIZON):
        distribution = exact.evolve(distribution)
        dead.append(float(distribution[0]))
    pmf = np.diff(dead, prepend=0.0)
    uncoverable = from_edges(
        graph.n_vertices + 1, list(graph.edges()), name=f"{graph.name}+isolated vertex"
    )
    outcome = batch_cobra_cover_times(
        uncoverable,
        0,
        branching=branching,
        n_replicas=KERNEL_SAMPLES,
        seed=3,
        max_rounds=EXTINCTION_HORIZON,
        raise_on_timeout=False,
        law=CobraLaw(loss=loss),
    )
    assert outcome.goal_times.size == 0
    times = np.where(outcome.extinct, outcome.completion_times, EXTINCTION_HORIZON + 1)
    assert exact_law_pvalue(times, pmf, 1.0 - dead[-1]) > ALPHA


@pytest.mark.parametrize("name, branching", [("petersen", 1.0), ("petersen", 2.0), ("C9", 1.5)])
def test_sis_ends_as_the_process_does(name, branching):
    graph = GRAPHS[name]()
    outcome = batch_bips_infection_times(
        graph,
        0,
        branching=branching,
        n_replicas=KERNEL_SAMPLES,
        seed=4,
        max_rounds=SIS_CAP,
        raise_on_timeout=False,
        law=SIS,
    )
    kernel_ended = np.where(
        outcome.extinct, "extinct", np.where(outcome.completion_times < 0, "timeout", "full")
    )
    process_ended, process_rounds = [], []
    for rng in spawn_generators(5, PROCESS_SAMPLES):
        process = SisProcess(graph, 0, branching=branching, seed=rng)
        result = run_process(process, max_rounds=SIS_CAP)
        ended = "extinct" if result.extinct else "full" if result.completed else "timeout"
        process_ended.append(ended)
        process_rounds.append(result.rounds_run)
    assert outcome.extinct.any() and (kernel_ended == "full").any()
    kernel = _codes(kernel_ended, outcome.completion_times, SIS_CAP)
    process = _codes(np.array(process_ended), np.array(process_rounds), SIS_CAP)
    assert two_sample_pvalue(kernel, process) > ALPHA


@pytest.mark.parametrize("name, branching", [("petersen", 2.0), ("C9", 1.5)])
def test_lossy_reach_all_times_follow_the_process(name, branching):
    graph = GRAPHS[name]()
    loss = 0.2
    outcome = batch_bips_infection_times(
        graph,
        0,
        branching=branching,
        n_replicas=KERNEL_SAMPLES,
        seed=6,
        law=BipsLaw(loss=loss, reach_all=True),
    )
    process_times = []
    for rng in spawn_generators(7, PROCESS_SAMPLES):
        process = BipsProcess(graph, 0, branching=branching, loss_probability=loss, seed=rng)
        while process.cumulative_count < graph.n_vertices:
            process.step()
        process_times.append(process.round_index)
    assert not outcome.extinct.any()
    assert two_sample_pvalue(outcome.completion_times, np.array(process_times)) > ALPHA


class TestOutcomes:
    def test_paper_laws_return_the_default_bits(self, small_expander):
        kwargs = dict(n_replicas=40, seed=8, shard_size=16)
        cobra = batch_cobra_cover_times(small_expander, 0, **kwargs)
        lawful = batch_cobra_cover_times(small_expander, 0, law=CobraLaw(), **kwargs)
        assert isinstance(lawful, BatchOutcome)
        assert np.array_equal(lawful.completion_times, cobra)
        bips = batch_bips_infection_times(small_expander, 0, **kwargs)
        lawful = batch_bips_infection_times(small_expander, 0, law=BipsLaw(), **kwargs)
        assert np.array_equal(lawful.completion_times, bips)
        assert not lawful.extinct.any()

    def test_a_death_is_not_a_timeout(self, petersen):
        # The default cap is generous: every run covers or dies, and the
        # dead ones must not raise as timeouts.
        cobra = batch_cobra_cover_times(
            petersen, 0, n_replicas=200, seed=9, law=CobraLaw(loss=0.6)
        )
        sis = batch_bips_infection_times(petersen, 0, n_replicas=200, seed=9, law=SIS)
        for outcome in (cobra, sis):
            assert outcome.extinct.any() and not outcome.extinct.all()
            assert (outcome.completion_times > 0).all() and outcome.timeouts == 0
            extinct = outcome.completion_times[outcome.extinct]
            assert np.array_equal(outcome.extinction_times, extinct)
            assert outcome.goal_times.size + outcome.extinction_times.size == 200

    def test_timeouts_still_raise_or_read_minus_one(self, small_expander):
        with pytest.raises(CoverTimeoutError):
            batch_cobra_cover_times(
                small_expander, 0, n_replicas=8, seed=1, max_rounds=2, law=CobraLaw(loss=0.1)
            )
        with pytest.raises(InfectionTimeoutError, match="reach every vertex"):
            batch_bips_infection_times(
                small_expander, 0, n_replicas=8, seed=1, max_rounds=2,
                law=BipsLaw(loss=0.1, reach_all=True),
            )
        outcome = batch_bips_infection_times(
            small_expander, 0, n_replicas=8, seed=1, max_rounds=2, raise_on_timeout=False,
            law=SIS,
        )
        assert outcome.timeouts == np.count_nonzero(~outcome.extinct) > 0
        assert (outcome.completion_times[~outcome.extinct] == -1).all()

    def test_jobs_do_not_change_lossy_results(self, small_expander):
        kwargs = dict(n_replicas=70, seed=10, raise_on_timeout=False, law=CobraLaw(loss=0.45))
        inline = batch_cobra_cover_times(small_expander, 0, jobs=1, **kwargs)
        pooled = batch_cobra_cover_times(small_expander, 0, jobs=2, **kwargs)
        assert np.array_equal(inline.completion_times, pooled.completion_times)
        assert np.array_equal(inline.extinct, pooled.extinct)

    @pytest.mark.parametrize("loss", [-0.1, 1.0])
    def test_loss_validated(self, loss):
        with pytest.raises(ProcessError):
            CobraLaw(loss=loss)
        with pytest.raises(ProcessError):
            BipsLaw(loss=loss)
