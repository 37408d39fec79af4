"""Batch BIPS samples the exact infection-time law.

:func:`repro.core.batch.batch_bips_infection_times` steps BIPS from
infected-neighbour counts.  Its infection times are compared with
``ExactBips(graph, 0, branching=k).infection_time_distribution`` on
Petersen, the odd cycle C9, K7 and the 3×3 grid (irregular: degrees 2,
3 and 4), at k = 2 and the fractional k = 1.5, by a chi-square
goodness-of-fit test of 4,000 samples with adjacent rounds pooled until
every bin expects at least five samples and the rounds past the horizon
pooled into one tail bin.  Sparse BIPS returns the batch engine's bits
(``tests/core/test_sparse.py``), so this checks both engines.

The fractional trace's transmissions are checked against their law: in
every live round each of the ``n − 1`` non-source vertices contacts
``m`` neighbours plus one more with probability ``ρ``, so the extra
contacts over all live rounds are ``Binomial(rounds·(n − 1), ρ)``.

Lossy BIPS is checked on both engines that run it against the lossy
exact law ``ExactBips(graph, 0, branching=k, loss_probability=0.2)``, on
Petersen, C9 and the 3×3 grid by the same chi-square test; loss slows
infection, so the horizon is 400 rounds.  The batch kernel, under
``BipsLaw(loss=0.2)``, gives 4,000 infection times at k = 2 and at the
fractional k = 1.5.  The process class, the oracle, gives 2,000 at
k = 2, one spawned seed each.

The false-positive budget is ``α = 1e-3`` per test, eighteen tests in
all; at the pinned seeds the outcome is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro._rng import spawn_generators
from repro.core.batch import BipsLaw, batch_bips_infection_times, batch_bips_traces
from repro.core.bips import BipsProcess
from repro.core.runner import run_process
from repro.exact.bips_exact import ExactBips
from repro.graphs import generators

from tests.exact_law import exact_law_pvalue

ALPHA = 1e-3
SAMPLES = 4000
#: Past this round every case's law has mass below 1e-4.
HORIZON = 80
LOSS = 0.2
LOSSY_SAMPLES = 2000
#: Past this round the lossy laws have a small tail bin.
LOSSY_HORIZON = 400

GRAPHS = {
    "petersen": generators.petersen,
    "C9": lambda: generators.cycle(9),
    "K7": lambda: generators.complete(7),
    "grid3x3": lambda: generators.grid((3, 3)),
}


@pytest.mark.parametrize("branching", [2.0, 1.5])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_infection_times_follow_the_exact_law(name, branching):
    graph = GRAPHS[name]()
    pmf, tail = ExactBips(graph, 0, branching=branching).infection_time_distribution(HORIZON)
    times = batch_bips_infection_times(
        graph, 0, branching=branching, n_replicas=SAMPLES, seed=0
    )
    assert exact_law_pvalue(times, pmf, tail) > ALPHA


def test_fractional_transmissions_follow_their_law():
    graph = generators.petersen()
    n, mandatory, rho = graph.n_vertices, 1, 0.5
    traces = batch_bips_traces(graph, 0, branching=1.5, n_replicas=SAMPLES, seed=1)
    live = traces.transmissions > 0
    contacts = int(live.sum()) * (n - 1)
    extra = int(traces.transmissions[live].sum()) - contacts * mandatory
    assert 0 < extra < contacts
    lower = stats.binom.cdf(extra, contacts, rho)
    upper = stats.binom.sf(extra - 1, contacts, rho)
    assert 2 * min(lower, upper) > ALPHA
    # Every live round records between m and m + 1 contacts per vertex.
    per_round = traces.transmissions[live]
    assert np.all((per_round >= (n - 1) * mandatory) & (per_round <= (n - 1) * (mandatory + 1)))


@pytest.mark.parametrize("branching", [2.0, 1.5])
@pytest.mark.parametrize("name", ["petersen", "C9", "grid3x3"])
def test_lossy_infection_times_follow_the_exact_law(name, branching):
    graph = GRAPHS[name]()
    exact = ExactBips(graph, 0, branching=branching, loss_probability=LOSS)
    pmf, tail = exact.infection_time_distribution(LOSSY_HORIZON)
    outcome = batch_bips_infection_times(
        graph, 0, branching=branching, n_replicas=SAMPLES, seed=2, law=BipsLaw(loss=LOSS)
    )
    assert not outcome.extinct.any()
    assert exact_law_pvalue(outcome.completion_times, pmf, tail) > ALPHA


@pytest.mark.parametrize("name", ["petersen", "C9", "grid3x3"])
def test_lossy_process_infection_times_follow_the_exact_law(name):
    graph = GRAPHS[name]()
    exact = ExactBips(graph, 0, branching=2.0, loss_probability=LOSS)
    pmf, tail = exact.infection_time_distribution(LOSSY_HORIZON)
    times = np.array(
        [
            run_process(
                BipsProcess(graph, 0, branching=2.0, loss_probability=LOSS, seed=rng),
                raise_on_timeout=True,
            ).completion_time
            for rng in spawn_generators(0, LOSSY_SAMPLES)
        ]
    )
    assert exact_law_pvalue(times, pmf, tail) > ALPHA
