"""End-to-end runs of every experiment at micro scale.

Each experiment runs its quick preset shrunk to the shared toy sizes
of :func:`repro.experiments.microscale.micro_workload` (also used by
the CI benchmark smoke) so the full code path (graph building,
measurement, fitting, table/figure assembly) executes in seconds.  The
real quick and full parameter sets are exercised by the benchmark
harness.
"""

from __future__ import annotations

from repro.experiments import (
    e1_cover_expanders,
    e2_bips_infection,
    e3_fractional_branching,
    e4_duality,
    e5_growth_bound,
    e6_phases,
    e7_baselines,
    e8_spectral_sweep,
    e9_branching_sweep,
    e10_persistence_ablation,
    e11_whp_tails,
    e12_dynamic_graphs,
    e13_message_loss,
)
from repro.experiments.microscale import MICRO_OVERRIDES, micro_workload


def assert_wellformed(result, experiment_id: str) -> None:
    assert result.spec.experiment_id == experiment_id
    # A micro workload is a scenario, unless its overrides are empty (E5).
    assert result.mode == ("scenario" if MICRO_OVERRIDES[experiment_id] else "quick")
    assert result.findings
    assert result.tables
    for table in result.tables.values():
        assert table.n_rows > 0
    rendered = result.render()
    assert experiment_id in rendered


class TestMicroRuns:
    def test_e1(self):
        result = e1_cover_expanders.run(micro_workload("E1"), seed=1)
        assert_wellformed(result, "E1")
        assert result.tables["cover times"].n_rows == 4
        assert "cover vs n" in result.figures

    def test_e2(self):
        result = e2_bips_infection.run(micro_workload("E2"), seed=1)
        assert_wellformed(result, "E2")
        ratios = result.tables["BIPS vs COBRA"].column("infec/cov")
        assert all(0.1 < ratio < 10 for ratio in ratios)

    def test_e3(self):
        result = e3_fractional_branching.run(micro_workload("E3"), seed=1)
        assert_wellformed(result, "E3")

    def test_e4(self):
        result = e4_duality.run(micro_workload("E4"), seed=1)
        assert_wellformed(result, "E4")
        gaps = result.tables["exact verification"].column("max |LHS - RHS|")
        assert max(gaps) < 1e-10

    def test_e5(self):
        # E5 is already sub-second at quick scale; its micro workload is the preset.
        result = e5_growth_bound.run(micro_workload("E5"), seed=1)
        assert_wellformed(result, "E5")
        ratios = result.tables["growth-bound ratios"].column("min exact/bound")
        assert min(ratios) >= 1.0 - 1e-9

    def test_e6(self):
        result = e6_phases.run(micro_workload("E6"), seed=1)
        assert_wellformed(result, "E6")

    def test_e7(self):
        result = e7_baselines.run(micro_workload("E7"), seed=1)
        assert_wellformed(result, "E7")
        speedups = result.tables["random walk vs COBRA"].column("speedup")
        assert all(s > 1 for s in speedups)

    def test_e8(self):
        result = e8_spectral_sweep.run(micro_workload("E8"), seed=1)
        assert_wellformed(result, "E8")

    def test_e9(self):
        result = e9_branching_sweep.run(micro_workload("E9"), seed=1)
        assert_wellformed(result, "E9")
        # 2 COBRA rows + push + pull + push-pull.
        assert result.tables["protocol comparison"].n_rows == 5

    def test_e10(self):
        result = e10_persistence_ablation.run(micro_workload("E10"), seed=1)
        assert_wellformed(result, "E10")
        outcomes = result.tables["outcomes"]
        bips_row = outcomes.rows[-1]
        assert bips_row[3] == 0  # BIPS never extinct

    def test_e11(self):
        result = e11_whp_tails.run(micro_workload("E11"), seed=1)
        assert_wellformed(result, "E11")
        rates = result.tables["geometric tail fits"].column("tail rate / round")
        assert all(0.0 < rate < 1.0 for rate in rates)

    def test_e12(self):
        result = e12_dynamic_graphs.run(micro_workload("E12"), seed=1)
        assert_wellformed(result, "E12")
        # 3 regimes x 2 sizes rows.
        assert result.tables["cover/infection times"].n_rows == 6

    def test_e13(self):
        result = e13_message_loss.run(micro_workload("E13"), seed=1)
        assert_wellformed(result, "E13")
        gaps = result.tables["exact lossy duality"].column("max |LHS - RHS|")
        assert max(gaps) < 1e-10
