"""Statistics, curve fitting, phase decomposition, and rendering."""

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.comparison import (
    ComparisonResult,
    compare_completion_times,
    mann_whitney,
    welch_t_test,
)
from repro.analysis.fitting import (
    LinearFit,
    fit_linear,
    fit_log_linear,
    fit_power_law,
)
from repro.analysis.phases import PhaseBreakdown, split_phases
from repro.analysis.stats import (
    SummaryStats,
    proportion_ci,
    summarize,
)
from repro.analysis.tables import Table
from repro.analysis.tails import (
    GeometricTailFit,
    empirical_survival,
    fit_geometric_tail,
    restart_expectation_bound,
)
from repro.analysis.trace_view import render_coverage_bars

__all__ = [
    "SummaryStats",
    "summarize",
    "proportion_ci",
    "LinearFit",
    "fit_linear",
    "fit_log_linear",
    "fit_power_law",
    "PhaseBreakdown",
    "split_phases",
    "Table",
    "ascii_plot",
    "GeometricTailFit",
    "empirical_survival",
    "fit_geometric_tail",
    "restart_expectation_bound",
    "render_coverage_bars",
    "ComparisonResult",
    "compare_completion_times",
    "welch_t_test",
    "mann_whitney",
]
