"""Trace-level metrics: transmission budgets.

COBRA's design goal (paper §1) is to propagate fast *while limiting
the number of transmissions per vertex per step*.  The helpers here
quantify that trade-off from recorded traces so the E9 experiment can
put COBRA, push, and push–pull on a common rounds-vs-messages axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.process import Trace


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one process run.

    Attributes
    ----------
    rounds:
        Number of recorded rounds.
    total_transmissions:
        Messages summed over all rounds.
    peak_transmissions_per_round:
        Largest per-round message count (the instantaneous network load).
    mean_transmissions_per_round:
        Average per-round message count.
    peak_active:
        Largest active-set size observed.
    final_cumulative:
        Cumulative (covered) count at the end of the trace.
    """

    rounds: int
    total_transmissions: int
    peak_transmissions_per_round: int
    mean_transmissions_per_round: float
    peak_active: int
    final_cumulative: int


def summarize_trace(trace: Trace) -> TraceSummary:
    """Aggregate a trace into a :class:`TraceSummary`."""
    if len(trace) == 0:
        return TraceSummary(0, 0, 0, 0.0, 0, 0)
    transmissions = trace.transmissions()
    active = trace.active_counts()
    return TraceSummary(
        rounds=len(trace),
        total_transmissions=int(transmissions.sum()),
        peak_transmissions_per_round=int(transmissions.max()),
        mean_transmissions_per_round=float(transmissions.mean()),
        peak_active=int(active.max()),
        final_cumulative=int(trace.cumulative_counts()[-1]),
    )
