"""Output-reporting bottleneck analysis.

Section V motivates its rule filtering with the observation that high
report rates "are known to cause output reporting bottlenecks in Micron's
D480" (Wadden et al., HPCA'18): the AP drains reports through a fixed-size
per-window output buffer, and windows whose report volume exceeds the
drain budget stall the chip.  This module computes that pressure for any
run: per-window report counts, the fraction of windows that would
overflow, and the modelled stall overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import RunResult

__all__ = ["ReportPressure", "analyze_report_pressure"]


@dataclass(frozen=True)
class ReportPressure:
    """Reporting-bottleneck summary for one run."""

    window_size: int
    budget_per_window: int
    n_windows: int
    total_reports: int
    max_window_reports: int
    overflowing_windows: int
    stall_windows: int

    @property
    def overflow_fraction(self) -> float:
        """Fraction of windows whose reports exceed the drain budget."""
        if self.n_windows == 0:
            return 0.0
        return self.overflowing_windows / self.n_windows

    @property
    def stall_overhead(self) -> float:
        """Extra windows spent draining, relative to compute windows.

        A window with ``r`` reports needs ``ceil(r / budget)`` windows of
        drain time; overhead is the total extra windows divided by
        ``n_windows`` (0.0 = no bottleneck; 1.0 = run takes twice as long).
        """
        if self.n_windows == 0:
            return 0.0
        return self.stall_windows / self.n_windows

    @property
    def mean_reports_per_window(self) -> float:
        if self.n_windows == 0:
            return 0.0
        return self.total_reports / self.n_windows


def analyze_report_pressure(
    result: RunResult,
    *,
    window_size: int = 256,
    budget_per_window: int = 32,
) -> ReportPressure:
    """Compute reporting pressure from a run's report stream.

    Defaults model a D480-like output region: a report vector drained every
    256 symbols with capacity for 32 report events per drain.
    """
    if window_size < 1 or budget_per_window < 1:
        raise ValueError("window size and budget must be positive")
    n_windows = (result.cycles + window_size - 1) // window_size
    counts = [0] * max(n_windows, 1)
    reports = result.reports
    for offset, group in zip(reports.offsets, reports.groups):
        counts[offset // window_size] += len(group)
    overflowing = sum(1 for c in counts if c > budget_per_window)
    stall = sum(
        (c + budget_per_window - 1) // budget_per_window - 1
        for c in counts
        if c > 0
    )
    return ReportPressure(
        window_size=window_size,
        budget_per_window=budget_per_window,
        n_windows=n_windows,
        total_reports=result.report_count,
        max_window_reports=max(counts) if counts else 0,
        overflowing_windows=overflowing,
        stall_windows=stall,
    )
