"""Engine telemetry: counters, timers and spans behind every measurement.

The paper's central metrics (active set, report rate, throughput) are
*measurements*, and measurements of unobserved engine internals are not
auditable.  This package is the repo's single observability substrate:
engines record compile/scan timings, the compile cache records hits and
misses, the lazy DFA records memo growth, the prefilter
records accept rates, and ``parallel_scan`` merges worker counters back
into the parent process — all behind a module-level switch whose disabled
path is one branch per call site.

Usage::

    from repro import telemetry

    telemetry.enable()
    ... run engines ...
    print(json.dumps(telemetry.snapshot(), indent=2))

``repro profile`` (see :mod:`repro.telemetry.profile`) packages this into
a per-benchmark, per-engine JSON artifact under ``bench_results/``.
"""

from repro.telemetry.core import (
    clock,
    counter_value,
    diff_snapshots,
    disable,
    enable,
    incr,
    is_enabled,
    merge,
    observe,
    record_compile,
    record_scan,
    reset,
    snapshot,
    span,
    timer_total,
)

__all__ = [
    "clock",
    "counter_value",
    "diff_snapshots",
    "disable",
    "enable",
    "incr",
    "is_enabled",
    "merge",
    "observe",
    "record_compile",
    "record_scan",
    "reset",
    "snapshot",
    "span",
    "timer_total",
]
