"""Differential validation of analyzer claims against execution traces.

The analyzer makes *universal* claims — "this state is dead", "this
charset can never match", "this counter can never fire".  Each claim has
an observable consequence on any concrete run, so every conformance fuzz
case doubles as a test of the analyzer: run the case through
:class:`~repro.engines.reference.ReferenceEngine` with trace recording
and check that

* no element claimed dead (``AZ101``/``AZ102``/``AZ103``) was ever
  *enabled*,
* no STE claimed unsatisfiable (``AZ201``) ever *matched*,
* no counter claimed threshold-unreachable (``AZ301``/``AZ303``) ever
  accumulated a count or fired.

A violated claim is an analyzer bug (or an engine bug — either way a
finding), reported as a problem string the conformance runner turns into
a :class:`~repro.conformance.runner.Divergence`.  This module depends
only on core + engines, so :mod:`repro.conformance` can import it
without cycles.
"""

from __future__ import annotations

from repro.analysis import analyze
from repro.analysis.diagnostics import AnalysisReport
from repro.core.automaton import Automaton
from repro.engines.reference import ReferenceEngine

__all__ = ["claim_violations", "crosscheck"]

#: Codes whose element_ids claim "never enabled".
_DEAD_CODES = ("AZ101", "AZ102", "AZ103")
#: Codes whose element_ids claim "never matches" (STEs).
_UNSATISFIABLE_CODES = ("AZ201",)
#: Codes whose element_ids claim "never receives a count / never fires".
_INERT_COUNTER_CODES = ("AZ301", "AZ303")


def claim_violations(
    automaton: Automaton, data: bytes, report: AnalysisReport
) -> list[str]:
    """Check ``report``'s universal claims against one concrete run."""
    stream = ReferenceEngine(automaton).stream(record_trace=True)
    stream.feed(data)
    ever_enabled = stream.ever_enabled or set()
    ever_matched = stream.ever_matched or set()

    claims = report.diagnostics + report.suppressed
    problems: list[str] = []

    dead: set[str] = set()
    for code in _DEAD_CODES:
        for diagnostic in claims:
            if diagnostic.code == code:
                dead.update(diagnostic.element_ids)
    for ident in sorted(dead & ever_enabled):
        problems.append(
            f"analyzer claimed {ident!r} dead (never enabled), but the "
            f"reference trace enabled it"
        )

    unsatisfiable: set[str] = set()
    for code in _UNSATISFIABLE_CODES:
        for diagnostic in claims:
            if diagnostic.code == code:
                unsatisfiable.update(diagnostic.element_ids)
    for ident in sorted(unsatisfiable & ever_matched):
        problems.append(
            f"analyzer claimed {ident!r} unsatisfiable (never matches), but "
            f"the reference trace matched it"
        )

    inert: set[str] = set()
    for code in _INERT_COUNTER_CODES:
        for diagnostic in claims:
            if diagnostic.code == code:
                inert.update(diagnostic.element_ids)
    for ident in sorted(inert):
        state = stream.counter_states.get(ident)
        if state is None:
            continue
        if state.count > 0 or state.latched or state.stopped or ident in ever_matched:
            problems.append(
                f"analyzer claimed counter {ident!r} can never count/fire, "
                f"but the reference trace drove it "
                f"(count={state.count}, latched={state.latched}, "
                f"stopped={state.stopped})"
            )
    return problems


def crosscheck(automaton: Automaton, data: bytes) -> list[str]:
    """Analyze ``automaton`` and validate its claims over ``data``.

    Returns problem strings (empty = analyzer claims hold on this run).
    The conformance runner calls this on every fuzz case.
    """
    report = analyze(automaton)
    return claim_violations(automaton, data, report)
