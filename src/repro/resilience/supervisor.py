"""Supervised parallel scanning: timeouts, crash recovery, poison isolation.

:func:`supervised_parallel_scan` is the resilient counterpart of
:func:`repro.engines.parallel.parallel_scan` (which is now a strict-mode
wrapper over this module).  The input is split with
:func:`~repro.engines.parallel.split_with_overlap` exactly as before; what
changes is what happens when a segment scan misbehaves:

* **per-segment timeouts** — each pool future is awaited with
  ``segment_timeout_s``; an overrun is treated as a failed attempt, not a
  hung sweep;
* **crash detection** — a dead worker process surfaces as
  ``BrokenExecutor`` / ``BrokenProcessPool``; the supervisor records a
  :class:`~repro.errors.WorkerCrash` for the affected segments and keeps
  going (remaining in-flight segments are retried too, since a broken
  pool loses them all);
* **bounded retry with jittered backoff** — failed segments are retried
  up to ``max_attempts`` times *in the supervisor's own process* through
  the engine fallback ladder (:func:`~repro.resilience.ladder
  .resilient_scan`), with ``min(cap, base * 2**(attempt-1))`` backoff
  jittered by a seeded RNG so retries are reproducible;
* **poison-segment isolation** — a segment that exhausts its attempts is
  quarantined as a structured :class:`SegmentReport` with ``error`` set;
  the scan completes with a partial (but deterministic) result instead
  of dying, and ``complete`` is ``False``.

**Worker-resident automata.**  What the supervisor derives from an
automaton — its pickle blob, the anchored flag and ``max_match_length``
— is computed once per :func:`~repro.engines.cache.automaton_fingerprint`
and kept in the engine cache's per-process resident store
(:func:`~repro.engines.cache.resident`, bounded and cleared with the
compile cache).  A segment task carries that record and its chunk; the
worker looks the fingerprint up in its own process's store and unpickles
the blob only on a miss (``parallel.resident.miss``), then compiles
through :func:`~repro.engines.cache.compiled_engine` as any caller does.
Shipping the ready blob with every task costs a byte copy and spares
the attempt loop a first-miss handshake.  The blob is pickled after
fingerprinting stamped the automaton, so workers never re-fingerprint.
The record shares the compile cache's blind spot: an element mutated in
place without a generation bump keeps its old fingerprint, and so its
old record and blob; restamp it with
``automaton_fingerprint(automaton, use_cache=False)``.

The merge is deterministic regardless of completion order: each
segment's :class:`~repro.engines.base.ReportBatch` is re-offset into
stream coordinates and keep-filtered (:meth:`ReportBatch.rebased`), and
the batches are concatenated in segment order
(:meth:`ReportBatch.concat`).  Keep ranges partition the input in order,
so no sort is needed — identical segments in, identical stream out.

Telemetry: ``parallel.resident.miss``, ``resilience.segment.timeout``,
``resilience.segment.crash``, ``resilience.pool.broken``,
``resilience.segment.retries``,
``resilience.segment.poisoned``, plus the ladder/guard counters emitted
by the per-attempt machinery.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field

from repro import telemetry
from repro.core.automaton import Automaton
from repro.core.elements import StartMode
from repro.engines import ENGINE_REGISTRY
from repro.engines.base import ReportBatch, RunResult
from repro.engines.cache import automaton_fingerprint, compiled_engine, resident
from repro.engines.parallel import Segment, split_with_overlap
from repro.engines.prefilter import max_match_length
from repro.errors import (
    EngineError,
    ReproError,
    ScanTimeout,
    WorkerCrash,
)
from repro.resilience import faults
from repro.resilience.guards import ScanBudget, ScanGuard, guard_scope
from repro.resilience.ladder import ladder_from, resilient_scan

__all__ = [
    "SegmentReport",
    "SupervisedScanResult",
    "SupervisorConfig",
    "supervised_parallel_scan",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """How hard the supervisor tries before quarantining a segment."""

    #: Wall-clock allowance per pool-submitted segment attempt; ``None``
    #: waits indefinitely (strict mode).
    segment_timeout_s: float | None = None
    #: Total attempts per segment (first pool attempt + supervised
    #: retries).  1 means no retries: a failed first attempt poisons its
    #: segment (strict :func:`~repro.engines.parallel.parallel_scan` then
    #: re-raises).
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    #: Seeds the backoff jitter so retry timing is reproducible.
    seed: int = 0
    #: Per-attempt engine resource budget (deadline, memo bytes).
    budget: ScanBudget | None = None

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential backoff before retry ``attempt`` (>= 2)."""
        base = min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 2))
        return base * (0.5 + rng.random())


@dataclass
class SegmentReport:
    """What happened to one segment: who scanned it, at what cost."""

    index: int
    segment: Segment
    engine: str | None = None  #: engine that completed it (None if poisoned)
    attempts: int = 0
    #: ``(engine, "ErrorType: message")`` per failed rung/attempt.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Terminal error string for a quarantined (poison) segment.
    error: str | None = None
    #: The last exception object (strict-mode callers re-raise it).
    exception: Exception | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SupervisedScanResult:
    """A supervised scan: merged result plus per-segment provenance."""

    result: RunResult
    segments: list[SegmentReport]

    @property
    def complete(self) -> bool:
        """True when every segment's reports made it into ``result``."""
        return all(report.ok for report in self.segments)

    @property
    def poisoned(self) -> list[SegmentReport]:
        return [report for report in self.segments if not report.ok]

    @property
    def degraded(self) -> bool:
        return any(report.failures for report in self.segments)


@dataclass(frozen=True)
class _Resident:
    """What the supervisor derives from an automaton, once per fingerprint."""

    fingerprint: str
    #: The automaton pickled after fingerprinting stamped it.
    blob: bytes
    anchored: bool
    #: ``max_match_length``; ``None`` when unbounded.
    window: int | None


def _resident_record(automaton: Automaton) -> _Resident:
    """Supervisor side: the record for ``automaton``, derived on a miss.

    Records live in :func:`repro.engines.cache.resident` as ``(record,
    this process's unpickled copy or None)``; the worker side (a pool
    process, or this one for serial and thread-pool scans) fills the copy.
    """
    fingerprint = automaton_fingerprint(automaton)

    def derive(entry):
        if entry is not None:
            return entry
        record = _Resident(
            fingerprint,
            pickle.dumps(automaton, pickle.HIGHEST_PROTOCOL),
            any(s.start is StartMode.START_OF_DATA for s in automaton.stes()),
            max_match_length(automaton),
        )
        return record, None

    return resident(fingerprint, derive)[0]


def _resident_automaton(record: _Resident) -> Automaton:
    """Worker side: this process's copy of the automaton, unpickled on a miss."""

    def load(entry):
        if entry is not None and entry[1] is not None:
            return entry
        telemetry.incr("parallel.resident.miss")
        return record, pickle.loads(record.blob)

    return resident(record.fingerprint, load)[1]


def _scan_segment_supervised(args):
    """Pool-side single attempt: scan one pre-sliced chunk, return its batch.

    Module-level and fed only picklable arguments so it works on process
    pools.  Mirrors the telemetry protocol of the original serial path:
    spans/counters recorded here are snapshotted and the delta shipped
    back for pid-aware merging in the supervisor.
    """
    (record, chunk, segment, index, engine_cls, label, collect, plan,
     parent_pid, budget) = args
    was_enabled = telemetry.is_enabled()
    if collect and not was_enabled:
        telemetry.enable()
    try:
        before = telemetry.snapshot() if collect else None
        try:
            faults.maybe_crash(plan, index, 1, parent_pid)
            faults.maybe_stall(plan, index, 1)
            faults.maybe_fail_engine(label, index, plan)
            engine = compiled_engine(_resident_automaton(record), engine_cls)
            guard = ScanGuard(budget, segment=index) if budget else None
            with telemetry.span("parallel.segment"), guard_scope(guard):
                result = engine.run(chunk)
            events = result.reports.rebased(segment.scan_start, segment.keep_from)
            error = None
        except ReproError as exc:
            # Ship library failures back as values: the supervisor owns the
            # retry decision, and structured returns survive any pool.
            events, error = None, exc
        delta = telemetry.diff_snapshots(before, telemetry.snapshot()) if collect else None
    finally:
        # Any other exception must not leave this worker tracing later
        # untraced tasks.
        if collect and not was_enabled:
            telemetry.disable()
    return events, delta, error


def _note_failure(report: SegmentReport, engine: str, error: Exception) -> None:
    """Record one failed attempt on ``report`` (with crash accounting)."""
    if isinstance(error, WorkerCrash):
        telemetry.incr("resilience.segment.crash")
    report.failures.append((engine, f"{type(error).__name__}: {error}"))
    report.exception = error


def _merge_worker_delta(delta) -> None:
    """Merge a worker's telemetry delta unless it is already local.

    Counter/timer deltas recorded inside *other processes* (a process
    pool) must be merged back; same-pid deltas (serial path or thread
    pools) already live in this registry.
    """
    if delta is not None and delta.get("pid") != os.getpid():
        telemetry.merge(delta)


def _retry_segment(
    automaton: Automaton,
    data: bytes,
    segment: Segment,
    report: SegmentReport,
    engine_cls,
    label: str,
    config: SupervisorConfig,
    rng: random.Random,
) -> ReportBatch | None:
    """Supervisor-side retries for one failed segment.

    Runs in the supervisor's process (the pool may be broken), walking
    the fallback ladder per attempt.  Returns the re-offset, keep-filtered
    batch, or ``None`` once the segment is poisoned — at once when the
    first attempt already used up ``max_attempts``.
    """
    # A non-registry engine has no ladder: rerun it directly.
    ladder = ladder_from(label) if label in ENGINE_REGISTRY else (engine_cls,)
    chunk = data[segment.scan_start : segment.end]
    while report.attempts < config.max_attempts:
        report.attempts += 1
        telemetry.incr("resilience.segment.retries")
        time.sleep(config.backoff_s(report.attempts, rng))
        try:
            faults.maybe_crash(None, report.index, report.attempts, os.getpid())
            faults.maybe_stall(None, report.index, report.attempts)
            outcome = resilient_scan(
                automaton,
                chunk,
                ladder=ladder,
                budget=config.budget,
                segment=report.index,
            )
        except ReproError as exc:
            _note_failure(report, "retry", exc)
            continue
        report.engine = outcome.engine
        report.failures.extend(outcome.fallbacks)
        return outcome.result.reports.rebased(segment.scan_start, segment.keep_from)
    telemetry.incr("resilience.segment.poisoned")
    report.engine = None
    report.error = report.failures[-1][1] if report.failures else "exhausted attempts"
    return None


def supervised_parallel_scan(
    automaton: Automaton,
    data: bytes,
    n_segments: int,
    *,
    pool=None,
    engine="vector",
    config: SupervisorConfig | None = None,
) -> SupervisedScanResult:
    """Scan ``data`` in overlapped segments under supervision.

    Same segmentation preconditions as
    :func:`~repro.engines.parallel.parallel_scan` (unanchored automaton,
    finite match length).  ``pool`` is any ``concurrent.futures``
    executor; without one, segments run serially in-process (first
    attempts still honour budgets and fault hooks).  ``engine`` is the
    *primary* engine — a registry name or an :class:`Engine` subclass;
    retries degrade down the fallback ladder from there.
    """
    if isinstance(engine, str):
        if engine not in ENGINE_REGISTRY:
            raise EngineError(f"unknown engine {engine!r}")
        engine_cls, label = ENGINE_REGISTRY[engine], engine
    else:
        engine_cls = engine
        label = next(
            (n for n, c in ENGINE_REGISTRY.items() if c is engine_cls),
            engine_cls.__name__,
        )
    record = _resident_record(automaton)
    if record.anchored:
        raise EngineError("parallel_scan requires an unanchored automaton")
    if record.window is None:
        raise EngineError(
            "automaton has unbounded match length; segment overlap cannot "
            "bound cross-boundary matches"
        )
    config = config or SupervisorConfig()
    segments = split_with_overlap(len(data), n_segments, max(record.window - 1, 0))
    collect = telemetry.is_enabled()
    telemetry.incr("parallel.scans")
    telemetry.incr("parallel.segments", len(segments))
    plan = faults.active_plan()
    parent_pid = os.getpid()
    reports = [SegmentReport(index=i, segment=s) for i, s in enumerate(segments)]
    events_by_segment: list[ReportBatch | None] = [None] * len(segments)

    def task_for(index: int):
        segment = segments[index]
        return (
            record,
            data[segment.scan_start : segment.end],
            segment,
            index,
            engine_cls,
            label,
            collect,
            plan,
            parent_pid,
            config.budget,
        )

    futures = None
    if pool is not None:
        futures = [pool.submit(_scan_segment_supervised, task_for(index))
                   for index in range(len(segments))]
    failed: list[int] = []
    pool_broken = False
    for index, report in enumerate(reports):
        report.attempts = 1
        if futures is None:
            events, delta, error = _scan_segment_supervised(task_for(index))
        elif pool_broken:
            # A broken pool loses every in-flight task; don't block on
            # futures that can no longer complete.
            events, delta, error = None, None, WorkerCrash(index, 1, "pool broken")
        else:
            try:
                events, delta, error = futures[index].result(
                    timeout=config.segment_timeout_s
                )
            except FuturesTimeoutError:
                telemetry.incr("resilience.segment.timeout")
                futures[index].cancel()
                events, delta = None, None
                error = ScanTimeout(
                    label,
                    segments[index].scan_start,
                    config.segment_timeout_s or 0.0,
                    segment=index,
                )
            except BrokenExecutor:
                telemetry.incr("resilience.pool.broken")
                pool_broken = True
                events, delta, error = None, None, WorkerCrash(index, 1)
            except BaseException:
                # A non-library error from an engine escapes the scan: it
                # must not leave this scan's queued segments to run after
                # the call is gone.
                for future in futures:
                    future.cancel()
                raise
        _merge_worker_delta(delta)
        if error is not None:
            _note_failure(report, label, error)
            failed.append(index)
        else:
            report.engine = label
            events_by_segment[index] = events

    rng = random.Random(config.seed)
    for index in failed:
        events_by_segment[index] = _retry_segment(
            automaton, data, segments[index], reports[index],
            engine_cls, label, config, rng
        )

    merged = ReportBatch.concat(
        events for events in events_by_segment if events is not None
    )
    return SupervisedScanResult(
        result=RunResult(reports=merged, cycles=len(data)),
        segments=reports,
    )
