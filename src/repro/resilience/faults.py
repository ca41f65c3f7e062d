"""Deterministic, seed-free fault injection for the resilience layer.

Production code calls the ``maybe_*`` / ``should_*`` hooks at the exact
points where real faults strike — worker entry, scan attempt, memo
growth, sweep journaling.  With no plan installed every hook is a
cheap no-op; tests install a :class:`FaultPlan` (via
:func:`inject_faults`, or by passing the plan through a pickled task
tuple so process-pool workers see it) to force a specific failure on a
specific segment/attempt, deterministically.

The plan is *declarative*: "crash worker on segment 2's first attempt",
"stall segment 1 for 0.2s on its first two attempts", "inflate the
lazy-DFA memo estimate 64x", "every engine fails on segment 3".  No
randomness is involved — the supervising code's jittered backoff is the
only stochastic element, and it is seeded.

One environment hook rides along for process-kill tests:
``REPRO_FAULT_HALT_AFTER_CELLS=N`` makes a checkpointed sweep die with
``os._exit(137)`` (an un-catchable hard kill, as SIGKILL would) after
journaling its Nth cell — the kill-and-resume smoke test uses it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import telemetry
from repro.errors import EngineFailure, WorkerCrash

__all__ = ["FaultPlan", "inject_faults", "active_plan"]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject (picklable)."""

    #: Segments whose worker dies (``os._exit`` in a pool process,
    #: :class:`WorkerCrash` in-process) on attempts <= ``crash_attempts``.
    crash_segments: frozenset[int] = frozenset()
    crash_attempts: int = 1
    #: Segments whose scan stalls ``stall_s`` seconds before running, on
    #: attempts <= ``stall_attempts`` (trips per-segment timeouts).
    stall_segments: frozenset[int] = frozenset()
    stall_s: float = 0.0
    stall_attempts: int = 1
    #: Multiplier applied to the lazy-DFA memo byte estimate (inflate to
    #: trip ``memo_bytes`` budgets without building a huge automaton).
    memo_inflation: float = 1.0
    #: Engine names that fail with :class:`EngineFailure` on every scan
    #: attempt (optionally restricted to ``poison_segments``).
    fail_engines: frozenset[str] = frozenset()
    #: Segments on which *every* engine fails — the poison-segment path.
    poison_segments: frozenset[int] = field(default_factory=frozenset)

    def scoped_to_segment(self, engine: str, segment: int | None) -> bool:
        """True if ``engine`` must fail on ``segment`` under this plan."""
        if segment is not None and segment in self.poison_segments:
            return True
        if engine in self.fail_engines:
            return True
        return False


_plan: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The process-wide installed plan (``None`` in production)."""
    return _plan


@contextmanager
def inject_faults(plan: FaultPlan):
    """Install ``plan`` process-wide for the duration (tests only)."""
    global _plan
    previous = _plan
    _plan = plan
    try:
        yield plan
    finally:
        _plan = previous


# -- hooks (no-ops without a plan) -------------------------------------------


def maybe_crash(
    plan: FaultPlan | None, segment: int, attempt: int, parent_pid: int
) -> None:
    """Kill this worker if the plan says so.

    In a *different process* than the supervisor (a process-pool worker)
    the death is real: ``os._exit``, which the pool surfaces as a broken
    pool.  In the supervisor's own process (serial path, thread pools) a
    hard exit would kill the suite, so the crash degrades to raising
    :class:`WorkerCrash` — same recovery path, survivable harness.
    """
    plan = plan if plan is not None else _plan
    if plan is None or segment not in plan.crash_segments:
        return
    if attempt > plan.crash_attempts:
        return
    if os.getpid() != parent_pid:
        os._exit(1)
    raise WorkerCrash(segment, attempt, "injected worker crash")


def maybe_stall(plan: FaultPlan | None, segment: int, attempt: int) -> None:
    """Sleep out the injected stall for this segment/attempt."""
    plan = plan if plan is not None else _plan
    if plan is None or segment not in plan.stall_segments:
        return
    if attempt > plan.stall_attempts or plan.stall_s <= 0:
        return
    time.sleep(plan.stall_s)


def maybe_fail_engine(
    engine: str, segment: int | None, plan: FaultPlan | None = None
) -> None:
    """Raise :class:`EngineFailure` if the plan poisons this attempt."""
    plan = plan if plan is not None else _plan
    if plan is not None and plan.scoped_to_segment(engine, segment):
        telemetry.incr("resilience.fault.engine_failure")
        raise EngineFailure(engine, "injected engine failure", segment=segment)


def memo_inflation() -> float:
    """The memo-estimate multiplier (1.0 without a plan)."""
    return _plan.memo_inflation if _plan is not None else 1.0


def maybe_halt_after_cells(cells_written: int) -> None:
    """Hard-kill the process after N journaled cells (env-driven).

    ``os._exit`` skips every finally/atexit, so the checkpoint on disk is
    exactly what a SIGKILL mid-sweep would leave behind.
    """
    limit = os.environ.get("REPRO_FAULT_HALT_AFTER_CELLS")
    if limit and cells_written >= int(limit):
        os._exit(137)
