"""Scan resource guards: wall-clock deadlines and memo byte budgets.

A :class:`ScanGuard` is installed around one scan attempt with
:func:`guard_scope`; the engines' shared feed frame,
:meth:`repro.engines.base.Stream.feed`, looks it up with
:func:`current_guard` at feed entry and checks the deadline there and at
the start of every :data:`GUARD_BLOCK` symbols, never per symbol, so a
guarded scan pays a handful of time checks per feed and an unguarded scan
pays one thread-local read.

The guard is thread-local: engines are shared objects (the compile cache
hands one instance to every thread), but budgets belong to the *scan*,
so two threads scanning the same engine can carry different deadlines.

Two budgets exist today:

* ``wall_s`` — a per-attempt deadline.  Tripping raises
  :class:`~repro.errors.ScanTimeout` with the engine label and the offset
  reached.
* ``memo_bytes`` — a cap on the lazy-DFA memo table.  The engine raises
  :class:`~repro.errors.MemoryBudgetExceeded` when its memo estimate
  exceeds the budget — hard degradation, which the fallback ladder turns
  into a rerun on the next engine down.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro import telemetry
from repro.errors import MemoryBudgetExceeded, ScanTimeout

__all__ = ["GUARD_BLOCK", "ScanBudget", "ScanGuard", "current_guard", "guard_scope"]

#: Symbols per scan block of :meth:`repro.engines.base.Stream.feed`.
GUARD_BLOCK = 512


@dataclass(frozen=True)
class ScanBudget:
    """Declarative resource budget for one scan attempt (picklable)."""

    wall_s: float | None = None
    memo_bytes: int | None = None

    def __bool__(self) -> bool:
        return self.wall_s is not None or self.memo_bytes is not None


class ScanGuard:
    """One scan attempt's armed budget (deadline computed at arm time)."""

    __slots__ = ("budget", "deadline", "memo_budget", "segment")

    def __init__(self, budget: ScanBudget, *, segment: int | None = None) -> None:
        self.budget = budget
        self.deadline = (
            time.perf_counter() + budget.wall_s if budget.wall_s is not None else None
        )
        self.memo_budget = budget.memo_bytes
        self.segment = segment

    def check_deadline(self, engine: str, offset: int) -> None:
        """Raise :class:`ScanTimeout` if the wall-clock budget is spent."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            telemetry.incr("resilience.guard.timeout")
            telemetry.incr(f"resilience.guard.timeout.{engine}")
            raise ScanTimeout(
                engine, offset, self.budget.wall_s or 0.0, segment=self.segment
            )

    def check_memo(self, engine: str, used_bytes: int, offset: int | None) -> None:
        """Raise :class:`MemoryBudgetExceeded` if the memo budget is blown."""
        if self.memo_budget is not None and used_bytes > self.memo_budget:
            telemetry.incr("resilience.guard.memo_budget")
            raise MemoryBudgetExceeded(engine, used_bytes, self.memo_budget, offset)


_local = threading.local()


def current_guard() -> ScanGuard | None:
    """The guard installed for this thread's current scan, if any."""
    return getattr(_local, "guard", None)


@contextmanager
def guard_scope(guard: ScanGuard | None):
    """Install ``guard`` for the current thread for the duration.

    ``None`` is accepted (and is a no-op) so callers can write one
    ``with guard_scope(maybe_guard):`` regardless of whether a budget is
    in force.  Nested scopes restore the outer guard on exit.
    """
    if guard is None:
        yield None
        return
    previous = getattr(_local, "guard", None)
    _local.guard = guard
    try:
        yield guard
    finally:
        _local.guard = previous
