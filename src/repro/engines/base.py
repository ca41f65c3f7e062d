"""Engine interfaces and result types.

An *engine* executes an :class:`~repro.core.automaton.Automaton` over a byte
stream and returns its reports as a :class:`ReportBatch`.  All engines
implement the same semantics (pinned by cross-engine property tests):

* Cycle ``t`` consumes input symbol ``data[t]``.
* An STE is *enabled* at cycle ``t`` if a predecessor matched/fired at cycle
  ``t - 1``, or it is an ``ALL_INPUT`` start, or ``t == 0`` and it is a
  ``START_OF_DATA`` start.
* An enabled STE *matches* if ``data[t]`` is in its charset; matching STEs
  enable their successors for cycle ``t + 1`` and report if flagged.
* A counter receives one *count event* per cycle in which at least one of
  its predecessors matched/fired.  On reaching its target it *fires*:
  successors are enabled for the next cycle, and it reports if flagged.
  ``LATCH`` counters keep firing on every subsequent count event,
  ``ROLLOVER`` counters reset to zero, ``STOP`` counters go inert.

The **active set** at cycle ``t`` is the number of elements enabled at ``t``
(states that attempt a match) — the paper's CPU-performance proxy.

**Report batches.**  ``RunResult.reports`` and every ``stream().feed()``
return value is a :class:`ReportBatch`: two flat columns, one entry per
*firing offset* — the offset, and the ``((ident, code), ...)`` group fired
there, sorted by ident.  Engines append shared, precomputed group tuples
(the lazy DFA's memoised emit tuples, :class:`ReportTable` entries), so a
scan allocates nothing per report.  The batch is a
``Sequence[ReportEvent]``: events are built only when it is indexed or
iterated, once, and cached.  Consumers that need offsets or codes only
read ``offsets`` / ``groups`` / :meth:`ReportBatch.iter_rows` instead.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from repro import telemetry
from repro.core.automaton import Automaton
from repro.resilience.guards import GUARD_BLOCK, current_guard

__all__ = ["ReportEvent", "ReportBatch", "ReportTable", "RunResult", "Engine", "Stream"]

#: One report group: the ``(ident, code)`` pairs fired at one offset.
Group = tuple[tuple[str, object], ...]


@dataclass(frozen=True, order=True)
class ReportEvent:
    """One report: element ``ident`` reported at input offset ``offset``.

    ``code`` carries the benchmark-level payload (rule id, class label, ...)
    so full kernels stay interpretable (Section VIII of the paper).
    """

    offset: int
    ident: str
    code: object = field(default=None, compare=False)


class ReportBatch(Sequence):
    """A report stream as two flat columns: firing offsets and their groups.

    ``offsets[k]`` is the ``k``-th firing offset (strictly increasing) and
    ``groups[k]`` the non-empty ``((ident, code), ...)`` tuple fired there,
    sorted by ident.  As a sequence the batch yields :class:`ReportEvent`
    in ``(offset, ident)`` order; the events are built on first indexing
    or iteration (about 0.7 us each) and cached.  Equality follows
    ``ReportEvent`` semantics: ``code`` is not compared.  :meth:`pop` is
    the one method that changes a batch.
    """

    __slots__ = ("offsets", "groups", "_count", "_events")

    def __init__(
        self, offsets: list[int] | None = None, groups: list[Group] | None = None
    ) -> None:
        self.offsets: list[int] = [] if offsets is None else offsets
        self.groups: list[Group] = [] if groups is None else groups
        if len(self.offsets) != len(self.groups):
            raise ValueError("offsets and groups columns differ in length")
        self._count: int | None = None
        self._events: list[ReportEvent] | None = None

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, str, object]]) -> "ReportBatch":
        """Build a batch from ``(offset, ident, code)`` rows in any order.

        Rows are stably sorted by ``(offset, ident)``, so rows that tie
        keep their input order.
        """
        offsets: list[int] = []
        groups: list[Group] = []
        group: list[tuple[str, object]] = []
        for offset, ident, code in sorted(rows, key=itemgetter(0, 1)):
            if offsets and offsets[-1] == offset:
                group.append((ident, code))
                continue
            if group:
                groups.append(tuple(group))
            offsets.append(offset)
            group = [(ident, code)]
        if group:
            groups.append(tuple(group))
        return cls(offsets, groups)

    @classmethod
    def concat(cls, batches: Iterable["ReportBatch"]) -> "ReportBatch":
        """Join batches whose offsets are ordered and disjoint, without sorting.

        Raises :class:`ValueError` when a batch does not start after the
        previous one ends.
        """
        offsets: list[int] = []
        groups: list[Group] = []
        for batch in batches:
            if not batch.offsets:
                continue
            if offsets and batch.offsets[0] <= offsets[-1]:
                raise ValueError(
                    f"batch starting at offset {batch.offsets[0]} does not follow "
                    f"offset {offsets[-1]}"
                )
            offsets += batch.offsets
            groups += batch.groups
        return cls(offsets, groups)

    def rebased(self, shift: int, keep_from: int = 0) -> "ReportBatch":
        """Offsets moved by ``shift``, keeping only those ``>= keep_from``."""
        start = bisect_left(self.offsets, keep_from - shift)
        return ReportBatch(
            [offset + shift for offset in self.offsets[start:]], self.groups[start:]
        )

    def pop(self) -> ReportEvent:
        """Remove and return the last report, as ``list.pop()`` does."""
        if not self.offsets:
            raise IndexError("pop from empty ReportBatch")
        offset, group = self.offsets[-1], self.groups[-1]
        if len(group) > 1:
            self.groups[-1] = group[:-1]
        else:
            self.offsets.pop()
            self.groups.pop()
        self._count = None
        self._events = None
        return ReportEvent(offset, *group[-1])

    def iter_rows(self) -> Iterator[tuple[int, str, object]]:
        """``(offset, ident, code)`` per report, without building events."""
        for offset, group in zip(self.offsets, self.groups):
            for ident, code in group:
                yield offset, ident, code

    def _materialize(self) -> list[ReportEvent]:
        events = self._events
        if events is None:
            events = [
                ReportEvent(offset, ident, code)
                for offset, ident, code in self.iter_rows()
            ]
            self._events = events
        return events

    def __len__(self) -> int:
        count = self._count
        if count is None:
            count = self._count = sum(map(len, self.groups))
        return count

    def __bool__(self) -> bool:
        return bool(self.offsets)

    def __iter__(self) -> Iterator[ReportEvent]:
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReportBatch):
            return len(self) == len(other) and all(
                a[:2] == b[:2] for a, b in zip(self.iter_rows(), other.iter_rows())
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                isinstance(event, ReportEvent)
                and (offset, ident) == (event.offset, event.ident)
                for (offset, ident, _code), event in zip(self.iter_rows(), other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return ReportBatch, (self.offsets, self.groups)

    def __repr__(self) -> str:
        return f"ReportBatch({list(self)!r})"


class ReportTable:
    """An automaton's reporting elements, numbered in ident order.

    Engines collect the reporters that fire at one offset as ranks (small
    ints) and turn them into a group with :meth:`group`; groups share the
    per-element ``(ident, code)`` entries, so building one allocates at
    most one tuple.
    """

    __slots__ = ("entries", "rank", "singles")

    def __init__(self, automaton: Automaton) -> None:
        reporters = sorted(automaton.reporting_elements(), key=lambda e: e.ident)
        #: ``(ident, code)`` per reporting element, sorted by ident.
        self.entries = [(e.ident, e.report_code) for e in reporters]
        #: ident -> position in :attr:`entries`.
        self.rank = {ident: r for r, (ident, _code) in enumerate(self.entries)}
        #: The one-report group of each entry.
        self.singles = [(entry,) for entry in self.entries]

    def group(self, ranks: list[int]) -> Group:
        """The group of the (distinct) reporters ``ranks``; sorts ``ranks``."""
        if len(ranks) == 1:
            return self.singles[ranks[0]]
        ranks.sort()
        entries = self.entries
        return tuple([entries[r] for r in ranks])


@dataclass
class RunResult:
    """The outcome of running an engine over an input stream.

    ``reports`` is always a :class:`ReportBatch`; a sequence of
    :class:`ReportEvent` passed in is converted.
    """

    reports: ReportBatch
    cycles: int
    #: Per-cycle enabled-element counts; filled when requested.
    active_per_cycle: list[int] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.reports, ReportBatch):
            self.reports = ReportBatch.from_rows(
                (event.offset, event.ident, event.code) for event in self.reports
            )

    @property
    def report_count(self) -> int:
        return len(self.reports)

    @property
    def mean_active_set(self) -> float:
        """Average enabled elements per input symbol (Table I column)."""
        if not self.active_per_cycle:
            return 0.0
        return sum(self.active_per_cycle) / len(self.active_per_cycle)

    def reporting_cycles(self) -> set[int]:
        """The set of input offsets at which at least one report fired."""
        return set(self.reports.offsets)


class Engine(abc.ABC):
    """Common engine interface: compile once, run many streams."""

    #: The engine's name in compile and scan telemetry and in guard errors.
    label: str

    def __init__(self, automaton: Automaton) -> None:
        self.automaton = automaton

    @abc.abstractmethod
    def stream(self, *, record_active: bool = False) -> "Stream":
        """A streaming session: ``feed(chunk)`` returns that chunk's
        :class:`ReportBatch`, and state persists between feeds."""

    def run(self, data: bytes, *, record_active: bool = False) -> RunResult:
        """Execute over ``data`` from a fresh initial state."""
        session = self.stream(record_active=record_active)
        return RunResult(session.feed(data), session.offset, session.active_per_cycle)

    def count_reports(self, data: bytes) -> int:
        """Convenience: number of report events over ``data``."""
        return self.run(data).report_count


class Stream(abc.ABC):
    """One streaming session: the feed frame every engine shares.

    :meth:`feed` owns the stream offset, the guard's deadline checks and
    the scan telemetry; a subclass holds the engine's model state and
    scans one block of at most :data:`GUARD_BLOCK` symbols per :meth:`_scan`.
    """

    def __init__(self, engine: Engine, *, record_active: bool = False) -> None:
        self._engine = engine
        self.offset = 0
        self.active_per_cycle: list[int] | None = [] if record_active else None
        #: Counter ident -> its state (``count``, ``latched``, ``stopped``).
        self.counter_states: dict = {}

    def feed(self, data: bytes) -> ReportBatch:
        """Scan ``data`` from the current state and return its reports.

        The deadline is checked at entry, so a scan that arrives late trips
        before consuming anything (even an empty feed), then at each block.
        """
        scan_t0 = telemetry.clock()
        label = self._engine.label
        reports = ReportBatch()
        base = self.offset
        length = len(data)
        guard = current_guard()
        if guard is not None:
            guard.check_deadline(label, base)
        for pos in range(0, length, GUARD_BLOCK):
            if pos and guard is not None:
                guard.check_deadline(label, base + pos)
            self._scan(data, pos, min(pos + GUARD_BLOCK, length), base, reports)
        self.offset = base + length
        if scan_t0 is not None:
            telemetry.record_scan(label, scan_t0, length, len(reports))
        return reports

    @abc.abstractmethod
    def _scan(self, data: bytes, pos: int, end: int, base: int, reports: ReportBatch):
        """Scan ``data[pos:end]`` into ``reports``; ``data[0]`` is at ``base``."""
