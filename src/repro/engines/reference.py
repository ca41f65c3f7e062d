"""Pure-Python reference engine.

This is the library's semantic oracle: the most direct possible encoding of
the execution model in :mod:`repro.engines.base`.  Every other engine is
property-tested against it.  Its per-cycle cost is proportional to the
active set, which also makes it the faithful stand-in for VASim's
performance behaviour in the Table III experiment (AP-padding states inflate
the active set and therefore CPU runtime).  Its stream scans block by block
under the feed frame all engines share, :class:`~repro.engines.base.Stream`.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.automaton import Automaton
from repro.core.elements import CounterElement, CounterMode, STE, StartMode
from repro.engines.base import Engine, ReportTable, Stream

__all__ = ["ReferenceEngine", "ReferenceStream"]


class _CounterState:
    __slots__ = ("element", "count", "latched", "stopped")

    def __init__(self, element: CounterElement) -> None:
        self.element = element
        self.count = 0
        self.latched = False
        self.stopped = False

    def reset(self) -> None:
        """Clear count and latch/stop state (the reset port firing)."""
        self.count = 0
        self.latched = False
        self.stopped = False

    def on_count_event(self) -> bool:
        """Apply one count event; return True if the counter fires."""
        if self.stopped:
            return False
        if self.latched:
            return True
        self.count += 1
        if self.count >= self.element.target:
            mode = self.element.mode
            if mode is CounterMode.LATCH:
                self.latched = True
            elif mode is CounterMode.ROLLOVER:
                self.count = 0
            elif mode is CounterMode.STOP:
                self.stopped = True
            return True
        return False


class ReferenceEngine(Engine):
    """Direct set-based simulation of a homogeneous automaton.

    Which elements exist, their start modes and their report flags and
    codes are fixed when the engine is built, as for every other engine;
    charsets and counter targets/modes are read from the elements live.
    """

    label = "reference"

    def __init__(self, automaton: Automaton) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        self._stes: dict[str, STE] = {e.ident: e for e in automaton.stes()}
        self._counters: dict[str, CounterElement] = {
            e.ident: e for e in automaton.counters()
        }
        self._succ = {ident: automaton.successors(ident) for ident in automaton.idents()}
        self._all_input = {
            e.ident for e in automaton.stes() if e.start is StartMode.ALL_INPUT
        }
        self._start_of_data = {
            e.ident for e in automaton.stes() if e.start is StartMode.START_OF_DATA
        }
        self._reset_feeds: dict[str, list[str]] = {}
        for src, counter in automaton.reset_edges():
            self._reset_feeds.setdefault(src, []).append(counter)
        self._reports = ReportTable(automaton)
        telemetry.record_compile(self.label, compile_t0, len(self._stes))

    def stream(
        self, *, record_active: bool = False, record_trace: bool = False
    ) -> "ReferenceStream":
        """A streaming session: feed chunks, state persists between feeds.

        ``record_trace`` additionally accumulates which elements were ever
        enabled / ever matched (used by the static-analyzer cross-check).
        """
        return ReferenceStream(
            self, record_active=record_active, record_trace=record_trace
        )


class ReferenceStream(Stream):
    """Persistent execution state for :class:`ReferenceEngine`: the
    enabled set and the counter states."""

    _engine: ReferenceEngine

    def __init__(
        self,
        engine: ReferenceEngine,
        *,
        record_active: bool = False,
        record_trace: bool = False,
    ) -> None:
        super().__init__(engine, record_active=record_active)
        #: Elements ever enabled / ever matched-or-fired (trace mode only).
        self.ever_enabled: set[str] | None = set() if record_trace else None
        self.ever_matched: set[str] | None = set() if record_trace else None
        self.counter_states = {
            ident: _CounterState(element)
            for ident, element in engine._counters.items()
        }
        self._enabled: set[str] = set(engine._start_of_data) | set(engine._all_input)

    def _scan(self, data, pos, end, base, reports):
        engine = self._engine
        report_rank = engine._reports.rank
        active_counts = self.active_per_cycle
        counter_state = self.counter_states
        enabled = self._enabled
        for offset, symbol in enumerate(data[pos:end], base + pos):
            if active_counts is not None:
                active_counts.append(len(enabled))
            if self.ever_enabled is not None:
                self.ever_enabled |= enabled

            fired: list[str] = []
            ranks: list[int] = []  # report-table ranks of this cycle's reporters
            counter_events: set[str] = set()
            for ident in enabled:
                ste = engine._stes[ident]
                if ste.charset.matches(symbol):
                    fired.append(ident)
                    rank = report_rank.get(ident)
                    if rank is not None:
                        ranks.append(rank)

            next_enabled: set[str] = set()
            reset_events: set[str] = set()
            for ident in fired:
                for succ in engine._succ[ident]:
                    if succ in engine._stes:
                        next_enabled.add(succ)
                    else:
                        counter_events.add(succ)
                for counter_ident in engine._reset_feeds.get(ident, ()):
                    reset_events.add(counter_ident)

            # Resets apply before this cycle's count events (Section XI
            # extended-automata semantics).
            for counter_ident in reset_events:
                counter_state[counter_ident].reset()

            if self.ever_matched is not None:
                self.ever_matched.update(fired)

            # Counters: one count event per cycle with >= 1 matching predecessor.
            for counter_ident in sorted(counter_events):
                state = counter_state[counter_ident]
                if state.on_count_event():
                    if self.ever_matched is not None:
                        self.ever_matched.add(counter_ident)
                    rank = report_rank.get(counter_ident)
                    if rank is not None:
                        ranks.append(rank)
                    for succ in engine._succ[counter_ident]:
                        if succ in engine._stes:
                            next_enabled.add(succ)
                        # counter -> counter chains are not supported; the
                        # Automaton builder never produces them.

            if ranks:
                reports.offsets.append(offset)
                reports.groups.append(engine._reports.group(ranks))
            next_enabled |= engine._all_input
            enabled = next_enabled

        self._enabled = enabled
