"""Numpy active-set engine (the VASim-class workhorse).

The engine keeps the enabled set as a sorted integer array and advances it
with vectorised gathers, so the per-cycle cost is proportional to the active
set (like VASim's) rather than to total automaton size.  Character-set
membership is stored bit-packed: 32 bytes per state, so multi-million-state
benchmarks stay memory-friendly.

This is the engine used to compute Table I active-set statistics and to run
benchmark inputs at scale.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.automaton import Automaton
from repro.core.elements import CounterElement, STE, StartMode
from repro.engines.base import Engine, ReportBatch, ReportTable
from repro.engines.reference import _CounterState
from repro.resilience.guards import GUARD_BLOCK, current_guard

__all__ = ["VectorEngine", "VectorStream"]

_CHUNK = 65536  # states per chunk when building the packed charset matrix


def packed_charsets(stes: list[STE]) -> np.ndarray:
    """Packed per-symbol membership: bit ``i & 7`` of ``[s, i >> 3]`` is 1
    iff ``stes[i]`` matches symbol ``s``.

    Built ``_CHUNK`` states at a time, so the boolean scratch matrix stays
    bounded on multi-million-state automata.
    """
    n = len(stes)
    charbits = np.zeros((256, (n + 7) // 8), dtype=np.uint8)
    for base in range(0, n, _CHUNK):
        chunk = stes[base : base + _CHUNK]
        block = np.empty((len(chunk), 256), dtype=bool)
        for row, ste in enumerate(chunk):
            block[row] = ste.charset.to_bool_array()
        packed = np.packbits(block.T, axis=1, bitorder="little")
        charbits[:, base // 8 : base // 8 + packed.shape[1]] = packed
    return charbits


class VectorEngine(Engine):
    """Vectorised active-set simulation of a homogeneous automaton."""

    def __init__(self, automaton: Automaton) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        stes: list[STE] = list(automaton.stes())
        self._index = {ste.ident: i for i, ste in enumerate(stes)}
        n = len(stes)
        self._n = n

        self._charbits = packed_charsets(stes)

        # Flattened successor lists (STE -> STE edges only).
        succ_lists: list[list[int]] = [[] for _ in range(n)]
        self._counter_feeds: dict[int, list[str]] = {}
        for ste in stes:
            i = self._index[ste.ident]
            for succ in automaton.successors(ste.ident):
                element = automaton[succ]
                if isinstance(element, STE):
                    succ_lists[i].append(self._index[succ])
                else:
                    self._counter_feeds.setdefault(i, []).append(succ)
        lengths = np.fromiter((len(s) for s in succ_lists), dtype=np.int64, count=n)
        self._succ_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._succ_off[1:])
        self._succ_flat = np.fromiter(
            (d for s in succ_lists for d in s), dtype=np.int64, count=int(lengths.sum())
        )

        self._report_mask = np.fromiter((ste.report for ste in stes), dtype=bool, count=n)
        self._reports = ReportTable(automaton)
        #: Report-table rank per STE; -1 for non-reporting STEs.
        self._report_rank = np.fromiter(
            (self._reports.rank[ste.ident] if ste.report else -1 for ste in stes),
            dtype=np.int64,
            count=n,
        )
        self._reset_feeds: dict[int, list[str]] = {}
        for src, counter in automaton.reset_edges():
            if src in self._index:
                self._reset_feeds.setdefault(self._index[src], []).append(counter)
        self._feed_mask = np.zeros(n, dtype=bool)
        for i in self._counter_feeds:
            self._feed_mask[i] = True
        for i in self._reset_feeds:
            self._feed_mask[i] = True
        self._has_feeds = bool(self._feed_mask.any())

        self._all_input = np.fromiter(
            sorted(
                self._index[s.ident] for s in stes if s.start is StartMode.ALL_INPUT
            ),
            dtype=np.int64,
        )
        start_idx = sorted(
            self._index[s.ident]
            for s in stes
            if s.start in (StartMode.ALL_INPUT, StartMode.START_OF_DATA)
        )
        self._initial = np.asarray(start_idx, dtype=np.int64)

        # Counters (rare; handled per-event in Python).
        self._counters: dict[str, CounterElement] = {
            c.ident: c for c in automaton.counters()
        }
        self._counter_succ: dict[str, np.ndarray] = {}
        for ident in self._counters:
            succ = [
                self._index[s]
                for s in automaton.successors(ident)
                if isinstance(automaton[s], STE)
            ]
            self._counter_succ[ident] = np.asarray(sorted(succ), dtype=np.int64)
        self._any_report = bool(self._report_mask.any()) or any(
            c.report for c in self._counters.values()
        )
        telemetry.record_compile("vector", compile_t0, n)

    # -- helpers -----------------------------------------------------------

    def _matches(self, symbol: int, enabled: np.ndarray) -> np.ndarray:
        """Indices of enabled states whose charset contains ``symbol``."""
        row = self._charbits[symbol]
        bits = (row[enabled >> 3] >> (enabled & 7).astype(np.uint8)) & 1
        return enabled[bits.astype(bool)]

    def _gather_successors(self, matched: np.ndarray) -> np.ndarray:
        starts = self._succ_off[matched]
        lens = self._succ_off[matched + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        rep_starts = np.repeat(starts, lens)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        return self._succ_flat[rep_starts + offsets]

    # -- execution ---------------------------------------------------------

    def stream(self, *, record_active: bool = False) -> "VectorStream":
        """A streaming session: feed chunks, state persists between feeds."""
        return VectorStream(self, record_active=record_active)


class VectorStream:
    """Persistent execution state for :class:`VectorEngine`."""

    def __init__(self, engine: VectorEngine, *, record_active: bool = False) -> None:
        self._engine = engine
        self.offset = 0
        self.active_per_cycle: list[int] | None = [] if record_active else None
        self._counter_state = {
            ident: _CounterState(element)
            for ident, element in engine._counters.items()
        }
        self._enabled = engine._initial

    def feed(self, data: bytes) -> ReportBatch:
        scan_t0 = telemetry.clock()
        engine = self._engine
        reports = ReportBatch()
        active_counts = self.active_per_cycle
        counter_state = self._counter_state
        buffer = np.frombuffer(data, dtype=np.uint8) if data else np.empty(0, np.uint8)
        base = self.offset

        guard = current_guard()
        if guard is not None:
            guard.check_deadline("vector", base)
        enabled = self._enabled
        for index in range(len(buffer)):
            offset = base + index
            if guard is not None and index % GUARD_BLOCK == 0:
                guard.check_deadline("vector", offset)
            if active_counts is not None:
                active_counts.append(int(enabled.size))
            matched = engine._matches(int(buffer[index]), enabled)

            if not matched.size:
                # Nothing fired: the next enabled set is exactly the
                # ALL_INPUT starts (already sorted/unique), so skip the
                # unique/concatenate entirely.  _all_input is never
                # mutated, so sharing the array is safe.
                enabled = engine._all_input
                continue

            # Report-table ranks of this cycle's reporters.
            ranks: list[int] = []
            if engine._any_report:
                ranks = engine._report_rank[
                    matched[engine._report_mask[matched]]
                ].tolist()

            next_parts = [engine._gather_successors(matched)]

            if engine._has_feeds:
                feed_hits = engine._feed_mask[matched]
                if feed_hits.any():
                    events: set[str] = set()
                    resets: set[str] = set()
                    for i in matched[feed_hits]:
                        i = int(i)
                        events.update(engine._counter_feeds.get(i, ()))
                        resets.update(engine._reset_feeds.get(i, ()))
                    for counter_ident in resets:
                        counter_state[counter_ident].reset()
                    for counter_ident in sorted(events):
                        state = counter_state[counter_ident]
                        if state.on_count_event():
                            if state.element.report:
                                ranks.append(engine._reports.rank[counter_ident])
                            next_parts.append(engine._counter_succ[counter_ident])

            if ranks:
                reports.offsets.append(offset)
                reports.groups.append(engine._reports.group(ranks))
            next_parts.append(engine._all_input)
            enabled = np.unique(np.concatenate(next_parts))

        self._enabled = enabled
        self.offset = base + len(data)
        if scan_t0 is not None:
            telemetry.record_scan("vector", scan_t0, len(data), len(reports))
        return reports
