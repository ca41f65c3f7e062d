"""Numpy active-set engine (the VASim-class workhorse).

The engine keeps the enabled set as a sorted integer array and advances it
with vectorised gathers, so the per-cycle cost is proportional to the active
set (like VASim's) rather than to total automaton size.  Character-set
membership is stored bit-packed: 32 bytes per state, so multi-million-state
benchmarks stay memory-friendly.

This is the engine used to compute Table I active-set statistics and to run
benchmark inputs at scale.  Its CSR successor table, packed charsets,
report ranks and start arrays are built from the automaton's
:class:`~repro.engines.lowered.Lowered` form, and counters step through
:meth:`~repro.engines.lowered.Lowered.counter_step`.  Its stream scans block
by block under the shared feed frame, :class:`~repro.engines.base.Stream`.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines.base import Engine, Stream
from repro.engines.lowered import Lowered, packed_charsets

__all__ = ["VectorEngine", "VectorStream"]


class VectorEngine(Engine):
    """Vectorised active-set simulation of a homogeneous automaton."""

    label = "vector"

    def __init__(self, automaton: Automaton) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        lowered = Lowered(automaton)
        self._lowered = lowered
        n = lowered.n

        self._charbits = packed_charsets(lowered.stes)

        # Flattened successor lists (STE -> STE edges only).
        lengths = np.fromiter(map(len, lowered.succ), dtype=np.int64, count=n)
        self._succ_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._succ_off[1:])
        self._succ_flat = np.fromiter(
            (d for s in lowered.succ for d in s), dtype=np.int64, count=int(lengths.sum())
        )

        #: Report-table rank per STE; -1 for non-reporting STEs.
        self._report_rank = np.asarray(lowered.report_rank, dtype=np.int64)
        self._report_mask = self._report_rank >= 0
        self._any_report = bool(lowered.reports.entries)
        self._feed_mask = np.zeros(n, dtype=bool)
        self._feed_mask[list(lowered.feeding)] = True
        self._has_feeds = bool(lowered.feeding)

        self._all_input = np.asarray(lowered.all_input, dtype=np.int64)
        self._initial = np.asarray(lowered.initial, dtype=np.int64)

        # Counters (rare; handled per-event in Python).
        self._counter_succ: dict[str, np.ndarray] = {
            ident: np.asarray(succ, dtype=np.int64)
            for ident, succ in lowered.counter_succ.items()
        }
        telemetry.record_compile(self.label, compile_t0, n)

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


class VectorStream(Stream):
    """Persistent execution state for :class:`VectorEngine`: the sorted
    enabled-index array and the counter states."""

    _engine: VectorEngine

    def __init__(self, engine: VectorEngine, *, record_active: bool = False) -> None:
        super().__init__(engine, record_active=record_active)
        self.counter_states = engine._lowered.counter_states()
        self._enabled = engine._initial

    def _scan(self, data, pos, end, base, reports):
        engine = self._engine
        active_counts = self.active_per_cycle
        counter_state = self.counter_states
        enabled = self._enabled
        for offset, symbol in enumerate(data[pos:end], base + pos):
            if active_counts is not None:
                active_counts.append(int(enabled.size))
            matched = engine._matches(symbol, enabled)

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
                    for ident in engine._lowered.counter_step(
                        counter_state, matched[feed_hits].tolist(), ranks
                    ):
                        next_parts.append(engine._counter_succ[ident])

            if ranks:
                reports.offsets.append(offset)
                reports.groups.append(engine._lowered.reports.group(ranks))
            next_parts.append(engine._all_input)
            enabled = np.unique(np.concatenate(next_parts))

        self._enabled = enabled
