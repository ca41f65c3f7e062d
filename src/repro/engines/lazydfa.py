"""Lazy-DFA engine (the Hyperscan-class comparator).

Hyperscan's role in the paper's experiments (Tables III and IV) is to
represent DFA-style CPU engines whose per-symbol cost is a constant-time
table lookup, independent of the NFA active set.  This engine reproduces
that property via on-the-fly subset construction: DFA states and their
transitions are built the first time they are visited and memoised, so
steady-state scanning is one table lookup per symbol.

Counters make the reachable state space input-history-dependent, so this
engine rejects automata containing counter elements — exactly as Hyperscan
rejects features outside its model.

:class:`LazyDFAStream` is one DFA state id under the shared feed frame,
:class:`~repro.engines.base.Stream`.  A memo-budget trip carries the stream
offset of the symbol whose transition outgrew the budget.

**Subsets and classes.**  A DFA state's subset of enabled STEs is one
big int over the STE indices of the automaton's
:class:`~repro.engines.lowered.Lowered` form, and a transition is one
:meth:`~repro.engines.lowered.SubsetMasks.step`: the subset ANDed with the
symbol's membership mask, then the successor masks of the matched STEs
ORed onto the ALL_INPUT mask.  Symbols with equal membership masks form
one alphabet class, and no subset tells them apart, so one compute fills
the transition (and emit entry) of every symbol in the class.  Rows stay
256 entries wide, so the scan loop has no per-symbol class lookup.

**Thread safety.**  The memo table grows across runs, and the shared
compile cache (:mod:`repro.engines.cache`) hands one engine instance to
every thread, so all memo growth — subset interning, transition, emit and
has-emit bit writes — happens under ``_lock``.  The scan loop stays
lock-free: it reads published rows only, and an unexplored transition
(-1) sends it through :meth:`LazyDFAEngine._compute`, which re-checks
under the lock.  The transition writes for the class are the *last*
stores of a compute (after every emit-table and has-emit bit write of the
class), so a lock-free reader that observes a new state id also observes
its reports.
"""

from __future__ import annotations

import threading

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines.base import Engine, Stream
from repro.engines.lowered import Lowered, SubsetMasks, bit_mask
from repro.errors import CapacityError, EngineError
from repro.resilience import faults
from repro.resilience.guards import current_guard

#: Estimated heap bytes per interned DFA state: the 256-entry transition
#: row (2048) plus dict/list bookkeeping, before the per-member subset
#: cost.  An estimate is all the budget needs — the guard exists to stop
#: runaway subset construction, not to audit the allocator.
_STATE_BASE_BYTES = 2048 + 64
_STATE_MEMBER_BYTES = 8

__all__ = ["LazyDFAEngine", "LazyDFAStream"]


class LazyDFAEngine(Engine):
    """On-the-fly subset construction with memoised transitions."""

    label = "lazydfa"

    def __init__(self, automaton: Automaton, *, max_dfa_states: int = 2_000_000) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        if any(True for _ in automaton.counters()):
            raise EngineError("LazyDFAEngine does not support counter elements")
        self._max_dfa_states = max_dfa_states
        #: Guards all memo growth (interning, transition/emit writes);
        #: see the module docstring's thread-safety contract.
        self._lock = threading.Lock()

        lowered = Lowered(automaton)
        masks = self._masks = SubsetMasks(lowered)
        self._reports = lowered.reports
        class_bits = [bit_mask(symbols) for symbols in masks.classes]
        #: Per symbol: the symbols of its alphabet class, and their bits.
        self._class_of = [
            (masks.classes[cls], class_bits[cls]) for cls in masks.symbol_class
        ]

        # DFA state table.  _trans[sid] is a length-256 list row; -1 marks
        # a transition not yet computed.  _emits[sid][sym] is the report
        # group (the ReportBatch group tuple) fired when leaving sid on sym,
        # and bit sym of _emit_bits[sid] is set exactly when that entry
        # exists, so the common no-report path never probes the dicts.
        self._set_to_id: dict[int, int] = {}
        self._id_to_set: list[int] = []
        self._trans: list[list[int]] = []
        self._emits: list[dict[int, tuple[tuple[str, object], ...]]] = []
        self._emit_bits: list[int] = []
        #: Estimated heap bytes held by the memo; consulted against the
        #: active ScanGuard's ``memo_bytes`` budget.
        self._memo_bytes = 0
        with self._lock:
            self._initial_id = self._intern(self._masks.initial, None)
        telemetry.record_compile(self.label, compile_t0, lowered.n)

    # -- construction ------------------------------------------------------

    def _intern(self, subset: int, offset: int | None) -> int:
        """Intern one subset reached at stream ``offset``; the caller must
        hold ``_lock``."""
        sid = self._set_to_id.get(subset)
        if sid is None:
            if len(self._id_to_set) >= self._max_dfa_states:
                raise CapacityError(
                    f"lazy DFA exceeded {self._max_dfa_states} states; "
                    "automaton is too nondeterministic for the DFA engine"
                )
            sid = len(self._id_to_set)
            self._set_to_id[subset] = sid
            self._id_to_set.append(subset)
            self._trans.append([-1] * 256)
            self._emits.append({})
            self._emit_bits.append(0)
            telemetry.incr("lazydfa.dfa_states")
            self._memo_bytes += int(
                (_STATE_BASE_BYTES + _STATE_MEMBER_BYTES * subset.bit_count())
                * faults.memo_inflation()
            )
            guard = current_guard()
            if guard is not None:
                # Hard degradation: the fallback ladder reruns the scan on
                # the next engine down.
                guard.check_memo(self.label, self._memo_bytes, offset)
        return sid

    def _compute(self, sid: int, symbol: int, offset: int) -> int:
        with self._lock:
            # Another thread may have computed this transition between our
            # lock-free -1 read and acquiring the lock.
            nid = self._trans[sid][symbol]
            if nid >= 0:
                return nid
            telemetry.incr("lazydfa.memo_computes")
            ranks, nxt = self._masks.step(self._id_to_set[sid], symbol)
            nid = self._intern(nxt, offset)
            symbols, bits = self._class_of[symbol]
            if ranks:
                # A ReportBatch group (sorted by ident), so the scan loop
                # appends it as is.
                emits = self._reports.group(ranks)
                self._emits[sid].update(dict.fromkeys(symbols, emits))
                self._emit_bits[sid] |= bits
            # Publish last: lock-free readers treat a non-negative
            # transition as "emits for this (sid, symbol) are in place".
            row = self._trans[sid]
            for member in symbols:
                row[member] = nid
            return nid

    @property
    def dfa_state_count(self) -> int:
        """DFA states materialised so far."""
        return len(self._id_to_set)

    # -- execution ---------------------------------------------------------

    def stream(self, *, record_active: bool = False) -> "LazyDFAStream":
        """A streaming session: feed chunks, state persists between feeds."""
        return LazyDFAStream(self, record_active=record_active)


class LazyDFAStream(Stream):
    """Persistent execution state (the current DFA state id).

    Each symbol costs one transition load plus one has-emit bit test; an
    unexplored transition is computed inline and the scan carries on.
    """

    _engine: LazyDFAEngine

    def __init__(self, engine: LazyDFAEngine, *, record_active: bool = False) -> None:
        super().__init__(engine, record_active=record_active)
        self._sid = engine._initial_id

    def _scan(self, data, pos, end, base, reports):
        engine = self._engine
        sid = self._sid
        active_counts = self.active_per_cycle
        # The state lists only ever grow, so these captures stay valid
        # while other threads intern new states.
        rows = engine._trans
        emit_bits = engine._emit_bits
        emits = engine._emits
        id_to_set = engine._id_to_set
        offsets_append = reports.offsets.append
        groups_append = reports.groups.append
        for index in range(pos, end):
            symbol = data[index]
            if active_counts is not None:
                active_counts.append(id_to_set[sid].bit_count())
            nid = rows[sid][symbol]
            if nid < 0:
                nid = engine._compute(sid, symbol, base + index)
            if (emit_bits[sid] >> symbol) & 1:
                offsets_append(base + index)
                groups_append(emits[sid][symbol])
            sid = nid
        self._sid = sid
