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

The memo is a :class:`~repro.engines.lowered.SubsetMemo` over the single
group of every STE, capped at ``max_dfa_states`` states (a
:class:`~repro.errors.CapacityError` past it); its docstring holds the
thread-safety contract.  One compute fills a (state, alphabet class)
cell.  :class:`LazyDFAStream` is one DFA state id under the shared feed
frame, :class:`~repro.engines.base.Stream`.  Every interned state is
charged to the active ``ScanBudget.memo_bytes``; a memo-budget trip
carries the stream offset of the symbol whose transition outgrew the
budget.
"""

from __future__ import annotations

from typing import NoReturn

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines.base import Engine, Group, Stream
from repro.engines.lowered import Lowered, SubsetMasks, SubsetMemo
from repro.errors import CapacityError, EngineError
from repro.resilience import faults
from repro.resilience.guards import current_guard

#: Estimated heap bytes per interned DFA state, before the per-member
#: subset cost.  A fixed estimate, kept as it was so that memo-budget trip
#: points do not move; the guard exists to stop runaway subset
#: construction, not to audit the allocator.
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
        lowered = Lowered(automaton)
        masks = SubsetMasks(lowered)
        self._memo = SubsetMemo(masks, lowered.reports, [(0, lowered.n)], max_dfa_states)
        #: States charged to the memo budget so far (a prefix of the ids).
        self._charged = 0
        #: Estimated heap bytes held by the memo; consulted against the
        #: active ScanGuard's ``memo_bytes`` budget.
        self._memo_bytes = 0
        states = self._memo.enter(masks.initial)
        if states is None:
            self._over_cap()
        self._initial_id = states[0]
        self._charge(None)
        telemetry.record_compile(self.label, compile_t0, lowered.n)

    def _over_cap(self) -> NoReturn:
        raise CapacityError(
            f"lazy DFA exceeded {self._max_dfa_states} states; "
            "automaton is too nondeterministic for the DFA engine"
        )

    def _charge(self, offset: int | None) -> None:
        """Charge the states interned since the last charge, reached at
        stream ``offset``, to the memo budget."""
        memo = self._memo
        if self._charged == len(memo.subsets):
            return
        with memo.lock:
            subsets = memo.subsets
            while self._charged < len(subsets):
                subset = subsets[self._charged]
                self._charged += 1
                telemetry.incr("lazydfa.dfa_states")
                self._memo_bytes += int(
                    (_STATE_BASE_BYTES + _STATE_MEMBER_BYTES * subset.bit_count())
                    * faults.memo_inflation()
                )
                guard = current_guard()
                if guard is not None:
                    # Hard degradation: the fallback ladder reruns the scan
                    # on the next engine down.
                    guard.check_memo(self.label, self._memo_bytes, offset)

    def _compute(self, sid: int, c: int, offset: int) -> tuple[int, Group]:
        """Fill the cell of state ``sid`` on class ``c``, stepped at stream
        ``offset``: its next state id and report group."""
        telemetry.incr("lazydfa.memo_computes")
        cell = self._memo.compute(0, sid, c)
        if cell is None:
            self._over_cap()
        self._charge(offset)
        return cell

    @property
    def dfa_state_count(self) -> int:
        """DFA states materialised so far."""
        return len(self._memo.subsets)

    # -- execution ---------------------------------------------------------

    def stream(self, *, record_active: bool = False) -> "LazyDFAStream":
        """A streaming session: feed chunks, state persists between feeds."""
        return LazyDFAStream(self, record_active=record_active)


class LazyDFAStream(Stream):
    """Persistent execution state (the current DFA state id).

    Each symbol costs one class lookup and one row load; an unset or
    reporting cell (None) is looked up in the memo's emits, or computed
    inline, and the scan carries on.
    """

    _engine: LazyDFAEngine

    def __init__(self, engine: LazyDFAEngine, *, record_active: bool = False) -> None:
        super().__init__(engine, record_active=record_active)
        self._sid = engine._initial_id

    def _scan(self, data, pos, end, base, reports):
        engine = self._engine
        memo = engine._memo
        sid = self._sid
        active_counts = self.active_per_cycle
        # The tables only ever grow, so these captures stay valid while
        # other threads intern new states.
        rows = memo.rows
        emits = memo.emits
        subsets = memo.subsets
        sym_class = memo.masks.symbol_class
        offsets_append = reports.offsets.append
        groups_append = reports.groups.append
        for offset, symbol in enumerate(data[pos:end], base + pos):
            c = sym_class[symbol]
            if active_counts is not None:
                active_counts.append(subsets[sid].bit_count())
            nid = rows[c][sid]
            if nid is None:
                cell = emits[c].get(sid)
                if cell is None:
                    cell = engine._compute(sid, c, offset)
                nid, group = cell
                if group:
                    offsets_append(offset)
                    groups_append(group)
            sid = nid
        self._sid = sid
