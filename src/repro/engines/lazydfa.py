"""Lazy-DFA engine (the Hyperscan-class comparator).

Hyperscan's role in the paper's experiments (Tables III and IV) is to
represent DFA-style CPU engines whose per-symbol cost is a constant-time
table lookup, independent of the NFA active set.  This engine reproduces
that property via on-the-fly subset construction: DFA states (frozen sets of
enabled STEs) and their transitions are built the first time they are
visited and memoised, so steady-state scanning is one table lookup per
symbol.

Counters make the reachable state space input-history-dependent, so this
engine rejects automata containing counter elements — exactly as Hyperscan
rejects features outside its model.

**Thread safety.**  The memo table grows across runs, and the shared
compile cache (:mod:`repro.engines.cache`) hands one engine instance to
every thread, so all memo growth — subset interning, transition/emit
writes, dense-table promotion — happens under ``_lock``.  Scan loops stay
lock-free: they read published rows only, and an unexplored transition
(-1) sends them through :meth:`LazyDFAEngine._compute`, which re-checks
under the lock.  The transition write is the *last* store of a compute
(after the emit-table write), so a lock-free reader that observes the new
state id also observes its reports.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import telemetry
from repro.core.automaton import Automaton
from repro.core.elements import STE, StartMode
from repro.engines.base import Engine, ReportBatch, ReportTable, RunResult
from repro.errors import CapacityError, EngineError
from repro.resilience import faults
from repro.resilience.guards import current_guard

#: Estimated heap bytes per interned DFA state: the 256-entry int64
#: transition row (2048) plus dict/list bookkeeping, before the per-member
#: subset cost.  An estimate is all the budget needs — the guard exists to
#: stop runaway subset construction, not to audit the allocator.
_STATE_BASE_BYTES = 2048 + 64
_STATE_MEMBER_BYTES = 8
#: Estimated heap bytes per state added by the dense promoted tables
#: (numpy row + list-of-lists row + emit bitmask).
_PROMOTED_STATE_BYTES = 256 * 8 + 64

__all__ = ["LazyDFAEngine", "LazyDFAStream"]


class LazyDFAEngine(Engine):
    """On-the-fly subset construction with memoised transitions."""

    def __init__(self, automaton: Automaton, *, max_dfa_states: int = 2_000_000) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        if any(True for _ in automaton.counters()):
            raise EngineError("LazyDFAEngine does not support counter elements")
        self._max_dfa_states = max_dfa_states
        #: Guards all memo growth (interning, transition/emit writes,
        #: promotion); see the module docstring's thread-safety contract.
        self._lock = threading.Lock()

        stes: list[STE] = list(automaton.stes())
        index = {ste.ident: i for i, ste in enumerate(stes)}
        self._charsets = [ste.charset for ste in stes]
        self._succ = [
            tuple(sorted(index[s] for s in automaton.successors(ste.ident)))
            for ste in stes
        ]
        self._reports = ReportTable(automaton)
        #: Report-table rank per STE; -1 for non-reporting STEs.
        self._report_rank = [
            self._reports.rank[ste.ident] if ste.report else -1 for ste in stes
        ]
        self._all_input = frozenset(
            index[s.ident] for s in stes if s.start is StartMode.ALL_INPUT
        )
        initial = frozenset(
            index[s.ident]
            for s in stes
            if s.start in (StartMode.ALL_INPUT, StartMode.START_OF_DATA)
        )

        # DFA state table.  _trans[sid] is a length-256 int array; -1 marks
        # a transition not yet computed.  _emits[sid][sym] is the report
        # group (the ReportBatch group tuple) fired when leaving sid on sym.
        self._set_to_id: dict[frozenset[int], int] = {}
        self._id_to_set: list[frozenset[int]] = []
        self._trans: list[np.ndarray] = []
        self._emits: list[dict[int, tuple[tuple[str, object], ...]]] = []
        # Steady-state promotion (built by _promote, dropped on growth):
        # _trans_table is the per-state rows stacked into one dense 2D
        # int64 table, _trans_rows its plain-list view for cheap scalar
        # indexing, _emit_bits a per-state 256-bit has-emit bitmask so the
        # common no-report path never probes the _emits dicts.
        self._trans_table: np.ndarray | None = None
        self._trans_rows: list[list[int]] | None = None
        self._emit_bits: list[int] | None = None
        #: Memo misses so far (on-demand _compute calls); the stream loop
        #: uses it to detect a miss-free block and trigger promotion.
        self._compute_count = 0
        #: Estimated heap bytes held by the raw memo / the promoted tables;
        #: consulted against the active ScanGuard's ``memo_bytes`` budget.
        self._memo_bytes = 0
        self._promoted_bytes = 0
        with self._lock:
            self._initial_id = self._intern(initial)
        telemetry.record_compile("lazydfa", compile_t0, len(stes))

    # -- construction ------------------------------------------------------

    def _intern(self, state_set: frozenset[int]) -> int:
        """Intern one subset; the caller must hold ``_lock``."""
        sid = self._set_to_id.get(state_set)
        if sid is None:
            if len(self._id_to_set) >= self._max_dfa_states:
                raise CapacityError(
                    f"lazy DFA exceeded {self._max_dfa_states} states; "
                    "automaton is too nondeterministic for the DFA engine"
                )
            sid = len(self._id_to_set)
            self._set_to_id[state_set] = sid
            self._id_to_set.append(state_set)
            self._trans.append(np.full(256, -1, dtype=np.int64))
            self._emits.append({})
            telemetry.incr("lazydfa.dfa_states")
            self._memo_bytes += int(
                (_STATE_BASE_BYTES + _STATE_MEMBER_BYTES * len(state_set))
                * faults.memo_inflation()
            )
            guard = current_guard()
            if guard is not None and not guard.memo_headroom(
                self._memo_bytes + self._promoted_bytes
            ):
                # First line of defence: demote — drop the dense promoted
                # tables and reclaim their estimate.  Only when the raw
                # memo alone is over budget does the guard raise
                # MemoryBudgetExceeded (hard degradation; the fallback
                # ladder reruns on the next engine down).
                if self._trans_rows is not None:
                    self._trans_table = None
                    self._trans_rows = None
                    self._emit_bits = None
                    self._promoted_bytes = 0
                    telemetry.incr("resilience.memo.demoted")
                guard.check_memo("lazydfa", self._memo_bytes)
        return sid

    def _compute(self, sid: int, symbol: int) -> int:
        with self._lock:
            # Another thread may have computed this transition between our
            # lock-free -1 read and acquiring the lock.
            nid = int(self._trans[sid][symbol])
            if nid >= 0:
                return nid
            self._compute_count += 1
            telemetry.incr("lazydfa.memo_computes")
            current = self._id_to_set[sid]
            matched = [i for i in current if self._charsets[i].matches(symbol)]
            # A ReportBatch group (sorted by ident), so the scan loops
            # append it as is.
            report_rank = self._report_rank
            ranks = [report_rank[i] for i in matched if report_rank[i] >= 0]
            emits = self._reports.group(ranks) if ranks else ()
            nxt: set[int] = set(self._all_input)
            for i in matched:
                nxt.update(self._succ[i])
            nid = self._intern(frozenset(nxt))
            if emits:
                self._emits[sid][symbol] = emits
            if self._trans_rows is not None:
                telemetry.incr("lazydfa.demotions")
            self._trans_table = None
            self._trans_rows = None
            self._emit_bits = None
            self._promoted_bytes = 0
            # Publish last: lock-free readers treat a non-negative
            # transition as "emits for this (sid, symbol) are in place".
            self._trans[sid][symbol] = nid
            return nid

    # Promotion above this many DFA states would cost more memory in list
    # cells than the lookup savings are worth; the per-row path stays.
    _PROMOTE_MAX_STATES = 8192

    def _promote(self) -> bool:
        """Freeze the warm transition lists into the dense steady-state form.

        Returns True if the promoted tables are in place.  Called by the
        stream loop once a full block of symbols runs without a memo miss;
        any later subset-construction growth invalidates the tables again.
        """
        with self._lock:
            if self._trans_rows is not None:
                return True
            if len(self._trans) > self._PROMOTE_MAX_STATES:
                return False
            guard = current_guard()
            dense_bytes = len(self._trans) * _PROMOTED_STATE_BYTES
            if guard is not None and not guard.memo_headroom(
                self._memo_bytes + dense_bytes
            ):
                # Declining is the demoted steady state: the raw memo fits
                # the budget but the dense tables would not.
                telemetry.incr("resilience.memo.promotion_declined")
                return False
            self._promoted_bytes = dense_bytes
            self._trans_table = np.vstack(self._trans)
            trans_rows = self._trans_table.tolist()
            emit_bits = []
            for per_symbol in self._emits:
                bits = 0
                for symbol in per_symbol:
                    bits |= 1 << symbol
                emit_bits.append(bits)
            self._emit_bits = emit_bits
            # Publish the rows last: the stream loop's promoted-path guard
            # is ``_trans_rows is not None``, so emit bits must be in
            # place before rows become visible.
            self._trans_rows = trans_rows
            telemetry.incr("lazydfa.promotions")
            return True

    @property
    def dfa_state_count(self) -> int:
        """DFA states materialised so far."""
        return len(self._id_to_set)

    # -- execution ---------------------------------------------------------

    def stream(self, *, record_active: bool = False) -> "LazyDFAStream":
        """A streaming session: feed chunks, state persists between feeds."""
        return LazyDFAStream(self, record_active=record_active)

    def run(self, data: bytes, *, record_active: bool = False) -> RunResult:
        session = self.stream(record_active=record_active)
        reports = session.feed(data)
        return RunResult(
            reports=reports,
            cycles=session.offset,
            active_per_cycle=session.active_per_cycle,
        )


#: Symbols per block between promotion checks in the stream loop.
_PROMOTE_BLOCK = 1024


class LazyDFAStream:
    """Persistent execution state (the current DFA state id).

    The feed loop runs in blocks: while the subset construction is still
    growing it takes the memoising slow path, and after the first block
    that completes without a memo miss it promotes the engine to its dense
    steady-state tables (one transition load plus one has-emit bit test
    per symbol).  A later miss drops back to the slow path until the next
    clean block re-promotes.
    """

    def __init__(self, engine: LazyDFAEngine, *, record_active: bool = False) -> None:
        self._engine = engine
        self.offset = 0
        self.active_per_cycle: list[int] | None = [] if record_active else None
        self._sid = engine._initial_id

    def feed(self, data: bytes) -> ReportBatch:
        scan_t0 = telemetry.clock()
        engine = self._engine
        reports = ReportBatch()
        sid = self._sid
        base = self.offset
        length = len(data)
        pos = 0
        promoted_this_feed = False
        guard = current_guard()
        if guard is not None:
            guard.check_deadline("lazydfa", base)
        while pos < length:
            if guard is not None:
                guard.check_deadline("lazydfa", base + pos)
            end = min(pos + _PROMOTE_BLOCK, length)
            if engine._trans_rows is not None:
                sid, pos = self._run_promoted(data, pos, end, sid, base, reports)
            else:
                before = engine._compute_count
                sid = self._run_slow(data, pos, end, sid, base, reports)
                pos = end
                if not promoted_this_feed and engine._compute_count == before:
                    # A full block without a memo miss: warm-up is over.
                    # (At most one promotion per feed, so a slowly growing
                    # subset space cannot thrash table rebuilds.)
                    promoted_this_feed = engine._promote()
        self._sid = sid
        self.offset = base + length
        if scan_t0 is not None:
            telemetry.record_scan("lazydfa", scan_t0, length, len(reports))
        return reports

    def _run_slow(self, data, pos, end, sid, base, reports):
        """Memoising path: list-of-rows transitions, computed on demand."""
        engine = self._engine
        active_counts = self.active_per_cycle
        trans = engine._trans
        emits = engine._emits
        id_to_set = engine._id_to_set
        offsets = reports.offsets
        groups = reports.groups
        for index in range(pos, end):
            symbol = data[index]
            if active_counts is not None:
                active_counts.append(len(id_to_set[sid]))
            nid = trans[sid][symbol]
            if nid < 0:
                nid = engine._compute(sid, symbol)
            hit = emits[sid].get(symbol)
            if hit is not None:
                offsets.append(base + index)
                groups.append(hit)
            sid = nid
        return sid

    def _run_promoted(self, data, pos, end, sid, base, reports):
        """Steady-state path over the dense promoted tables.

        Returns ``(sid, reached)``; ``reached < end`` means an unexplored
        transition was hit (computing it invalidated the tables) and the
        caller must continue on the slow path.
        """
        engine = self._engine
        active_counts = self.active_per_cycle
        rows = engine._trans_rows
        emit_bits = engine._emit_bits
        if rows is None or emit_bits is None:
            # Demoted by a concurrent thread between the caller's check and
            # our captures; make no progress and let the caller fall back
            # to the slow path.
            return sid, pos
        emits = engine._emits
        id_to_set = engine._id_to_set
        offsets_append = reports.offsets.append
        groups_append = reports.groups.append
        for index in range(pos, end):
            symbol = data[index]
            if active_counts is not None:
                active_counts.append(len(id_to_set[sid]))
            nid = rows[sid][symbol]
            if nid < 0:
                nid = engine._compute(sid, symbol)
                hit = emits[sid].get(symbol)
                if hit is not None:
                    offsets_append(base + index)
                    groups_append(hit)
                return nid, index + 1
            if (emit_bits[sid] >> symbol) & 1:
                offsets_append(base + index)
                groups_append(emits[sid][symbol])
            sid = nid
        return sid, end
