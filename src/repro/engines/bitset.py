"""Bit-parallel packed-bitmask NFA engine (the CPU hot path).

The active set is one packed bitmask: bit ``i`` is set iff state ``i`` is
enabled.  One step is (a) AND with the precomputed per-symbol membership
mask (256 masks, packed by the same
:func:`~repro.engines.lowered.packed_charsets` as
:class:`~repro.engines.vector.VectorEngine`), then (b) OR of the matched
states' precomputed successor bitmasks; both come, with the report and
start masks, from :class:`~repro.engines.lowered.SubsetMasks`.  Reports
are harvested from the matched mask only on cycles where the report-mask
AND is nonzero — as report-table ranks sorted into one
:class:`~repro.engines.base.ReportBatch` group per firing offset — and
``record_active`` is a popcount, so Table I statistics reproduce
exactly.  Every mask and table is built from the automaton's
:class:`~repro.engines.lowered.Lowered` form, and counters step through
:meth:`~repro.engines.lowered.Lowered.counter_step`, as in the vector
engine.

Two structural decisions make this engine fast where the numpy engines are
not:

* **Masks are CPython big integers**, not numpy arrays.  A big int *is* a
  packed word array operated on in C, and a whole-mask AND/OR is a single
  interpreter call with no per-call numpy dispatch overhead.  (Measured on
  the Snort ablation: a numpy ``uint64[words]`` variant of the same loop —
  ``bitwise_and(out=)`` + ``flatnonzero`` gather/OR-reduce with fully
  preallocated scratch — runs 10-20x *slower* than the big-int loop,
  because three-to-six numpy calls per symbol cost more than the whole
  step.  This is the same engineering lesson as the repo's
  :class:`~repro.baselines.shift_and.ShiftAndMatcher`.)
* **ALL_INPUT start states are lifted out of the loop.**  Their matches
  depend only on the current symbol, so their successor-OR, report lists
  and counter feed/reset events are precomputed per symbol (256 entries).
  The per-symbol loop then only walks the *non-start* matched bits, which
  on low-activity workloads (Snort) averages below one bit per symbol.

**Walks.**  The shared feed frame (:class:`~repro.engines.base.Stream`)
calls ``BitsetStream._scan`` once per block of
:data:`~repro.resilience.guards.GUARD_BLOCK` (512) symbols, and the block
runs one of two walks.  Both count the matched non-start states, and each
block picks the next block's walk from its own count per symbol,
whichever walk it ran, against the memo walk's cutover:

* **per-bit walk** (the sparse walk, and the only walk of automata with
  counters, whose counter state cannot be memoised) — visit the matched
  non-start bits one at a time (``m & -m``) and OR that state's
  successor mask; cost about 300 ns plus 200-500 ns per matched bit
  (200 ns on 44- to 704-STE automata, 490 ns on the 3,209-STE mesh).
* **memo walk** (the dense walk of counter-free automata) — the STEs split
  into *groups*: the connected components of the successor graph, merged
  where their index ranges overlap, so each group is one index interval
  ``[lo, hi)`` that no edge leaves.  The stream holds one state per group
  of the engine's :class:`~repro.engines.lowered.SubsetMemo`, so a symbol
  costs one class lookup, then two ``map`` calls over the group states,
  run in C: one for the next states and one for the matched counts.
  Warm, that is about 1.3 µs per symbol on either 10-group half of the
  ``dna_mesh`` automaton, against 9.5 µs (Hamming) and 45 µs
  (Levenshtein) on the per-bit walk (``bench_results/BENCH_engines.json``).
  On merged copies of five DNA motifs, the memo walk costs 0.97 times the
  per-bit walk at 5 groups (3.7 matched states per symbol), 0.72 at 20
  and 0.45 at 80 (59 matched), a crossover near ``2 + 0.3 * groups``
  matched states per symbol.  The walk is entered above
  ``4 + 0.3 * groups``, which keeps a margin where the two walks cost
  the same: the mesh automata enter (about 140 matched states per
  symbol, 20 groups), while a rule set with hundreds of mostly idle
  components never does (Snort: under one matched state per symbol,
  about 180 groups), nor do five DNA motifs with wildcard runs (3-5
  matched states per symbol, 5 groups).  A cold (state, class) cell is
  the per-bit walk on the group's slice only.  When several groups
  report at one offset, their report groups merge in ident order.

A stream starts on the per-bit walk, and its first block is split after
:data:`_PROBE` (16) symbols, so it picks its walk from its own input
early: the mesh runs the rest of its first block on the memo walk.

**Memo cap.**  The engine caps its memo at ``MEMO_CELLS // classes``
states (:data:`MEMO_CELLS` cells over all groups; the cap rules are in
:class:`~repro.engines.lowered.SubsetMemo`).  At the cap the stream turns
its group states back into one mask and finishes the block on the
per-bit walk, and from then on the engine stays on the per-bit walk.  A
bitset scan never raises over the memo, and it is not charged to
``ScanBudget.memo_bytes``: this engine is the rung a lazy-DFA memo trip
falls to.

Per-state successor bitmasks are inherently O(n^2) bits in the worst case,
so construction refuses automata above ``max_states`` (default 65536) with
:class:`~repro.errors.CapacityError`; use
:func:`repro.engines.cache.auto_engine` to fall back to ``VectorEngine``
for the multi-million-state full-scale builds.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines.base import Engine, Stream
from repro.engines.lowered import Lowered, SubsetMasks, SubsetMemo, bit_mask, iter_bits
from repro.errors import CapacityError

__all__ = ["BitsetEngine", "BitsetStream", "MEMO_CELLS"]

#: Cap on the memo walk's (state, alphabet class) cells, summed over every
#: group of one engine.  The seed-3 ``dna_mesh`` automaton needs about
#: 10.6k states x 5 classes; at the cap the engine stays on the per-bit
#: walk for good.
MEMO_CELLS = 1 << 20

# The two successor walks a stream picks between, per block.
_BIT, _MEMO = "bit", "memo"

# Symbols a stream scans on the per-bit walk before it first picks a walk.
_PROBE = 16


def _group_bounds(succ: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Split STEs ``0..n-1`` into the fewest index intervals ``[lo, hi)``
    that no successor edge leaves (connected components, merged where
    their index ranges overlap)."""
    far = list(range(len(succ)))  # far[i]: the highest index linked to i
    for i, dsts in enumerate(succ):
        if dsts:
            first, last = dsts[0], dsts[-1]
            if last > far[i]:
                far[i] = last
            if first < i and far[first] < i:
                far[first] = i
    bounds = []
    lo = reach = 0
    for i, end in enumerate(far):
        if i > reach:
            bounds.append((lo, i))
            lo = i
        if end > reach:
            reach = end
    if succ:
        bounds.append((lo, len(succ)))
    return bounds


class BitsetEngine(Engine):
    """Bit-parallel active-set simulation of a homogeneous automaton."""

    label = "bitset"

    def __init__(self, automaton: Automaton, *, max_states: int = 65536) -> None:
        super().__init__(automaton)
        compile_t0 = telemetry.clock()
        lowered = Lowered(automaton)
        n = lowered.n
        if n > max_states:
            raise CapacityError(
                f"automaton has {n} STEs; BitsetEngine's per-state successor "
                f"bitmasks are quadratic, so it is capped at {max_states} "
                "states (use VectorEngine or raise max_states)"
            )
        self._lowered = lowered

        # Per-symbol membership, per-state successor (STE -> STE edges
        # only), report and start masks as big ints (bit i = state i), the
        # same model the DFA engines step; counter feeds and reset wires go
        # through the lowered form's maps.
        masks = SubsetMasks(lowered)
        charmask = masks.symbol_masks
        succ = self._succ_int = masks.succ_masks
        report_rank = lowered.report_rank
        self._report_int = masks.report_mask
        self._feed_int = bit_mask(lowered.feeding)

        all_input = masks.all_input
        self._not_all = ~all_input
        self._all_count = len(lowered.all_input)
        self._initial_rest = masks.initial & ~all_input

        # Counters (rare; handled per-event in Python, as in VectorEngine).
        self._counter_succ_int: dict[str, int] = {
            ident: bit_mask(dsts) for ident, dsts in lowered.counter_succ.items()
        }
        self._has_counters = bool(lowered.counters)

        # ALL_INPUT start states match as a function of the symbol alone:
        # precompute their successor-OR, report ranks, and counter
        # feed/reset events once per symbol so the hot loop never touches
        # them.
        start_next = [0] * 256
        start_reports: list[tuple[int, ...]] = [()] * 256
        start_events: list[tuple[str, ...]] = [()] * 256
        start_resets: list[tuple[str, ...]] = [()] * 256
        for i in lowered.all_input:
            feeds = lowered.counter_feeds.get(i, ())
            resets = lowered.reset_feeds.get(i, ())
            for sym in lowered.stes[i].charset:
                start_next[sym] |= succ[i]
                if report_rank[i] >= 0:
                    start_reports[sym] += (report_rank[i],)
                if feeds:
                    start_events[sym] += feeds
                if resets:
                    start_resets[sym] += resets
        not_all = self._not_all
        self._start_ranks = [tuple(sorted(r)) for r in start_reports]
        self._start_events = start_events
        self._start_resets = start_resets
        # Fused per-symbol row (membership mask, premasked start successors,
        # start-report group): one list index in the hot loop instead of
        # three.  Equal rows share one tuple (and its masks), so a large
        # automaton over a small alphabet holds one row per alphabet class.
        start_groups = [
            lowered.reports.group(list(ranks)) if ranks else ()
            for ranks in self._start_ranks
        ]
        rows: dict[tuple, tuple] = {}
        self._sym_tab = [
            rows.setdefault(row, row)
            for row in zip(charmask, [mask & not_all for mask in start_next], start_groups)
        ]

        # The memo walk's cutover (matched non-start states per symbol);
        # see the module docstring.
        self._memo: SubsetMemo | None = None
        self._memo_cutover = 0.0
        if n and not self._has_counters:
            bounds = _group_bounds(lowered.succ)
            cap = MEMO_CELLS // len(masks.classes)
            self._memo = SubsetMemo(masks, lowered.reports, bounds, cap)
            self._memo_cutover = 4 + 0.3 * len(bounds)
        telemetry.record_compile(self.label, compile_t0, n)

    # -- helpers -----------------------------------------------------------

    def _group(self, sym: int, hits: int, fired: list[int] | None):
        """The report group of one offset: start reporters on ``sym``, the
        matched reporters ``hits`` (a mask) and the counter ranks ``fired``."""
        report_rank = self._lowered.report_rank
        ranks = list(self._start_ranks[sym])
        ranks += [report_rank[i] for i in iter_bits(hits)]
        if fired:
            ranks += fired
        return self._lowered.reports.group(ranks)

    # -- execution ---------------------------------------------------------

    def stream(self, *, record_active: bool = False) -> "BitsetStream":
        """A streaming session: feed chunks, state persists between feeds."""
        return BitsetStream(self, record_active=record_active)


class BitsetStream(Stream):
    """Persistent execution state for :class:`BitsetEngine`.

    The state is the current walk plus either the non-start part of the
    enabled mask (ALL_INPUT states are implicitly always enabled) or, on
    the memo walk, one memo state per group; plus the counter states.
    Chunk boundaries are invisible.
    """

    _engine: BitsetEngine

    def __init__(self, engine: BitsetEngine, *, record_active: bool = False) -> None:
        super().__init__(engine, record_active=record_active)
        self.counter_states = engine._lowered.counter_states()
        self._rest = engine._initial_rest
        self._walk = _BIT
        #: The group states while on the memo walk, else None.
        self._states: list[int] | None = None

    def _set_walk(self, walk: str) -> None:
        """Switch to ``walk``, converting the state between its mask and
        its group states; a memo walk the memo has no room for becomes
        the per-bit walk."""
        if walk == self._walk:
            return
        engine = self._engine
        memo = engine._memo
        if self._walk == _MEMO:
            self._rest = memo.leave(self._states) & engine._not_all
            self._states = None
        if walk == _MEMO:
            self._states = memo.enter(self._rest | memo.masks.all_input)
            if self._states is None:
                walk = _BIT
        self._walk = walk

    def _scan(self, data, pos, end, base, reports):
        """Scan one block of the feed frame.  The stream's first block is
        split after :data:`_PROBE` symbols, so the walk of the rest is
        picked from the stream's own input."""
        if not base + pos and end - pos > _PROBE:
            self._block(data, pos, pos + _PROBE, base, reports)
            pos += _PROBE
        self._block(data, pos, end, base, reports)

    def _block(self, data, pos, end, base, reports):
        """Scan ``data[pos:end]`` on the current walk, then pick the next
        walk from the stretch's matched non-start states per symbol (see
        the module docstring)."""
        engine = self._engine
        memo = engine._memo
        start = pos
        matched = 0
        if self._walk == _MEMO:
            pos, matched = self._memo_scan(data, pos, end, base, reports)
            if pos < end:  # the memo is full: finish on the per-bit walk
                self._set_walk(_BIT)
        if pos < end:
            matched += self._mask_scan(data, pos, end, base, reports)
        if (
            memo is not None
            and not memo.full
            and matched > engine._memo_cutover * (end - start)
        ):
            self._set_walk(_MEMO)
        else:
            self._set_walk(_BIT)
        telemetry.incr("engine.matched_states.bitset", matched)

    def _memo_scan(self, data, pos, end, base, reports):
        """Scan ``data[pos:end]`` on the memo walk.

        Returns the index of the first symbol not scanned (``end`` unless
        the memo filled up) and the matched non-start count.  Unset and
        reporting cells read as None; a symbol that meets one fills it
        (and appends the offset's merged report group) before stepping.
        """
        memo = self._engine._memo
        row_get = [row.__getitem__ for row in memo.rows]
        matched_get = [counts.__getitem__ for counts in memo.matched]
        sym_class = memo.masks.symbol_class
        fill = self._memo_fill
        enabled = memo.enabled
        active = self.active_per_cycle
        states = self._states
        pop = 0
        for index in range(pos, end):
            c = sym_class[data[index]]
            nxt = [*map(row_get[c], states)]
            if None in nxt and not fill(states, c, nxt, base + index, reports):
                self._states = states
                return index, pop
            if active is not None:
                active.append(enabled(states))
            pop += sum(map(matched_get[c], states))
            states = nxt
        self._states = states
        return end, pop

    def _memo_fill(self, states, c, nxt, offset, reports):
        """Replace the None entries of ``nxt``, the step of ``states`` on
        class ``c`` at ``offset``, and append the offset's merged report
        group.  False, with nothing changed, if the memo is full."""
        memo = self._engine._memo
        emits = memo.emits[c]
        cells = []
        for group, value in enumerate(nxt):
            if value is None:
                sid = states[group]
                cell = emits.get(sid) or memo.compute(group, sid, c)
                if cell is None:
                    return False
                cells.append((group, cell))
        fired = []
        for group, (value, report) in cells:
            nxt[group] = value
            if report:
                fired.append(report)
        if fired:
            reports.offsets.append(offset)
            # Groups hold distinct STEs, so the union in ident order is
            # the ReportTable group of all their ranks.
            reports.groups.append(
                fired[0]
                if len(fired) == 1
                else tuple(sorted(chain.from_iterable(fired), key=itemgetter(0)))
            )
        return True

    def _mask_scan(self, data, pos, end, base, reports):
        """Scan ``data[pos:end]`` on the per-bit walk; return the matched
        non-start count.

        Per symbol: record popcount, AND with the symbol mask, OR the
        matched bits' successor masks into the precomputed start-successor
        mask, apply the (rare) counter machinery, then append the offset's
        report group.  The no-match arm is the hot
        one on low-activity workloads: one fused table row, one AND, and
        the next mask comes straight from the premasked start-successor
        table.
        """
        engine = self._engine
        tab = engine._sym_tab
        succ = engine._succ_int
        rep_int = engine._report_int
        feed_int = engine._feed_int
        not_all = engine._not_all
        all_count = engine._all_count
        has_counters = engine._has_counters
        start_events = engine._start_events
        start_resets = engine._start_resets
        group_of = engine._group
        active = self.active_per_cycle
        offsets = reports.offsets
        groups = reports.groups
        rest = self._rest
        pop = 0
        for offset, sym in enumerate(data[pos:end], base + pos):
            if active is not None:
                active.append(all_count + rest.bit_count())
            mask, nxt0, sg = tab[sym]
            m = rest & mask
            if m:
                pop += m.bit_count()
                nxt = nxt0
                mm = m
                while mm:
                    low = mm & -mm
                    nxt |= succ[low.bit_length() - 1]
                    mm ^= low
                fired = None
                if has_counters and (
                    start_events[sym] or start_resets[sym] or m & feed_int
                ):
                    fired = []
                    nxt |= self._counter_cycle(sym, m & feed_int, fired)
                rest = nxt & not_all
                hits = m & rep_int
                g = group_of(sym, hits, fired) if hits or fired else sg
                if g:
                    offsets.append(offset)
                    groups.append(g)
            elif has_counters and (start_events[sym] or start_resets[sym]):
                fired = []
                rest = (nxt0 | self._counter_cycle(sym, 0, fired)) & not_all
                g = group_of(sym, 0, fired) if fired else sg
                if g:
                    offsets.append(offset)
                    groups.append(g)
            else:
                rest = nxt0
                if sg:
                    offsets.append(offset)
                    groups.append(sg)
        self._rest = rest
        return pop

    def _counter_cycle(self, sym, fed, fired):
        """Apply one cycle of counter resets/events; return fired successors.

        ``fed`` is the mask of matched feeding states; the report-table
        ranks of reporting counters that fire are appended to ``fired``.
        """
        engine = self._engine
        extra = 0
        for ident in engine._lowered.counter_step(
            self.counter_states,
            iter_bits(fed),
            fired,
            engine._start_events[sym],
            engine._start_resets[sym],
        ):
            extra |= engine._counter_succ_int[ident]
        return extra
