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

Successor propagation runs in one scan loop, ``BitsetStream._scan``,
which the shared feed frame (:class:`~repro.engines.base.Stream`) calls
once per block of :data:`~repro.resilience.guards.GUARD_BLOCK` (512)
symbols.  Its walk of the matched mask is picked per block from the
previous block's matched-set density:

* **per-bit walk** — visit the set bits one at a time (``m & -m``) and OR
  that state's successor mask; cost proportional to the matched count.
  Wins when active sets are small.
* **per-byte walk** — visit the mask a byte-word at a time (skipping zero
  words) and OR a lazily memoised per-(word, value) successor mask from
  :attr:`_block_lut`; cost proportional to ``n/8`` independent of density
  (the memoised equivalent of a dense boolean matmul row).  Wins when
  active sets are large.

Per-state successor bitmasks are inherently O(n^2) bits in the worst case,
so construction refuses automata above ``max_states`` (default 65536) with
:class:`~repro.errors.CapacityError`; use
:func:`repro.engines.cache.auto_engine` to fall back to ``VectorEngine``
for the multi-million-state full-scale builds.
"""

from __future__ import annotations

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines.base import Engine, Stream
from repro.engines.lowered import Lowered, SubsetMasks, bit_mask, iter_bits
from repro.errors import CapacityError

__all__ = ["BitsetEngine", "BitsetStream"]


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
        self._n = n
        self._nbytes = (n + 7) // 8

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
        # three.
        start_groups = [
            lowered.reports.group(list(ranks)) if ranks else ()
            for ranks in self._start_ranks
        ]
        self._sym_tab = list(
            zip(charmask, [mask & not_all for mask in start_next], start_groups)
        )

        # Lazily memoised block-path LUT: (byte_position << 8 | byte_value)
        # -> OR of the successor masks of those eight states.
        self._block_lut: dict[int, int] = {}
        # Density cutover between the two successor walks: the per-bit
        # walk costs ~1 unit per matched bit, the per-byte walk ~2 units
        # per mask byte regardless of density.
        self._block_cutover = max(4, n >> 2)
        telemetry.record_compile(self.label, compile_t0, n)

    # -- helpers -----------------------------------------------------------

    def _lut_entry(self, key: int) -> int:
        """Build (and memoise) the successor-OR of one matched-mask byte."""
        base = (key >> 8) << 3
        byte = key & 0xFF
        succ = self._succ_int
        acc = 0
        while byte:
            low = byte & -byte
            acc |= succ[base + low.bit_length() - 1]
            byte ^= low
        self._block_lut[key] = acc
        return acc

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

    The state is the non-start part of the enabled mask (ALL_INPUT states
    are implicitly always enabled) plus the counter states and the current
    successor-walk choice, so chunk boundaries are invisible.
    """

    _engine: BitsetEngine

    def __init__(self, engine: BitsetEngine, *, record_active: bool = False) -> None:
        super().__init__(engine, record_active=record_active)
        self.counter_states = engine._lowered.counter_states()
        self._rest = engine._initial_rest
        self._use_block = False

    def _scan(self, data, pos, end, base, reports):
        """Scan ``data[pos:end]`` and pick the next block's successor walk.

        Per symbol: record popcount, AND with the symbol mask, OR the
        matched bits' successor masks into the precomputed start-successor
        mask, apply the (rare) counter machinery, then append the offset's
        report group.  :attr:`_use_block` picks the walk of the matched
        bits: per byte through :attr:`BitsetEngine._block_lut` (O(n/8)) or
        per set bit (O(matched count)); the block's matched count sets it
        for the next block.  The no-match arm is the hot one on
        low-activity workloads: one fused table row, one AND, and the next
        mask comes straight from the premasked start-successor table.
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
        nbytes = engine._nbytes
        lut_get = engine._block_lut.get
        lut_build = engine._lut_entry
        active = self.active_per_cycle
        offsets = reports.offsets
        groups = reports.groups
        block = self._use_block
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
                if block:
                    key = -256
                    for byte in m.to_bytes(nbytes, "little"):
                        key += 256
                        if byte:
                            entry = lut_get(key | byte)
                            if entry is None:
                                entry = lut_build(key | byte)
                            nxt |= entry
                else:
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
        self._use_block = pop > engine._block_cutover * (end - pos)
        telemetry.incr("engine.matched_states.bitset", pop)

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
