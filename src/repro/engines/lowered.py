"""The lowered (index) form of a homogeneous automaton.

Every index-based engine and transform runs the same model over STE
indices instead of idents: :class:`~repro.engines.vector.VectorEngine`
(numpy CSR), :class:`~repro.engines.bitset.BitsetEngine` (big-int masks),
:class:`~repro.engines.lazydfa.LazyDFAEngine` (memo rows),
:meth:`repro.core.dfa.DFA.from_automaton` (class tables) and
:func:`repro.transforms.striding.stride`.  :class:`Lowered` numbers the
STEs once and writes that model out — successor tuples, counter-feed and
reset-wire maps, report ranks, start sets, counters — so each consumer
only builds its own structures from it.  This is also where alphabet
compression and offset classes plug in.

:class:`~repro.engines.reference.ReferenceEngine` does not use this form:
it is the ident-level oracle the lowered engines are tested against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.automaton import Automaton
from repro.core.elements import CounterElement, STE, StartMode
from repro.engines.base import ReportTable
from repro.engines.reference import _CounterState

__all__ = ["Lowered", "packed_charsets", "membership_masks", "bit_mask", "iter_bits"]

_CHUNK = 65536  # states per chunk when building the packed charset matrix


class Lowered:
    """An automaton's STEs numbered ``0..n-1`` and its model over those indices.

    Each consumer lowers the automaton itself; the form is not memoised.
    Counters keep their idents: they are few, and their per-cycle step
    (:meth:`counter_step`) runs in Python in every engine.
    """

    def __init__(self, automaton: Automaton) -> None:
        stes: list[STE] = list(automaton.stes())
        index = {ste.ident: i for i, ste in enumerate(stes)}
        #: The STEs in index order.
        self.stes = stes
        #: STE ident -> index.
        self.index = index
        #: Number of STEs.
        self.n = len(stes)
        #: Sorted STE -> STE successor indices per STE.
        self.succ: list[tuple[int, ...]] = []
        #: STE index -> counters it sends count events to.
        self.counter_feeds: dict[int, tuple[str, ...]] = {}
        for i, ste in enumerate(stes):
            dsts = automaton.successors(ste.ident)
            targets = [index[d] for d in dsts if d in index]
            if len(targets) < len(dsts):
                self.counter_feeds[i] = tuple(d for d in dsts if d not in index)
            targets.sort()
            self.succ.append(tuple(targets))
        #: STE index -> counters its reset wires clear.
        self.reset_feeds: dict[int, tuple[str, ...]] = {}
        for src, counter in automaton.reset_edges():
            i = index.get(src)
            if i is not None:
                self.reset_feeds[i] = self.reset_feeds.get(i, ()) + (counter,)
        #: STEs with a counter feed or a reset wire, sorted.
        self.feeding = tuple(sorted(self.counter_feeds.keys() | self.reset_feeds.keys()))
        self.reports = ReportTable(automaton)
        rank = self.reports.rank
        #: Report-table rank per STE; -1 for non-reporting STEs.
        self.report_rank = [rank[ste.ident] if ste.report else -1 for ste in stes]
        #: ALL_INPUT STEs, sorted.
        self.all_input = tuple(
            i for i, ste in enumerate(stes) if ste.start is StartMode.ALL_INPUT
        )
        #: STEs enabled on the first symbol (ALL_INPUT and START_OF_DATA), sorted.
        self.initial = tuple(
            i for i, ste in enumerate(stes) if ste.start is not StartMode.NONE
        )
        self.counters: dict[str, CounterElement] = {
            c.ident: c for c in automaton.counters()
        }
        #: Sorted STE successor indices per counter.
        self.counter_succ: dict[str, tuple[int, ...]] = {
            ident: tuple(sorted(index[d] for d in automaton.successors(ident) if d in index))
            for ident in self.counters
        }

    def counter_states(self) -> dict[str, _CounterState]:
        """Fresh per-stream counter states, keyed by counter ident."""
        return {ident: _CounterState(element) for ident, element in self.counters.items()}

    def counter_step(
        self,
        states: dict[str, _CounterState],
        matched: Iterable[int],
        ranks: list[int],
        events: Iterable[str] = (),
        resets: Iterable[str] = (),
    ) -> list[str]:
        """Apply one cycle of counter resets and count events.

        ``matched`` are the matched STEs with a feed or reset wire;
        ``events`` and ``resets`` name counters hit besides theirs.  Resets
        apply first, then the count events in counter-ident order (Section
        XI).  The report ranks of firing reporting counters are appended to
        ``ranks``; the firing counters are returned.
        """
        events = set(events)
        resets = set(resets)
        counter_feeds = self.counter_feeds
        reset_feeds = self.reset_feeds
        for i in matched:
            events.update(counter_feeds.get(i, ()))
            resets.update(reset_feeds.get(i, ()))
        for ident in resets:
            states[ident].reset()
        fired = []
        for ident in sorted(events):
            state = states[ident]
            if state.on_count_event():
                if state.element.report:
                    ranks.append(self.reports.rank[ident])
                fired.append(ident)
        return fired


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


def membership_masks(stes: list[STE]) -> list[int]:
    """:func:`packed_charsets` as 256 big ints: bit ``i`` of entry ``s`` is
    1 iff ``stes[i]`` matches symbol ``s``."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed_charsets(stes)]


def bit_mask(indices: Iterable[int]) -> int:
    """The big-int mask with bit ``i`` set for each of ``indices``."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
