"""The lowered (index) form of a homogeneous automaton.

Every index-based engine and transform runs the same model over STE
indices instead of idents: :class:`~repro.engines.vector.VectorEngine`
(numpy CSR), :class:`~repro.engines.bitset.BitsetEngine` (big-int masks),
:class:`~repro.engines.lazydfa.LazyDFAEngine` (memo rows),
:meth:`repro.core.dfa.DFA.from_automaton` (class tables) and
:func:`repro.transforms.striding.stride`.  :class:`Lowered` numbers the
STEs once and writes that model out — successor tuples, counter-feed and
reset-wire maps, report ranks, start sets, counters — so each consumer
only builds its own structures from it.

:class:`SubsetMasks` is the same model as big-int masks, with the
alphabet compression (symbols whose membership masks are equal form one
class).  :class:`SubsetMemo` is the one subset construction over it: the
lazy DFA, the bitset engine's memo walk and the ahead-of-time DFA are
each a memo over their groups of STEs; its docstring holds the
thread-safety contract and the cap rules.

:class:`~repro.engines.reference.ReferenceEngine` does not use this form:
it is the ident-level oracle the lowered engines are tested against.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.automaton import Automaton
from repro.core.elements import CounterElement, STE, StartMode
from repro.engines.base import Group, ReportTable
from repro.engines.reference import _CounterState

__all__ = [
    "Lowered", "SubsetMasks", "SubsetMemo", "packed_charsets", "membership_masks",
    "bit_mask", "iter_bits",
]

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

    Each chunk's charset masks become one byte matrix that a single
    ``np.unpackbits`` turns into per-STE membership rows; eight rows at a
    time are then shifted into the bits of one byte column.  Built
    ``_CHUNK`` states at a time, so the scratch matrix stays bounded on
    multi-million-state automata.
    """
    n = len(stes)
    charbits = np.zeros((256, (n + 7) // 8), dtype=np.uint8)
    for base in range(0, n, _CHUNK):
        chunk = stes[base : base + _CHUNK]
        # Zero rows pad the chunk to whole bytes of states.
        raw = b"".join([ste.charset.mask.to_bytes(32, "little") for ste in chunk])
        raw += bytes(32 * (-len(chunk) % 8))
        rows = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(-1, 32), axis=1, bitorder="little"
        ).reshape(-1, 8, 256)
        packed = rows[:, 0]
        for bit in range(1, 8):
            packed |= rows[:, bit] << bit
        charbits[:, base // 8 : base // 8 + packed.shape[0]] = packed.T
    return charbits


def membership_masks(stes: list[STE]) -> list[int]:
    """:func:`packed_charsets` as 256 big ints: bit ``i`` of entry ``s`` is
    1 iff ``stes[i]`` matches symbol ``s``."""
    charbits = packed_charsets(stes)
    raw = charbits.tobytes()
    width = charbits.shape[1]
    return [
        int.from_bytes(raw[s * width : (s + 1) * width], "little") for s in range(256)
    ]


class SubsetMasks:
    """Subset construction over big-int STE subsets, with alphabet classes.

    A subset of enabled STEs is one int (bit ``i`` = STE ``i``).  Symbols
    whose membership masks are equal are indistinguishable by every
    subset, so they form one alphabet class (Mata's alphabet compression,
    PAPERS.md): a transition computed for one symbol holds for its whole
    class.
    """

    __slots__ = (
        "symbol_masks", "succ_masks", "all_input", "initial", "report_mask",
        "report_rank", "symbol_class", "classes",
    )

    def __init__(self, lowered: Lowered) -> None:
        classes: dict[int, list[int]] = {}
        for symbol, mask in enumerate(membership_masks(lowered.stes)):
            classes.setdefault(mask, []).append(symbol)
        #: The symbols of each alphabet class, numbered by first symbol.
        self.classes = [tuple(symbols) for symbols in classes.values()]
        #: Symbol -> alphabet class.
        self.symbol_class = [0] * 256
        for cls, symbols in enumerate(self.classes):
            for symbol in symbols:
                self.symbol_class[symbol] = cls
        class_masks = list(classes)
        #: Per-symbol membership masks (:func:`membership_masks`); the
        #: symbols of one class share one int.
        self.symbol_masks = [class_masks[cls] for cls in self.symbol_class]
        #: Per-STE successor masks.
        self.succ_masks = [bit_mask(dsts) for dsts in lowered.succ]
        #: ALL_INPUT STEs, enabled on every symbol.
        self.all_input = bit_mask(lowered.all_input)
        #: The subset enabled on the first symbol.
        self.initial = bit_mask(lowered.initial)
        #: Report-table rank per STE; -1 for non-reporting STEs.
        self.report_rank = lowered.report_rank
        #: Reporting STEs.
        self.report_mask = bit_mask(
            i for i, rank in enumerate(self.report_rank) if rank >= 0
        )

    def slice(self, lo: int, hi: int) -> "SubsetMasks":
        """The masks of STEs ``lo..hi-1``, renumbered from 0.

        Edges that leave the interval are dropped, so the slice steps
        alone only when none does (a union of connected components).  It
        keeps this model's report ranks and alphabet classes, which refine
        its own.  The slice of every STE is this model itself.
        """
        if lo == 0 and hi == len(self.succ_masks):
            return self
        width = (1 << (hi - lo)) - 1
        part = SubsetMasks.__new__(SubsetMasks)
        per_class = [(self.symbol_masks[symbols[0]] >> lo) & width for symbols in self.classes]
        part.symbol_masks = [per_class[cls] for cls in self.symbol_class]
        part.succ_masks = [(mask >> lo) & width for mask in self.succ_masks[lo:hi]]
        part.all_input = (self.all_input >> lo) & width
        part.initial = (self.initial >> lo) & width
        part.report_rank = self.report_rank[lo:hi]
        part.report_mask = (self.report_mask >> lo) & width
        part.symbol_class = self.symbol_class
        part.classes = self.classes
        return part

    def step(self, subset: int, symbol: int) -> tuple[list[int], int]:
        """One subset-construction step on ``symbol``.

        Returns the report ranks of the matched STEs, unsorted, and the
        subset enabled on the next symbol.
        """
        matched = subset & self.symbol_masks[symbol]
        reporting = matched & self.report_mask
        rank = self.report_rank
        ranks = [rank[i] for i in iter_bits(reporting)] if reporting else []
        succ = self.succ_masks
        nxt = self.all_input
        while matched:
            low = matched & -matched
            nxt |= succ[low.bit_length() - 1]
            matched ^= low
        return ranks, nxt


class SubsetMemo:
    """Lazy subset construction over :class:`SubsetMasks`: the DFA memo.

    The STEs split into *groups*, index intervals ``[lo, hi)`` that no
    successor edge leaves, and each group steps its own subsets over its
    :meth:`SubsetMasks.slice`.  The lazy DFA is the memo over the single
    group ``[(0, n)]``, the bitset engine's memo walk the memo over its
    connected components, and the ahead-of-time DFA fills every cell of
    the single group.  A state is one group's subset, interned to a state
    id (ids are unique over all groups).  A cell is (state, alphabet
    class); each class ``c`` has its own tables indexed by state id:

    * ``rows[c][s]``: the next state id, or None while the cell is unset
      and when the step reports;
    * ``matched[c][s]``: the step's matched non-start (not ALL_INPUT) STE
      count;
    * ``emits[c][s]``, reporting cells only: the next state id and the
      step's :class:`~repro.engines.base.ReportBatch` group.

    **Cap.**  The memo holds at most ``cap`` states, set by its caller
    (the lazy DFA's ``max_dfa_states``, the ahead-of-time DFA's
    ``max_states``, the bitset engine's ``MEMO_CELLS`` over its class
    count).  :meth:`intern` returns None at the cap and sets :attr:`full`;
    the cell whose step needed the state stays unset.  States are never
    flushed: scans in flight hold their ids.

    **Thread safety.**  One memo is shared by every thread that scans the
    engine holding it (:mod:`repro.engines.cache` hands one engine to all
    of them), so all growth — interning and cell writes — happens under
    :attr:`lock`, and readers stay lock-free: they read published cells
    only, and an unset cell (a None row without an emits entry) sends
    them through :meth:`compute`, which re-checks under the lock.
    Interning appends a state's slot to every class's tables before its id
    can be read anywhere.  A cell's matched count is stored before its row
    or emits entry, and the row (or emits entry, which carries the next
    id with the report group) is the last store of a compute, so a reader
    that sees the next id also sees what the step matched and reported.
    """

    def __init__(
        self,
        masks: SubsetMasks,
        reports: ReportTable,
        bounds: list[tuple[int, int]],
        cap: int,
    ) -> None:
        nc = len(masks.classes)
        self.masks = masks
        self.reports = reports
        self.bounds = bounds
        self.cap = cap
        self.lock = threading.Lock()
        #: Per group: its :meth:`SubsetMasks.slice`, sliced on first compute.
        self.slices: list[SubsetMasks | None] = [None] * len(bounds)
        #: Per group: subset -> state id.
        self.interned: list[dict[int, int]] = [{} for _ in bounds]
        #: State id -> subset.
        self.subsets: list[int] = []
        self.rows: list[list[int | None]] = [[] for _ in range(nc)]
        self.matched: list[list[int]] = [[] for _ in range(nc)]
        self.emits: list[dict[int, tuple[int, Group]]] = [{} for _ in range(nc)]
        #: Set once :meth:`intern` refused a state at the cap.
        self.full = False

    def intern(self, group: int, subset: int) -> int | None:
        """The state id of ``subset`` in ``group``; None at the cap.  The
        caller holds :attr:`lock`."""
        interned = self.interned[group]
        sid = interned.get(subset)
        if sid is None:
            sid = len(self.subsets)
            if sid >= self.cap:
                self.full = True
                return None
            for row in self.rows:
                row.append(None)
            for counts in self.matched:
                counts.append(0)
            self.subsets.append(subset)
            interned[subset] = sid
        return sid

    def enter(self, subset: int) -> list[int] | None:
        """The group states of the STE subset ``subset``; None at the cap."""
        states = []
        with self.lock:
            for group, (lo, hi) in enumerate(self.bounds):
                sid = self.intern(group, (subset >> lo) & ((1 << (hi - lo)) - 1))
                if sid is None:
                    return None
                states.append(sid)
        return states

    def leave(self, states: list[int]) -> int:
        """The STE subset of the group states ``states``."""
        subsets = self.subsets
        subset = 0
        for (lo, _hi), sid in zip(self.bounds, states):
            subset |= subsets[sid] << lo
        return subset

    def enabled(self, states: list[int]) -> int:
        """Enabled STEs in the group states ``states``."""
        return sum(map(int.bit_count, map(self.subsets.__getitem__, states)))

    def compute(self, group: int, sid: int, c: int) -> tuple[int, Group] | None:
        """Fill the cell of state ``sid`` (in ``group``) on class ``c``; its
        next state id and report group (``()`` if it does not report), or
        None if the next state would go over the cap."""
        with self.lock:
            # Another thread may have filled the cell since the lock-free
            # read of None.
            nid = self.rows[c][sid]
            if nid is not None:
                return nid, ()
            cell = self.emits[c].get(sid)
            if cell is not None:
                return cell
            masks = self.slices[group]
            if masks is None:
                masks = self.slices[group] = self.masks.slice(*self.bounds[group])
            subset = self.subsets[sid]
            symbol = masks.classes[c][0]
            ranks, nxt = masks.step(subset, symbol)
            nid = self.intern(group, nxt)
            if nid is None:
                return None
            self.matched[c][sid] = (
                subset & masks.symbol_masks[symbol] & ~masks.all_input
            ).bit_count()
            # Publish last (see the class docstring).  A reporting cell
            # keeps None in its row, so readers always look it up here.
            if ranks:
                cell = self.emits[c][sid] = (nid, self.reports.group(ranks))
                return cell
            self.rows[c][sid] = nid
            return nid, ()

    def cells(self) -> tuple[int, int, int]:
        """The memo's allocated, filled and reporting cell counts (filled
        counts the reporting cells too)."""
        allocated = len(self.subsets) * len(self.rows)
        reporting = sum(map(len, self.emits))
        unset = sum(row.count(None) for row in self.rows) - reporting
        return allocated, allocated - unset, reporting


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
