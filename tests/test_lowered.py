"""The lowered (index) form that vector, bitset, lazy DFA, DFA and stride share."""

from repro.core import Automaton, CharSet, CounterMode, StartMode
from repro.engines import BitsetEngine, ReferenceEngine, VectorEngine
from repro.engines.lowered import Lowered, SubsetMasks


def wired_automaton() -> Automaton:
    """One of each wire the lowered form numbers.

    ``a`` (ALL_INPUT, reporting) counts into ``c`` and enables ``b``;
    ``b`` enables ``r``, whose reset wire clears ``c``; ``s`` is a
    START_OF_DATA reporter; ``c`` (reporting) enables ``d``.
    """
    a = Automaton("wired")
    a.add_ste("a", CharSet.from_chars("a"), start=StartMode.ALL_INPUT,
              report=True, report_code="A")
    a.add_ste("b", CharSet.from_chars("b"))
    a.add_ste("s", CharSet.from_chars("x"), start=StartMode.START_OF_DATA,
              report=True, report_code="S")
    a.add_ste("r", CharSet.from_chars("r"))
    a.add_ste("d", CharSet.from_chars("d"), report=True, report_code="D")
    a.add_counter("c", 2, mode=CounterMode.ROLLOVER, report=True, report_code="C")
    a.add_edge("a", "c")
    a.add_edge("a", "b")
    a.add_edge("b", "r")
    a.add_edge("c", "d")
    a.add_reset_edge("r", "c")
    return a


def test_lowered_form_and_engines_agree_through_lifted_feed():
    automaton = wired_automaton()
    lowered = Lowered(automaton)
    assert [ste.ident for ste in lowered.stes] == ["a", "b", "s", "r", "d"]
    assert lowered.index == {"a": 0, "b": 1, "s": 2, "r": 3, "d": 4}
    assert (lowered.all_input, lowered.initial) == ((0,), (0, 2))
    assert lowered.succ == [(1,), (3,), (), (), ()]
    assert lowered.counter_feeds == {0: ("c",)}
    assert lowered.reset_feeds == {3: ("c",)}
    assert lowered.feeding == (0, 3)
    # Ranks follow the report table's ident order: a, c, d, s.
    assert lowered.report_rank == [0, -1, 3, -1, 2]
    assert list(lowered.counters) == ["c"]
    assert lowered.counter_succ == {"c": (4,)}

    # Every count event comes from the ALL_INPUT STE ``a``, which the
    # bitset engine lifts into per-symbol tables; ``r`` at offset 6 resets
    # the count ``a`` left at offset 4, so ``c`` fires at 8, not 7.
    data = b"xaadabraadaad"
    oracle = ReferenceEngine(automaton).run(data, record_active=True)
    rows = list(oracle.reports.iter_rows())
    assert [offset for offset, ident, _ in rows if ident == "c"] == [2, 8, 11]
    for engine_cls in (VectorEngine, BitsetEngine):
        result = engine_cls(automaton).run(data, record_active=True)
        assert list(result.reports.iter_rows()) == rows
        assert result.active_per_cycle == oracle.active_per_cycle


def test_subset_masks_step_and_alphabet_classes():
    automaton = wired_automaton()
    # ``m`` matches two symbols that no other STE tells apart.
    automaton.add_ste("m", CharSet.from_chars("pq"), report=True, report_code="M")
    automaton.add_edge("b", "m")
    masks = SubsetMasks(Lowered(automaton))
    # STE indices: a 0, b 1, s 2, r 3, d 4, m 5; report ranks a 0, d 2, m 3, s 4.
    assert masks.symbol_masks[ord("a")] == 0b000001
    assert masks.symbol_masks[ord("p")] == masks.symbol_masks[ord("q")] == 0b100000
    assert (masks.all_input, masks.initial, masks.report_mask) == (0b1, 0b101, 0b110101)
    assert masks.succ_masks == [0b10, 0b101000, 0, 0, 0, 0]

    # Classes are numbered by their first symbol; every symbol no STE
    # matches shares class 0.
    by_symbol = {chr(symbols[0]): symbols for symbols in masks.classes[1:]}
    assert masks.classes[0][:3] == (0, 1, 2)
    assert by_symbol == {
        "a": (ord("a"),), "b": (ord("b"),), "d": (ord("d"),),
        "p": (ord("p"), ord("q")), "r": (ord("r"),), "x": (ord("x"),),
    }
    assert len(masks.classes) == 7
    for cls, symbols in enumerate(masks.classes):
        assert all(masks.symbol_class[symbol] == cls for symbol in symbols)
    assert sorted(s for symbols in masks.classes for s in symbols) == list(range(256))

    # Matched STEs report their ranks and enable their successors on top
    # of the ALL_INPUT mask; the counter feed of ``a`` is not a successor.
    assert masks.step(masks.initial, ord("a")) == ([0], 0b11)
    assert masks.step(masks.initial, ord("x")) == ([4], 0b1)
    assert masks.step(0b10, ord("b")) == ([], 0b101001)
    assert masks.step(0b101000, ord("q")) == masks.step(0b101000, ord("p")) == ([3], 0b1)
    assert masks.step(0b101000, ord("z")) == ([], 0b1)


def test_subset_masks_slice_steps_each_group_alone():
    """A group's slice steps its part of any subset exactly as the whole
    model does, with the whole model's report ranks and classes."""
    import random

    from repro.engines.bitset import _group_bounds
    from repro.regex import compile_regex

    automaton = Automaton.union(
        [
            compile_regex("ab[cd]+", report_code=1),
            compile_regex("(b|cd)a", report_code=2),
            compile_regex("[a-d]{2}d", report_code=3),
        ]
    )
    lowered = Lowered(automaton)
    masks = SubsetMasks(lowered)
    bounds = _group_bounds(lowered.succ)
    assert len(bounds) == 3 and bounds[-1][1] == lowered.n
    slices = [masks.slice(lo, hi) for lo, hi in bounds]
    for part in slices:
        assert part.classes is masks.classes
        assert part.symbol_class is masks.symbol_class
    rng = random.Random(0)
    for _ in range(200):
        subset = rng.getrandbits(lowered.n) | masks.all_input
        symbol = rng.choice(b"abcdz")
        ranks, nxt = masks.step(subset, symbol)
        parts_ranks, parts_nxt = [], 0
        for (lo, hi), part in zip(bounds, slices):
            part_ranks, part_nxt = part.step((subset >> lo) & ((1 << (hi - lo)) - 1), symbol)
            parts_ranks += part_ranks
            parts_nxt |= part_nxt << lo
        assert sorted(parts_ranks) == sorted(ranks)
        assert parts_nxt == nxt
