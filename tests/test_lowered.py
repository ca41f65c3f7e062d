"""The lowered (index) form that vector, bitset, lazy DFA, DFA and stride share."""

from repro.core import Automaton, CharSet, CounterMode, StartMode
from repro.engines import BitsetEngine, ReferenceEngine, VectorEngine
from repro.engines.lowered import Lowered


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
