"""Unit tests for repro.core.automaton and repro.core.elements."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Automaton, CharSet, CounterElement, STE, StartMode
from repro.core.elements import CounterMode
from repro.engines.cache import automaton_fingerprint
from repro.errors import AutomatonError


def chain(name="chain", pattern="abc"):
    """Helper: a linear automaton matching ``pattern`` anchored at start."""
    a = Automaton(name)
    prev = None
    for i, ch in enumerate(pattern):
        start = StartMode.START_OF_DATA if i == 0 else StartMode.NONE
        report = i == len(pattern) - 1
        a.add_ste(f"s{i}", CharSet.from_chars(ch), start=start, report=report)
        if prev is not None:
            a.add_edge(prev, f"s{i}")
        prev = f"s{i}"
    return a


class TestConstruction:
    def test_add_and_count(self):
        a = chain()
        assert a.n_states == 3
        assert a.n_edges == 2

    def test_duplicate_id_rejected(self):
        a = Automaton()
        a.add_ste("x", CharSet.from_chars("a"))
        with pytest.raises(AutomatonError):
            a.add_ste("x", CharSet.from_chars("b"))

    def test_edge_requires_existing_nodes(self):
        a = Automaton()
        a.add_ste("x", CharSet.from_chars("a"))
        with pytest.raises(AutomatonError):
            a.add_edge("x", "missing")
        with pytest.raises(AutomatonError):
            a.add_edge("missing", "x")

    def test_duplicate_edges_deduplicated(self):
        a = Automaton()
        a.add_ste("x", CharSet.from_chars("a"))
        a.add_ste("y", CharSet.from_chars("b"))
        a.add_edge("x", "y")
        a.add_edge("x", "y")
        assert a.n_edges == 1

    def test_counter_target_validation(self):
        with pytest.raises(ValueError):
            CounterElement("c", 0)

    def test_add_counter(self):
        a = Automaton()
        a.add_ste("x", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        c = a.add_counter("c", 3, mode=CounterMode.ROLLOVER, report=True)
        a.add_edge("x", "c")
        assert c.target == 3
        assert list(a.counters()) == [c]

    def test_remove_element(self):
        a = chain()
        a.remove_element("s1")
        assert a.n_states == 2
        assert a.n_edges == 0
        with pytest.raises(AutomatonError):
            a.remove_element("s1")

    def test_getitem(self):
        a = chain()
        assert isinstance(a["s0"], STE)
        with pytest.raises(AutomatonError):
            a["nope"]


class TestStructure:
    def test_successors_predecessors(self):
        a = chain()
        assert a.successors("s0") == ["s1"]
        assert a.predecessors("s1") == ["s0"]
        assert a.in_degree("s0") == 0
        assert a.out_degree("s0") == 1

    def test_start_and_reporting(self):
        a = chain()
        assert [e.ident for e in a.start_elements()] == ["s0"]
        assert [e.ident for e in a.reporting_elements()] == ["s2"]

    def test_connected_components(self):
        a = Automaton.union([chain(pattern="ab"), chain(pattern="cd")])
        comps = a.connected_components()
        assert len(comps) == 2
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_validate_ok(self):
        chain().validate()

    def test_validate_unreachable_report(self):
        a = Automaton()
        a.add_ste("orphan", CharSet.from_chars("a"), report=True)
        with pytest.raises(AutomatonError, match="unreachable"):
            a.validate()

    def test_validate_counter_without_pred(self):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", 2)
        with pytest.raises(AutomatonError, match="no predecessors"):
            a.validate()

    def test_validate_empty_ok(self):
        Automaton().validate()

    def test_to_networkx(self):
        g = chain().to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 2
        assert isinstance(g.nodes["s0"]["element"], STE)


class TestComposition:
    def test_merge_prefixes_ids(self):
        a = chain(pattern="ab")
        b = chain(pattern="cd")
        a.merge(b, prefix="p.")
        assert "p.s0" in a
        assert a.n_states == 4

    def test_merge_id_clash(self):
        a = chain()
        with pytest.raises(AutomatonError):
            a.merge(chain())

    def test_clone_is_deep(self):
        a = chain()
        b = a.clone()
        b["s0"].report = True
        assert not a["s0"].report
        assert b.n_states == a.n_states

    def test_union_many(self):
        u = Automaton.union([chain(pattern="a") for _ in range(5)])
        assert u.n_states == 5
        assert len(u.connected_components()) == 5

    def test_union_preserves_semantics_metadata(self):
        u = Automaton.union([chain(pattern="ab")])
        starts = u.start_elements()
        assert len(starts) == 1
        assert starts[0].start is StartMode.START_OF_DATA


# One mutation step: (operation, two free integers used to pick operands).
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["edge", "remove", "add", "reset", "merge", "clone", "pickle"]),
        st.integers(0, 63),
        st.integers(0, 63),
    ),
    max_size=40,
)


def _recount(a: Automaton) -> int:
    return sum(len(a.successors(ident)) for ident in a.idents())


class TestEdgeCounter:
    """``n_edges`` is a maintained counter; it must always equal a recount,
    and the cached fingerprint must always equal a fresh one."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    def test_counter_and_fingerprint_follow_every_mutation(self, steps):
        a = chain(pattern="abcd")
        a.add_counter("k", 2, report=True)
        a.add_edge("s1", "k")
        fresh = 0
        for op, x, y in steps:
            automaton_fingerprint(a)  # stamp before every mutation
            idents = list(a.idents())
            if op == "edge" and idents:
                # x == y gives self-loops; repeats give duplicates
                a.add_edge(idents[x % len(idents)], idents[y % len(idents)])
            elif op == "remove" and idents:
                a.remove_element(idents[x % len(idents)])
            elif op == "add":
                fresh += 1
                a.add_ste(f"n{fresh}", CharSet.from_chars("abcd"[x % 4]))
            elif op == "reset":
                counters = [c.ident for c in a.counters()]
                if counters and idents:
                    a.add_reset_edge(idents[x % len(idents)], counters[y % len(counters)])
            elif op == "merge":
                fresh += 1
                other = chain(pattern="xy"[: 1 + x % 2])
                other.add_edge("s0", "s0")
                a.merge(other, prefix=f"m{fresh}.")
            elif op == "clone":
                a = a.clone()
            elif op == "pickle":
                a = pickle.loads(pickle.dumps(a))
            assert a.n_edges == _recount(a)
            assert automaton_fingerprint(a) == automaton_fingerprint(a, use_cache=False)
