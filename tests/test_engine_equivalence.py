"""Property-based cross-engine equivalence.

The CPU engines implement one execution model; hypothesis generates
random automata and random inputs and asserts identical report streams and
active-set traces.  This is the library's central correctness invariant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Automaton, CharSet, CounterMode, StartMode
from repro.engines import (
    BitsetEngine,
    LazyDFAEngine,
    ReferenceEngine,
    ReportBatch,
    VectorEngine,
)

ALPHABET = b"abcd"


@st.composite
def random_automata(draw, max_states=8, with_counters=False):
    n = draw(st.integers(1, max_states))
    a = Automaton("random")
    for i in range(n):
        symbols = draw(
            st.frozensets(st.sampled_from(list(ALPHABET)), min_size=0, max_size=4)
        )
        start = draw(
            st.sampled_from(
                [StartMode.NONE, StartMode.START_OF_DATA, StartMode.ALL_INPUT]
            )
        )
        report = draw(st.booleans())
        a.add_ste(f"s{i}", CharSet(symbols), start=start, report=report, report_code=i)
    n_edges = draw(st.integers(0, 2 * n))
    for _ in range(n_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        a.add_edge(f"s{src}", f"s{dst}")
    if with_counters:
        n_counters = draw(st.integers(1, 2))
        for c in range(n_counters):
            mode = draw(st.sampled_from(list(CounterMode)))
            target = draw(st.integers(1, 4))
            report = draw(st.booleans())
            a.add_counter(f"c{c}", target, mode=mode, report=report, report_code=f"c{c}")
            feeders = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            for f in feeders:
                a.add_edge(f"s{f}", f"c{c}")
            enables = draw(st.sets(st.integers(0, n - 1), max_size=2))
            for e in enables:
                a.add_edge(f"c{c}", f"s{e}")
    return a


inputs = st.binary(max_size=40).map(
    lambda raw: bytes(ALPHABET[b % len(ALPHABET)] for b in raw)
)


@settings(max_examples=150, deadline=None)
@given(automaton=random_automata(), data=inputs)
def test_engines_agree(automaton, data):
    results = [
        engine_cls(automaton).run(data, record_active=True)
        for engine_cls in (ReferenceEngine, VectorEngine, BitsetEngine, LazyDFAEngine)
    ]
    baseline = results[0]
    for other in results[1:]:
        assert other.reports == baseline.reports
        assert other.cycles == baseline.cycles
        assert other.active_per_cycle == baseline.active_per_cycle


@settings(max_examples=100, deadline=None)
@given(automaton=random_automata(with_counters=True), data=inputs)
def test_counter_engines_agree(automaton, data):
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    for engine_cls in (VectorEngine, BitsetEngine):
        other = engine_cls(automaton).run(data, record_active=True)
        assert other.reports == ref.reports
        assert other.active_per_cycle == ref.active_per_cycle


@settings(max_examples=50, deadline=None)
@given(automaton=random_automata(), data=inputs)
def test_runs_are_deterministic(automaton, data):
    eng = VectorEngine(automaton)
    assert eng.run(data).reports == eng.run(data).reports


@settings(max_examples=100, deadline=None)
@given(
    automaton=random_automata(with_counters=True),
    data=inputs,
    chunk=st.integers(1, 7),
)
def test_bitset_streaming_chunks_agree(automaton, data, chunk):
    """feed() boundaries are invisible: anchors, counters and the enabled
    set must carry across chunks exactly as in a single run."""
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    stream = BitsetEngine(automaton).stream(record_active=True)
    reports = []
    for i in range(0, len(data), chunk):
        reports.extend(stream.feed(data[i : i + chunk]))
    reports.sort()
    assert reports == ref.reports
    assert stream.offset == ref.cycles
    assert stream.active_per_cycle == ref.active_per_cycle


@settings(max_examples=100, deadline=None)
@given(automaton=random_automata(with_counters=True), data=inputs)
def test_bitset_block_path_agrees(automaton, data):
    """The byte-word block path is semantically identical to the sparse
    path (the density heuristic may only affect speed, never results)."""
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    stream = BitsetEngine(automaton).stream(record_active=True)
    stream._use_block = True
    reports = stream.feed(data)
    assert reports == ref.reports
    assert stream.active_per_cycle == ref.active_per_cycle


def test_bitset_density_heuristic_switches_paths():
    """A dense always-matching mesh pushes the stream onto the per-byte
    (block) walk; a dead stretch of input drops it back to the per-bit
    walk.  Reports and active-set counts agree with the reference engine
    across both switches, whether they fall between feeds or inside one."""
    a = Automaton("dense")
    a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
    n_dense = 15
    for i in range(n_dense):
        a.add_ste(f"d{i}", CharSet.from_chars("a"), report=(i == 0), report_code=i)
        a.add_edge("s0", f"d{i}")
    for i in range(n_dense):
        for j in range(n_dense):
            a.add_edge(f"d{i}", f"d{j}")
    data = b"a" * 600 + b"b" * 600 + b"a" * 10
    ref = ReferenceEngine(a).run(data, record_active=True)
    stream = BitsetEngine(a).stream(record_active=True)
    assert not stream._use_block
    batches = [stream.feed(b"a" * 600)]
    assert stream._use_block  # dense stretch: matched count >> cutover
    batches.append(stream.feed(b"b" * 600))
    assert not stream._use_block  # dead stretch: back to the sparse path
    batches.append(stream.feed(b"a" * 10))
    assert ReportBatch.concat(batches) == ref.reports
    assert stream.active_per_cycle == ref.active_per_cycle

    # One feed: the 512-symbol chunks run per-bit, per-byte, per-bit.  Only
    # the per-byte walk fills the engine's memoised byte table, which shows
    # the walk each chunk really took.
    engine = BitsetEngine(a)
    stream = engine.stream(record_active=True)
    walks = []
    scan = stream._scan

    def spy(*args):
        block = stream._use_block
        lut_before = len(engine._block_lut)
        scan(*args)
        walks.append((block, len(engine._block_lut) > lut_before))

    stream._scan = spy
    assert stream.feed(data) == ref.reports
    assert walks == [(False, False), (True, True), (False, False)]
    assert not stream._use_block
    assert stream.active_per_cycle == ref.active_per_cycle


@settings(max_examples=50, deadline=None)
@given(automaton=random_automata(), data=inputs, split=st.integers(0, 40))
def test_dfa_memoisation_is_input_independent(automaton, data, split):
    """Running other inputs first must not change results (memo soundness).

    Also pins the invariant the lock-free scan loop relies on: a state's
    has-emit bits name exactly its memoised emit entries, and each of those
    symbols' transitions is published.  And one compute fills a whole
    alphabet class: symbols that every STE matches alike share their
    transition (all -1 or one id) and their emit entry in every row."""
    split = min(split, len(data))
    eng = LazyDFAEngine(automaton)
    eng.run(data[split:])  # warm the memo with a different stream
    eng.run(b"z" + data[:split])  # and touch the class of unused symbols
    fresh = LazyDFAEngine(automaton).run(data)
    assert eng.run(data).reports == fresh.reports
    classes: dict[tuple[bool, ...], list[int]] = {}
    stes = list(automaton.stes())
    for symbol in range(256):
        column = tuple(ste.charset.matches(symbol) for ste in stes)
        classes.setdefault(column, []).append(symbol)
    for sid in range(eng.dfa_state_count):
        bits = eng._emit_bits[sid]
        emit_symbols = {symbol for symbol in range(256) if (bits >> symbol) & 1}
        assert emit_symbols == set(eng._emits[sid])
        assert all(eng._trans[sid][symbol] >= 0 for symbol in emit_symbols)
        for symbols in classes.values():
            assert len({eng._trans[sid][symbol] for symbol in symbols}) == 1
            assert len({eng._emits[sid].get(symbol) for symbol in symbols}) == 1
