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


@st.composite
def merged_automata(draw, with_counters=False):
    """2-4 independently drawn automata side by side, so the merge has
    several connected components; with counters, only some parts have
    them (the first always does)."""
    merged = Automaton("merged")
    for part in range(draw(st.integers(2, 4))):
        counters = with_counters and (part == 0 or draw(st.booleans()))
        merged.merge(
            draw(random_automata(max_states=6, with_counters=counters)),
            prefix=f"p{part}.",
        )
    return merged


def any_automata(with_counters=False):
    """One drawn automaton, or a merge of several."""
    return st.one_of(
        random_automata(with_counters=with_counters),
        merged_automata(with_counters=with_counters),
    )


inputs = st.binary(max_size=40).map(
    lambda raw: bytes(ALPHABET[b % len(ALPHABET)] for b in raw)
)


@settings(max_examples=150, deadline=None)
@given(automaton=any_automata(), data=inputs)
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
@given(automaton=any_automata(with_counters=True), data=inputs)
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
    automaton=any_automata(with_counters=True),
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
@given(automaton=any_automata(with_counters=True), data=inputs)
def test_bitset_walk_without_memo_room_agrees(automaton, data):
    """With no memo (automata with counters) or no room in it, every block
    runs the per-bit walk, however dense, and agrees with the reference
    engine: a memo walk the memo cannot enter becomes the per-bit walk."""
    from unittest import mock

    from repro.engines import bitset

    ref = ReferenceEngine(automaton).run(data, record_active=True)
    with mock.patch.object(bitset, "MEMO_CELLS", 0):
        engine = BitsetEngine(automaton)
    engine._memo_cutover = -1  # every block asks for the memo walk
    stream = engine.stream(record_active=True)
    if engine._memo is not None:
        stream._set_walk("memo")
    walks = [stream._walk]
    block = stream._block

    def spy(*args):
        block(*args)
        walks.append(stream._walk)

    stream._block = spy
    reports = stream.feed(data)
    assert set(walks) == {"bit"}
    assert reports == ref.reports
    assert stream.active_per_cycle == ref.active_per_cycle


@settings(max_examples=100, deadline=None)
@given(automaton=any_automata(), data=inputs, chunk=st.integers(1, 7))
def test_bitset_memo_walk_agrees(automaton, data, chunk):
    """The memo walk, the dense walk of counter-free automata, agrees
    with the reference engine across chunked feeds: first on a cold memo
    without ``record_active``, then on the warm memo with it."""
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    engine = BitsetEngine(automaton)
    engine._memo_cutover = -1  # every block stays on the memo walk
    for record_active in (False, True):
        stream = engine.stream(record_active=record_active)
        stream._set_walk("memo")
        batches = []
        for i in range(0, len(data), chunk):
            batches.append(stream.feed(data[i : i + chunk]))
            assert stream._walk == "memo"
        assert ReportBatch.concat(batches) == ref.reports
        assert stream.offset == ref.cycles
    assert stream.active_per_cycle == ref.active_per_cycle


def _matched_per_walk(stream):
    """Spy on ``stream``'s walks; the returned list sums the matched
    non-start states each walk reports."""
    total = [0]
    memo_scan, mask_scan = stream._memo_scan, stream._mask_scan

    def memo_spy(*args):
        pos, matched = memo_scan(*args)
        total[0] += matched
        return pos, matched

    def mask_spy(*args):
        matched = mask_scan(*args)
        total[0] += matched
        return matched

    stream._memo_scan, stream._mask_scan = memo_spy, mask_spy
    return total


@settings(max_examples=150, deadline=None)
@given(
    automaton=any_automata(),
    data=inputs,
    repeat=st.integers(1, 40),
    chunk=st.sampled_from([1, 2, 3, 7, 511, 513, 4096]),
    record_active=st.booleans(),
    room=st.floats(0, 1),
)
def test_bitset_memo_walk_edges(automaton, data, repeat, chunk, record_active, room):
    """The memo walk at its edges agrees with the reference engine: 1-symbol
    and odd-length chunks across block boundaries, ``record_active`` on and
    off, and a :data:`MEMO_CELLS` cap anywhere from too small to enter to
    just enough, so the walk trips at any symbol of a block and finishes
    it on the per-bit walk, where the stream stays.  Every walk sums the
    same matched count as the per-bit walk alone."""
    from unittest import mock

    from repro.engines import bitset

    data *= repeat
    ref = ReferenceEngine(automaton).run(data, record_active=True)
    sparse = BitsetEngine(automaton)
    sparse._memo_cutover = float("inf")
    stream = sparse.stream()
    per_bit = _matched_per_walk(stream)
    stream.feed(data)
    assert stream._walk == "bit"

    grown = BitsetEngine(automaton)
    grown._memo_cutover = -1
    stream = grown.stream()
    stream._set_walk("memo")
    stream.feed(data)
    needed = grown._memo.cells()[0]  # every cell the whole input reaches
    classes = len(grown._memo.masks.classes)
    groups = len(grown._memo.bounds)
    cap = classes * int(groups + room * (needed // classes - groups))
    with mock.patch.object(bitset, "MEMO_CELLS", cap):
        engine = BitsetEngine(automaton)
        engine._memo_cutover = -1
        stream = engine.stream(record_active=record_active)
        matched = _matched_per_walk(stream)
        stream._set_walk("memo")
        batches = [stream.feed(data[i : i + chunk]) for i in range(0, len(data), chunk)]
    assert engine._memo.full == (cap < needed)
    assert engine._memo.cells()[0] <= cap
    assert stream._walk == ("memo" if cap >= needed else "bit")
    assert ReportBatch.concat(batches) == ref.reports
    assert stream.offset == ref.cycles
    if record_active:
        assert stream.active_per_cycle == ref.active_per_cycle
    assert matched == per_bit


def _dense_mesh(counter: bool) -> Automaton:
    """16 states, 15 of them matching every ``a`` once started; with
    ``counter``, one feeds a counter that never fires on the inputs here
    (it only keeps the automaton off the memo walk)."""
    a = Automaton("dense")
    a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
    n_dense = 15
    for i in range(n_dense):
        a.add_ste(f"d{i}", CharSet.from_chars("a"), report=(i == 0), report_code=i)
        a.add_edge("s0", f"d{i}")
    for i in range(n_dense):
        for j in range(n_dense):
            a.add_edge(f"d{i}", f"d{j}")
    if counter:
        a.add_counter("c", 10_000)
        a.add_edge("d1", "c")
    return a


def test_bitset_density_heuristic_switches_paths():
    """A dense always-matching mesh pushes the stream onto the memo walk,
    and a dead stretch of input drops it back to the per-bit walk; with a
    counter the mesh has no memo and stays on the per-bit walk.  Reports
    and active-set counts agree with the reference engine across both
    switches, whether they fall between feeds or inside one."""
    data = b"a" * 600 + b"b" * 600 + b"a" * 10
    for counter in (False, True):
        a = _dense_mesh(counter)
        ref = ReferenceEngine(a).run(data, record_active=True)
        engine = BitsetEngine(a)
        assert (engine._memo is None) == counter
        stream = engine.stream(record_active=True)
        assert stream._walk == "bit"
        batches = [stream.feed(b"a" * 600)]
        # Dense stretch: the matched count is far above the memo cutover.
        assert stream._walk == ("bit" if counter else "memo")
        batches.append(stream.feed(b"b" * 600))
        assert stream._walk == "bit"  # dead stretch: back to the sparse path
        batches.append(stream.feed(b"a" * 10))
        assert ReportBatch.concat(batches) == ref.reports
        assert stream.active_per_cycle == ref.active_per_cycle
        _check_walk_switches(a, data, ref, "bit" if counter else "memo")


def _check_walk_switches(a: Automaton, data: bytes, ref, dense_walk: str) -> None:
    """One feed: the first 512-symbol block runs 16 symbols per-bit and
    the rest on ``dense_walk``, the second block on ``dense_walk``, the
    third per-bit.  Only the memo walk fills memo cells, which shows the
    walk each stretch really took."""
    engine = BitsetEngine(a)
    stream = engine.stream(record_active=True)
    walks = []
    scan = stream._block
    memo = engine._memo

    def filled():
        return 0 if memo is None else memo.cells()[1]

    def spy(*args):
        walk = stream._walk
        before = filled()
        scan(*args)
        walks.append((walk, filled() > before))

    stream._block = spy
    assert stream.feed(data) == ref.reports
    assert walks[:2] == [("bit", False), (dense_walk, dense_walk == "memo")]
    assert walks[2][0] == dense_walk and walks[3:] == [("bit", False)]
    assert stream._walk == "bit"
    assert stream.active_per_cycle == ref.active_per_cycle
    # Every stream picks its own walk: a new one starts per-bit, whatever
    # the walk other streams of the engine are on.
    dense_stream = engine.stream()
    dense_stream.feed(b"a" * 100)
    assert dense_stream._walk == dense_walk
    assert engine.stream()._walk == "bit"


def _dna_mesh(halves=("Hamming 18x3", "Levenshtein 19x3"), seed=3):
    """The Hamming and Levenshtein filter meshes merged, as the benchmark
    streams them (scale 0.01), and a 4,000-symbol DNA read."""
    from repro.benchmarks.registry import build_benchmark
    from repro.inputs.dna import random_dna

    mesh = Automaton("dna-mesh")
    for prefix, name in zip(("h.", "l."), halves):
        mesh.merge(build_benchmark(name, scale=0.01, seed=seed).automaton, prefix=prefix)
    return mesh, random_dna(4_000, seed=seed)


def test_bitset_memo_walk_cutover():
    """The cutover into the memo walk counts groups: the 300-rule Snort
    automaton (about 180 components, under one matched state per symbol)
    never enters it, and the DNA mesh (20 components, about 140 matched
    states per symbol) enters it after its first 16 symbols and agrees
    with the reference engine there.  Walks do not flip-flop: five DNA
    motifs hovering at 3-5 matched states per symbol (5 components, the
    two walks about as fast) stay per-bit, and the mesh stays on the
    memo walk once there."""
    from repro.benchmarks.snort import build_snort_automaton
    from repro.inputs.pcap import synthetic_packets
    from repro.snort.ruleset_gen import generate_ruleset

    snort, _, _ = build_snort_automaton(generate_ruleset(300, seed=1))
    engine = BitsetEngine(snort)
    assert len(engine._memo.bounds) > 150
    packets = synthetic_packets(256, seed=1)
    stream = engine.stream()
    for packet in packets:
        engine.run(packet)
        stream.feed(packet)
    assert stream._walk == "bit"
    assert not engine._memo.subsets  # the memo walk was never entered

    mesh, read = _dna_mesh()
    engine = BitsetEngine(mesh)
    assert len(engine._memo.bounds) == 20
    stream = engine.stream()
    walks = []
    for i in range(0, len(read), 160):
        walks.append(stream._walk)
        stream.feed(read[i : i + 160])
    assert walks == ["bit"] + ["memo"] * 24
    later = engine.stream()
    assert later._walk == "bit"  # each stream picks its own walk
    later.feed(read[:17])
    assert later._walk == "memo"
    window = read[:1_000]
    assert engine.run(window).reports == ReferenceEngine(mesh).run(window).reports

    from repro.inputs.dna import random_dna
    from repro.regex import compile_regex

    motifs = Automaton.union(
        compile_regex(pattern, report_code=i)
        for i, pattern in enumerate(
            [
                "A[ACGT]{5}C[AG]",
                "G[AT]{2}[ACGT]{4}TT",
                "CC[ACGT]{6}GA",
                "T[CG][ACGT]{3}AC",
                "[AC]{3}[ACGT]{4}GGT",
            ]
        )
    )
    engine = BitsetEngine(motifs)
    assert len(engine._memo.bounds) == 5
    for seed in (1, 2, 5):
        read = random_dna(6_000, seed=seed)
        stream = engine.stream()
        walks = set()
        for i in range(0, len(read), 160):
            stream.feed(read[i : i + 160])
            walks.add(stream._walk)
        assert walks == {"bit"}


def test_bitset_memo_cap_falls_back_to_bit_walk(monkeypatch):
    """At the memo cap, the stream finishes the block on the per-bit walk
    and stays there; reports and active counts equal those of the per-bit
    walk alone, and no scan raises over a memo budget."""
    from repro.engines import bitset
    from repro.resilience.guards import ScanBudget, ScanGuard, guard_scope

    mesh, read = _dna_mesh()
    expected = BitsetEngine(mesh)
    expected._memo_cutover = float("inf")  # per-bit walk only
    expected = expected.run(read, record_active=True)
    grown = BitsetEngine(mesh)
    grown.run(read)
    cells = grown._memo.cells()[0]
    monkeypatch.setattr(bitset, "MEMO_CELLS", cells // 2)
    engine = BitsetEngine(mesh)
    stream = engine.stream(record_active=True)
    walks = []  # (walk at block start, walk of its per-bit part)
    scan, mask_scan = stream._scan, stream._mask_scan

    def spy(*args):
        walks.append([stream._walk, None])
        scan(*args)

    def mask_spy(*args):
        walks[-1][1] = stream._walk
        return mask_scan(*args)

    stream._scan, stream._mask_scan = spy, mask_spy
    with guard_scope(ScanGuard(ScanBudget(memo_bytes=1))):
        reports = stream.feed(read)
    assert engine._memo.full
    assert engine._memo.cells()[0] <= cells // 2
    trip = walks.index(["memo", "bit"])  # entered, then tripped mid-block
    assert walks[:trip] == [["bit", "bit"]] + [["memo", None]] * (trip - 1)
    assert walks[trip + 1 :] == [["bit", "bit"]] * (len(walks) - trip - 1)
    assert reports == expected.reports
    assert stream.active_per_cycle == expected.active_per_cycle
    # Streams in flight keep their states; new ones never enter the walk.
    stream = engine.stream()
    assert stream.feed(read).offsets == expected.reports.offsets
    assert stream._walk == "bit"


@settings(max_examples=50, deadline=None)
@given(automaton=random_automata(), data=inputs, split=st.integers(0, 40))
def test_dfa_memoisation_is_input_independent(automaton, data, split):
    """Running other inputs first must not change results (memo soundness).

    Also pins the shared tables the lock-free scan loop reads: one table
    per alphabet class (symbols that every STE matches alike), each with a
    slot per state; a filled cell is in ``rows`` or in ``emits``, never
    both; every emitted cell reports, and every next id is interned."""
    split = min(split, len(data))
    eng = LazyDFAEngine(automaton)
    eng.run(data[split:])  # warm the memo with a different stream
    eng.run(b"z" + data[:split])  # and touch the class of unused symbols
    fresh = LazyDFAEngine(automaton).run(data)
    assert eng.run(data).reports == fresh.reports
    columns = {
        tuple(ste.charset.matches(symbol) for ste in automaton.stes())
        for symbol in range(256)
    }
    memo = eng._memo
    states = eng.dfa_state_count
    assert len(memo.rows) == len(memo.emits) == len(columns)
    for row, emits in zip(memo.rows, memo.emits):
        assert len(row) == states
        for sid, nid in enumerate(row):
            if nid is not None:
                assert sid not in emits
                assert 0 <= nid < states
        for sid, (nid, group) in emits.items():
            assert row[sid] is None
            assert group
            assert 0 <= nid < states
