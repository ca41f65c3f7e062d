"""Engine compile cache: fingerprint identity, LRU behaviour, fallback."""

import pickle

import pytest

from repro.core import Automaton, CharSet, StartMode
from repro.regex import compile_regex
from repro.engines import (
    BitsetEngine,
    ReferenceEngine,
    VectorEngine,
    auto_engine,
    automaton_fingerprint,
    clear_engine_cache,
    compiled_engine,
    engine_cache_info,
    set_engine_cache_limit,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_engine_cache()
    set_engine_cache_limit(32)
    yield
    clear_engine_cache()
    set_engine_cache_limit(32)


def literal(pattern: str = "ab", name: str = "t") -> Automaton:
    a = Automaton(name)
    prev = None
    for i, ch in enumerate(pattern):
        start = StartMode.ALL_INPUT if i == 0 else StartMode.NONE
        a.add_ste(f"s{i}", CharSet.from_chars(ch), start=start,
                  report=i == len(pattern) - 1)
        if prev is not None:
            a.add_edge(prev, f"s{i}")
        prev = f"s{i}"
    return a


class TestFingerprint:
    def test_stable_across_object_identity(self):
        assert automaton_fingerprint(literal()) == automaton_fingerprint(literal())

    def test_stable_across_pickling(self):
        a = literal()
        b = pickle.loads(pickle.dumps(a))
        assert automaton_fingerprint(a) == automaton_fingerprint(b)

    def test_sensitive_to_charset(self):
        a = literal("ab")
        b = literal("ac")
        assert automaton_fingerprint(a) != automaton_fingerprint(b)

    def test_sensitive_to_edges(self):
        a = literal("ab")
        b = literal("ab")
        b.add_edge("s1", "s0")
        assert automaton_fingerprint(a) != automaton_fingerprint(b)

    def test_sensitive_to_report_flag(self):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        b = Automaton()
        b.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT,
                  report=True)
        assert automaton_fingerprint(a) != automaton_fingerprint(b)

    def test_stamp_reused(self):
        a = literal()
        first = automaton_fingerprint(a)
        assert a._repro_fingerprint[1] == first
        assert automaton_fingerprint(a) == first


class TestCompiledEngine:
    def test_same_object_returned(self):
        a = literal()
        assert compiled_engine(a, BitsetEngine) is compiled_engine(a, BitsetEngine)

    def test_shared_across_structural_copies(self):
        a = literal()
        b = pickle.loads(pickle.dumps(a))
        assert compiled_engine(a, BitsetEngine) is compiled_engine(b, BitsetEngine)

    def test_engine_class_part_of_key(self):
        a = literal()
        vec = compiled_engine(a, VectorEngine)
        bit = compiled_engine(a, BitsetEngine)
        assert type(vec) is VectorEngine and type(bit) is BitsetEngine

    def test_options_part_of_key(self):
        a = literal()
        e1 = compiled_engine(a, BitsetEngine, max_states=100)
        e2 = compiled_engine(a, BitsetEngine, max_states=200)
        assert e1 is not e2

    def test_hit_miss_accounting(self):
        a = literal()
        compiled_engine(a, BitsetEngine)
        compiled_engine(a, BitsetEngine)
        info = engine_cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)

    def test_lru_bound(self):
        # the fingerprint is structural, so distinct charsets = distinct keys
        set_engine_cache_limit(2)
        engines = [
            compiled_engine(literal(pattern), ReferenceEngine)
            for pattern in ("ab", "ac", "ad", "ae")
        ]
        assert engine_cache_info().size == 2
        # oldest entry was evicted: recompiling it is a fresh object
        assert compiled_engine(literal("ab"), ReferenceEngine) is not engines[0]

    def test_clear(self):
        compiled_engine(literal(), BitsetEngine)
        clear_engine_cache()
        info = engine_cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            set_engine_cache_limit(0)

    def test_cached_engine_produces_correct_results(self):
        a = literal("ab")
        eng = compiled_engine(a, BitsetEngine)
        assert [r.offset for r in eng.run(b"xxabyab").reports] == [3, 6]


def dna_patterns() -> Automaton:
    """Five DNA patterns with wildcard runs: five components that keep a
    few states each matched on random DNA, and report often."""
    patterns = [
        "A[ACGT]{5}C[AG]",
        "G[AT]{2}[ACGT]{4}TT",
        "CC[ACGT]{6}GA",
        "T[CG][ACGT]{3}AC",
        "[AC]{3}[ACGT]{4}GGT",
    ]
    return Automaton.union(
        compile_regex(pattern, report_code=i) for i, pattern in enumerate(patterns)
    )


class TestSharedEngineThreadSafety:
    def test_lazydfa_hammer_from_many_threads(self):
        """Regression: one cached LazyDFAEngine hammered by many threads.

        The lazy DFA grows its memo while scanning; before the engine grew
        its own lock this corrupted shared state under contention — threads
        saw transitions without their emits.  The pattern forces a large
        subset space so memoisation and scanning genuinely interleave.
        """
        import random
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.engines import LazyDFAEngine

        from repro.regex import compile_regex

        automaton = compile_regex("a[ab]{10}b", report_code="r")
        rng = random.Random(7)
        data = bytes(rng.choice(b"ab") for _ in range(6_000))
        expected = {
            (r.offset, repr(r.code))
            for r in LazyDFAEngine(automaton).run(data).reports
        }
        assert expected  # the input actually exercises the reporting path

        engine = compiled_engine(automaton, LazyDFAEngine)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(engine.run, data) for _ in range(16)]
                results = [f.result() for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        for result in results:
            got = {(r.offset, repr(r.code)) for r in result.reports}
            assert got == expected

    def test_bitset_memo_walk_hammer_from_many_threads(self):
        """One cached BitsetEngine scanned by many threads at once, most
        of the time on the memo walk: the threads grow one shared memo of
        per-group states and cells while others read it lock-free, with
        and without ``record_active``."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.inputs.dna import random_dna

        automaton = dna_patterns()
        data = random_dna(3_000, seed=5)
        expected = VectorEngine(automaton).run(data, record_active=True)
        assert expected.reports  # the input exercises the reporting cells

        engine = compiled_engine(automaton, BitsetEngine)
        engine._memo_cutover = -1  # a stream on the memo walk stays on it

        def scan(record_active):
            stream = engine.stream(record_active=record_active)
            stream._set_walk("memo")
            return stream.feed(data), stream.active_per_cycle

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(scan, bool(i % 2)) for i in range(16)]
                results = [f.result() for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        assert engine._memo.subsets and not engine._memo.full
        for i, (reports, active) in enumerate(results):
            assert reports == expected.reports
            if i % 2:
                assert active == expected.active_per_cycle

    @staticmethod
    def _assert_memo_publishes_cell_last(engine, automaton, data):
        """The lock-free readers of a ``SubsetMemo``, the lazy DFA's scan
        loop and the bitset memo walk, trust a published next id to mean
        the cell's matched count is stored, and read a reporting cell's
        next id together with its report group.  So every row or emits
        write must follow the cell's matched-count write, no reporting cell
        may ever get a row, and each cell must be written once."""
        memo = engine._memo
        events = []

        class Checked(list):
            """One class's row or matched-count table, logging its writes."""

            def __init__(self, kind, c, table):
                super().__init__(table)
                self.kind, self.c = kind, c

            def __setitem__(self, sid, value):
                events.append((self.kind, self.c, sid))
                super().__setitem__(sid, value)

        class CheckedEmits(dict):
            """One class's emits table, logging its writes."""

            def __init__(self, c, table):
                super().__init__(table)
                self.c = c

            def __setitem__(self, sid, value):
                events.append(("emit", self.c, sid))
                super().__setitem__(sid, value)

        memo.rows = [Checked("row", c, row) for c, row in enumerate(memo.rows)]
        memo.matched = [Checked("matched", c, m) for c, m in enumerate(memo.matched)]
        memo.emits = [CheckedEmits(c, e) for c, e in enumerate(memo.emits)]
        stream = engine.stream()
        if isinstance(engine, BitsetEngine):
            engine._memo_cutover = -1
            stream._set_walk("memo")
        assert stream.feed(data) == VectorEngine(automaton).run(data).reports
        stored, published = set(), set()
        for kind, c, sid in events:
            if kind == "matched":
                assert (c, sid) not in stored
                stored.add((c, sid))
            else:
                assert (c, sid) in stored
                assert (c, sid) not in published
                published.add((c, sid))
                if kind == "row":
                    assert sid not in memo.emits[c]
        _, filled, reporting = memo.cells()
        assert reporting and filled == len(published) == len(stored)

    def test_bitset_memo_publishes_cell_before_transition(self):
        """The bitset memo walk stores a cell's matched count before it
        publishes the cell's next id or report group."""
        from repro.inputs.dna import random_dna

        dna = dna_patterns()
        self._assert_memo_publishes_cell_last(
            BitsetEngine(dna), dna, random_dna(2_000, seed=5)
        )

    def test_lazydfa_sets_emit_bit_before_publishing_transition(self):
        """The lazy DFA stores a cell's matched count before it publishes
        the cell's next id or emits entry, the shared memo's form of its
        old emit bit."""
        import random

        from repro.engines import LazyDFAEngine

        rng = random.Random(3)
        regex = compile_regex("a[ab]{3}b", report_code="r")
        data = bytes(rng.choice(b"abc") for _ in range(2_000))
        self._assert_memo_publishes_cell_last(LazyDFAEngine(regex), regex, data)


class TestAutoEngine:
    def test_picks_bitset_when_small(self):
        assert type(auto_engine(literal())) is BitsetEngine

    def test_falls_back_to_vector_over_cap(self):
        eng = auto_engine(literal(), max_states=1)
        assert type(eng) is VectorEngine


class TestTypeRevalidation:
    """The degraded-engine cache rule (docs/RESILIENCE.md).

    A fallback ladder compiles each rung under its own class key, so a
    type-confused entry should be impossible — but if one ever appears
    (a bug, or surgery on cache internals), the hit path must evict and
    recompile rather than hand the wrong engine type to every future
    caller of the original key.
    """

    def test_wrong_type_entry_evicted_and_recompiled(self):
        from repro.engines import cache as cache_module

        automaton = literal()
        compiled_engine(automaton, BitsetEngine)
        (key,) = cache_module._cache.keys()
        cache_module._cache[key] = VectorEngine(automaton)  # poison the entry

        engine = compiled_engine(automaton, BitsetEngine)
        assert type(engine) is BitsetEngine
        # and the repaired entry is now served as a normal hit
        assert compiled_engine(automaton, BitsetEngine) is engine

    def test_fallback_caches_each_rung_under_own_key(self):
        from repro.engines.lazydfa import LazyDFAEngine
        from repro.resilience import FaultPlan, inject_faults, resilient_scan

        automaton = literal("abc")
        with inject_faults(FaultPlan(fail_engines=frozenset({"bitset"}))):
            outcome = resilient_scan(automaton, b"xxabcxx", ladder=("bitset", "vector"))
        assert outcome.engine == "vector"
        # the degraded run never cached a vector engine under bitset's key
        assert type(compiled_engine(automaton, BitsetEngine)) is BitsetEngine
        assert type(compiled_engine(automaton, VectorEngine)) is VectorEngine
        assert type(compiled_engine(automaton, LazyDFAEngine)) is LazyDFAEngine


class TestGenerationRevalidation:
    """The fingerprint stamp follows the automaton's mutation generation,
    so edits that keep ``(n_states, n_edges)`` unchanged still miss: reset
    wires are not edges, and an element replaced by a different one keeps
    both counts."""

    @staticmethod
    def counter_with_reset_source() -> Automaton:
        a = Automaton("reset")
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", 2, report=True)
        a.add_edge("s", "c")
        a.add_ste("r", CharSet.from_chars("b"), start=StartMode.ALL_INPUT)
        return a

    @pytest.mark.parametrize("engine_cls", [VectorEngine, BitsetEngine])
    def test_add_reset_edge_invalidates_cached_engine(self, engine_cls):
        a = self.counter_with_reset_source()
        before = compiled_engine(a, engine_cls)
        assert [r.offset for r in before.run(b"aba").reports] == [2]

        a.add_reset_edge("r", "c")
        engine = compiled_engine(a, engine_cls)
        reference = ReferenceEngine(a)
        for data, expected in ((b"aba", []), (b"abaa", [3])):
            assert [r.offset for r in reference.run(data).reports] == expected
            assert [r.offset for r in engine.run(data).reports] == expected

    def test_count_preserving_replacement_changes_fingerprint(self):
        a = literal("ab")
        first = automaton_fingerprint(a)
        a.remove_element("s1")
        a.add_ste("s1", CharSet.from_chars("z"), report=True)
        a.add_edge("s0", "s1")
        assert (a.n_states, a.n_edges) == (2, 1)
        assert automaton_fingerprint(a) != first
        assert automaton_fingerprint(a) == automaton_fingerprint(a, use_cache=False)

    def test_duplicate_wires_keep_the_stamp(self):
        a = self.counter_with_reset_source()
        a.add_reset_edge("r", "c")
        automaton_fingerprint(a)
        generation = a.generation
        a.add_edge("s", "c")
        a.add_reset_edge("r", "c")
        assert a.generation == generation
        assert a._repro_fingerprint[0] == generation
