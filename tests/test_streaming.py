"""Streaming execution tests: chunk boundaries must be invisible."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Automaton, CharSet, CounterMode, StartMode
from repro.engines import LazyDFAEngine, ReferenceEngine, VectorEngine
from repro.regex import compile_regex

ENGINES = [ReferenceEngine, VectorEngine, LazyDFAEngine]
COUNTER_ENGINES = [ReferenceEngine, VectorEngine]


def chunked_reports(engine, data, cuts, record_active=False):
    session = engine.stream(record_active=record_active)
    reports = []
    previous = 0
    for cut in sorted(cuts) + [len(data)]:
        cut = min(max(cut, previous), len(data))
        reports.extend(session.feed(data[previous:cut]))
        previous = cut
    return reports, session


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestChunkInvariance:
    def test_match_across_chunk_boundary(self, engine_cls):
        automaton = compile_regex("abcd", report_code="r")
        engine = engine_cls(automaton)
        session = engine.stream()
        assert session.feed(b"xxab") == []
        hits = session.feed(b"cdyy")
        assert [r.offset for r in hits] == [5]

    def test_anchored_only_matches_stream_start(self, engine_cls):
        automaton = compile_regex("^ab")
        engine = engine_cls(automaton)
        session = engine.stream()
        assert len(session.feed(b"ab")) == 1
        assert session.feed(b"ab") == []  # offset 2: not the stream start

    def test_offsets_are_stream_global(self, engine_cls):
        automaton = compile_regex("z")
        engine = engine_cls(automaton)
        session = engine.stream()
        session.feed(b"aaaa")
        assert [r.offset for r in session.feed(b"z")] == [4]
        assert session.offset == 5

    def test_active_recording_spans_chunks(self, engine_cls):
        automaton = compile_regex("ab")
        engine = engine_cls(automaton)
        reports, session = chunked_reports(engine, b"aabb", [2], record_active=True)
        assert len(session.active_per_cycle) == 4

    def test_empty_feeds_are_noops(self, engine_cls):
        automaton = compile_regex("ab")
        engine = engine_cls(automaton)
        session = engine.stream()
        assert session.feed(b"") == []
        session.feed(b"a")
        assert session.feed(b"") == []
        assert [r.offset for r in session.feed(b"b")] == [1]


@pytest.mark.parametrize("engine_cls", COUNTER_ENGINES)
class TestCounterStreaming:
    def test_counter_state_persists(self, engine_cls):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        a.add_counter("c", 3, mode=CounterMode.STOP, report=True, report_code="x")
        a.add_edge("s", "c")
        session = engine_cls(a).stream()
        assert session.feed(b"a") == []
        assert session.feed(b"a") == []
        assert [r.offset for r in session.feed(b"a")] == [2]


@settings(max_examples=80, deadline=None)
@given(
    pattern=st.sampled_from(["ab", "a+b", "[ab]{3}", "a.?b"]),
    data=st.binary(max_size=30).map(lambda raw: bytes(b"ab"[x % 2] for x in raw)),
    cuts=st.lists(st.integers(0, 30), max_size=4),
    engine_index=st.integers(0, 2),
)
def test_any_chunking_equals_run_property(pattern, data, cuts, engine_index):
    engine = ENGINES[engine_index](compile_regex(pattern))
    whole = engine.run(data).reports
    chunked, _ = chunked_reports(engine, data, cuts)
    assert sorted(chunked) == whole


class TestLazyDFAReportOrder:
    """The lazy DFA emits reports in ``(offset, ident)`` order by
    construction — each memoised emit tuple is sorted by ident — so its
    feed loop has no final sort.  Reporting STEs inserted in reverse
    lexical order would come out unsorted if a tuple were not."""

    @staticmethod
    def reverse_order_reporters() -> Automaton:
        a = Automaton("reverse")
        for ident in ["r9", "r7", "r5", "r3", "r1", "q"]:
            a.add_ste(ident, CharSet.from_chars("x"), start=StartMode.ALL_INPUT,
                      report=ident != "q", report_code=ident)
        # q -> r0 adds a reporter whose enablement depends on history
        a.add_ste("r0", CharSet.from_chars("x"), report=True, report_code="r0")
        a.add_edge("q", "r0")
        return a

    # 3000 symbols: crosses GUARD_BLOCK boundaries, so reports fire in
    # later scan blocks too.
    DATA = (b"xxyx" + b"yxxxyyx" * 428)[:3000]

    def test_run_reports_sorted_and_match_reference(self):
        automaton = self.reverse_order_reporters()
        expected = ReferenceEngine(automaton).run(self.DATA).reports
        engine = LazyDFAEngine(automaton)
        for _ in range(2):  # cold memo, then the warm engine
            reports = engine.run(self.DATA).reports
            assert reports == sorted(reports)
            assert reports == expected

    @pytest.mark.parametrize("cuts", [[1, 2, 3], [500, 1100, 2047], [2999]])
    def test_chunked_feed_sorted_and_matches_reference(self, cuts):
        automaton = self.reverse_order_reporters()
        expected = ReferenceEngine(automaton).run(self.DATA).reports
        engine = LazyDFAEngine(automaton)
        for _ in range(2):
            reports, _ = chunked_reports(engine, self.DATA, cuts)
            assert reports == sorted(reports)
            assert reports == expected
            assert [r.code for r in reports] == [r.code for r in expected]
