"""ReportBatch: the columnar report container every engine returns."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.snort import build_snort_automaton
from repro.conformance import random_case
from repro.core import Automaton, CharSet, StartMode
from repro.engines import (
    BitsetEngine,
    LazyDFAEngine,
    PrefilterScanner,
    ReferenceEngine,
    ReportBatch,
    ReportEvent,
    RunResult,
    VectorEngine,
    split_with_overlap,
)
from repro.errors import EngineError
from repro.inputs.pcap import synthetic_packets
from repro.resilience.ladder import resilient_scan
from repro.snort import generate_ruleset

ENGINES = (ReferenceEngine, VectorEngine, BitsetEngine, LazyDFAEngine)


def rows(events):
    """Reports as comparable rows, codes included."""
    return [(e.offset, e.ident, repr(e.code)) for e in events]


@pytest.fixture(scope="module")
def snort_automaton():
    """The Snort-lite ruleset the ids_packets benchmark scans."""
    automaton, _, _ = build_snort_automaton(generate_ruleset(300, seed=11))
    return automaton


def assert_well_formed(batch):
    assert isinstance(batch, ReportBatch)
    assert len(batch.offsets) == len(batch.groups)
    assert all(a < b for a, b in zip(batch.offsets, batch.offsets[1:]))
    for group in batch.groups:
        assert group
        idents = [ident for ident, _code in group]
        assert idents == sorted(idents)


class TestZeroObjects:
    def test_warm_lazydfa_scan_builds_no_report_events(
        self, snort_automaton, monkeypatch
    ):
        packets = synthetic_packets(64, seed=5)
        counts = [
            resilient_scan(snort_automaton, packet).result.report_count
            for packet in packets
        ]
        packet = packets[counts.index(max(counts))]
        resilient_scan(snort_automaton, packet)  # warm: no memo misses

        built = []
        original = ReportEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ReportEvent, "__init__", counting_init)
        outcome = resilient_scan(snort_automaton, packet)
        assert outcome.engine == "dfa" and not outcome.degraded
        assert outcome.result.report_count >= 20  # report-heavy
        assert built == []
        monkeypatch.undo()

        expected = ReferenceEngine(snort_automaton).run(packet).reports
        assert rows(list(outcome.result.reports)) == rows(expected)


def _engine_batches(engine_cls, automaton, data, chunk):
    """Whole-run and chunked-feed batches, or None if the engine refuses."""
    try:
        engine = engine_cls(automaton)
    except EngineError:
        return None
    stream = engine.stream()
    parts = [
        stream.feed(data[i : i + chunk]) for i in range(0, len(data), chunk)
    ]
    return engine.run(data).reports, ReportBatch.concat(parts)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    chunk=st.integers(1, 9),
    shift=st.integers(-6, 30),
    keep=st.integers(0, 40),
    n_segments=st.integers(1, 4),
    overlap=st.integers(0, 6),
)
def test_batch_algebra(seed, chunk, shift, keep, n_segments, overlap):
    case = random_case(seed)
    automaton, data = case.automaton, case.data
    expected = rows(ReferenceEngine(automaton).run(data).reports)
    for engine_cls in ENGINES:
        batches = _engine_batches(engine_cls, automaton, data, chunk)
        if batches is None:
            continue
        for batch in batches:
            assert_well_formed(batch)
            events = list(batch)
            assert rows(events) == expected
            assert events == sorted(events)
            assert len(batch) == len(events)
            assert bool(batch) == bool(events)
            assert list(batch.iter_rows()) == [
                (e.offset, e.ident, e.code) for e in events
            ]

            rebased = batch.rebased(shift, keep)
            assert_well_formed(rebased)
            assert rows(rebased) == rows(
                ReportEvent(e.offset + shift, e.ident, e.code)
                for e in events
                if e.offset + shift >= keep
            )

        engine = engine_cls(automaton)
        segments = split_with_overlap(len(data), n_segments, overlap)
        parts = [
            engine.run(data[s.scan_start : s.end]).reports.rebased(
                s.scan_start, s.keep_from
            )
            for s in segments
        ]
        merged = ReportBatch.concat(parts)
        assert_well_formed(merged)
        assert rows(merged) == rows(sorted(e for part in parts for e in part))

    batch = ReferenceEngine(automaton).run(data).reports
    recoded = ReportBatch(
        batch.offsets,
        [tuple((ident, ("other", code)) for ident, code in g) for g in batch.groups],
    )
    assert recoded == batch and recoded == list(batch)
    assert list(batch) == recoded
    if batch:
        renamed = ReportBatch(
            batch.offsets, [((g[0][0] + "x", g[0][1]),) + g[1:] for g in batch.groups]
        )
        assert renamed != batch and renamed != list(batch)


class TestReportBatch:
    def _batch(self):
        return ReportBatch(
            [3, 7, 9], [(("a", 1), ("b", 2)), (("a", 1),), (("c", None),)]
        )

    def test_sequence_view(self):
        batch = self._batch()
        assert len(batch) == 4 and batch
        assert not ReportBatch()
        assert batch[0] == ReportEvent(3, "a") and batch[-1] == ReportEvent(9, "c")
        assert batch[1].code == 2
        assert batch[1:3] == [ReportEvent(3, "b"), ReportEvent(7, "a")]
        assert batch[::-1] == list(reversed(list(batch)))
        assert ReportEvent(7, "a") in batch

    def test_pop_removes_the_last_report(self):
        batch = self._batch()
        list(batch)  # the cached events must not survive the pop
        assert batch.pop() == ReportEvent(9, "c")
        assert batch.pop().code == 1
        assert batch.offsets == [3] and len(batch) == 2
        assert batch.pop() == ReportEvent(3, "b")
        assert list(batch) == [ReportEvent(3, "a")]
        batch.pop()
        assert not batch and len(batch) == 0
        with pytest.raises(IndexError):
            batch.pop()

    def test_materialises_once(self):
        batch = self._batch()
        first = list(batch)
        assert all(a is b for a, b in zip(first, batch))

    def test_equality_ignores_code(self):
        batch = self._batch()
        assert batch == [
            ReportEvent(3, "a"),
            ReportEvent(3, "b", "x"),
            ReportEvent(7, "a"),
            ReportEvent(9, "c"),
        ]
        assert batch != [ReportEvent(3, "a")]
        assert batch != [(3, "a", 1), (3, "b", 2), (7, "a", 1), (9, "c", None)]

    def test_concat_rejects_overlapping_batches(self):
        batch = self._batch()
        with pytest.raises(ValueError):
            ReportBatch.concat([batch, batch.rebased(2)])
        assert ReportBatch.concat([batch, ReportBatch(), batch.rebased(10)]) == (
            list(batch) + list(batch.rebased(10))
        )

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError):
            ReportBatch([1, 2], [(("a", None),)])

    def test_from_rows_groups_and_sorts_stably(self):
        batch = ReportBatch.from_rows(
            [(5, "b", 1), (2, "z", 0), (5, "a", 2), (5, "b", 3)]
        )
        assert batch.offsets == [2, 5]
        assert batch.groups == [(("z", 0),), (("a", 2), ("b", 1), ("b", 3))]

    def test_run_result_converts_event_lists(self):
        result = RunResult(reports=[ReportEvent(4, "b"), ReportEvent(1, "a")], cycles=5)
        assert isinstance(result.reports, ReportBatch)
        assert result.reports.offsets == [1, 4]
        assert result.reporting_cycles() == {1, 4}
        assert result.report_count == 2


class TestPrefilterBatch:
    def test_shared_pattern_rules_keep_both_codes(self):
        scanner = PrefilterScanner([("r1", "abc"), ("r2", "abc"), ("r3", "bc+d")])
        result = scanner.scan(b"xxabcxbccd abc")
        assert_well_formed(result.reports)
        codes_at = {}
        for offset, _ident, code in result.reports.iter_rows():
            codes_at.setdefault(offset, set()).add(code)
        assert codes_at == {4: {"r1", "r2"}, 9: {"r3"}, 13: {"r1", "r2"}}


class TestPickle:
    def test_round_trip_keeps_codes(self):
        batch = ReportBatch([1, 8], [(("a", ("rule", 1)),), (("b", {"k": 2}), ("c", None))])
        copy = pickle.loads(pickle.dumps(batch))
        assert isinstance(copy, ReportBatch)
        assert copy == batch
        assert rows(copy) == rows(batch)

    def test_ids_request_batch_is_compact(self, snort_automaton):
        stream = b"".join(synthetic_packets(32, seed=3))
        batch = LazyDFAEngine(snort_automaton).run(stream).reports
        assert len(batch) >= 500  # report-heavy, like an ids_packets request
        copy = pickle.loads(pickle.dumps(batch))
        assert rows(copy) == rows(batch)
        as_batch = len(pickle.dumps(batch))
        as_events = len(pickle.dumps(list(batch)))
        assert as_batch * 5 < as_events


def test_dense_single_start_reporters_share_groups():
    """Bitset start-state report groups are precomputed per symbol."""
    a = Automaton("starts")
    a.add_ste("z", CharSet.from_chars("a"), start=StartMode.ALL_INPUT, report=True)
    a.add_ste("y", CharSet.from_chars("a"), start=StartMode.ALL_INPUT, report=True)
    batch = BitsetEngine(a).run(b"aaba").reports
    assert batch.offsets == [0, 1, 3]
    assert batch.groups[0] is batch.groups[1] is batch.groups[2]
    assert [ident for ident, _ in batch.groups[0]] == ["y", "z"]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_report_flags_and_codes_are_fixed_at_build(engine_cls):
    """Every engine, the reference oracle included, reads report flags and
    codes once, when it is built."""
    a = Automaton("fixed")
    a.add_ste(
        "x",
        CharSet.from_chars("a"),
        start=StartMode.ALL_INPUT,
        report=True,
        report_code="old",
    )
    a.add_ste("y", CharSet.from_chars("b"), start=StartMode.ALL_INPUT)
    engine = engine_cls(a)
    a["x"].report_code = "new"
    a["y"].report = True
    assert rows(engine.run(b"abab").reports) == [(0, "x", "'old'"), (2, "x", "'old'")]
