"""Input-parallel scanning tests: segmented == single-stream."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.engines import BitsetEngine, ReferenceEngine, VectorEngine
from repro.engines.parallel import (
    parallel_scan,
    parallel_speedup_model,
    split_with_overlap,
)
from repro.errors import EngineError
from repro.regex import compile_regex
from repro.benchmarks.mesh import hamming_automaton


def fingerprints(result):
    return [(r.offset, r.ident, repr(r.code)) for r in result.reports]


class TestSplitting:
    def test_covers_input_exactly(self):
        segments = split_with_overlap(100, 4, 5)
        assert segments[0].keep_from == 0
        assert segments[-1].end == 100
        keeps = [(s.keep_from, s.end) for s in segments]
        assert keeps == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_overlap_extends_left(self):
        segments = split_with_overlap(100, 4, 5)
        assert segments[1].scan_start == 20
        assert segments[0].scan_start == 0  # clamped at stream start

    def test_single_segment(self):
        segments = split_with_overlap(50, 1, 10)
        assert segments == [type(segments[0])(0, 0, 50)]

    def test_more_segments_than_symbols(self):
        """Regression: n_segments > data_length must not produce empty or
        duplicated keep-partitions (the old code emitted [0,0) segments and
        one catch-all [0, L) segment)."""
        segments = split_with_overlap(3, 8, 2)
        assert len(segments) == 3  # clamped to one symbol per segment
        keeps = [(s.keep_from, s.end) for s in segments]
        assert keeps == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "data_length,n_segments,overlap",
        [
            (0, 4, 3),
            (1, 9, 0),
            (3, 8, 2),
            (7, 7, 20),
            (10, 3, 15),  # overlap > base segment size
            (100, 4, 5),
            (101, 4, 200),
        ],
    )
    def test_keep_partition_invariants(self, data_length, n_segments, overlap):
        segments = split_with_overlap(data_length, n_segments, overlap)
        # the keep-ranges tile [0, data_length) exactly, in order
        assert segments[0].keep_from == 0
        assert segments[-1].end == data_length
        for prev, cur in zip(segments, segments[1:]):
            assert cur.keep_from == prev.end
        # scan ranges start at most `overlap` early, clamped at 0
        for s in segments:
            assert s.scan_start == max(0, s.keep_from - overlap)
        # never more segments than symbols; every segment non-empty
        if data_length > 0:
            assert len(segments) == min(n_segments, data_length)
            assert all(s.end > s.keep_from for s in segments)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_with_overlap(10, 0, 1)
        with pytest.raises(ValueError):
            split_with_overlap(10, 2, -1)


class TestParallelScan:
    def test_match_spanning_boundary_found(self):
        automaton = compile_regex("abcdefgh", report_code="r")
        data = b"x" * 21 + b"abcdefgh" + b"x" * 21  # crosses the 25-mark
        single = VectorEngine(automaton).run(data)
        segmented = parallel_scan(automaton, data, 2)
        assert fingerprints(segmented) == fingerprints(single)

    def test_no_duplicate_reports_in_overlap(self):
        automaton = compile_regex("ab", report_code="r")
        data = b"ab" * 30
        single = VectorEngine(automaton).run(data)
        segmented = parallel_scan(automaton, data, 5)
        assert fingerprints(segmented) == fingerprints(single)

    def test_anchored_rejected(self):
        with pytest.raises(EngineError):
            parallel_scan(compile_regex("^ab"), b"abab", 2)

    def test_unbounded_rejected(self):
        with pytest.raises(EngineError):
            parallel_scan(compile_regex("a+b"), b"aab", 2)

    @pytest.mark.parametrize("engine_cls", [ReferenceEngine, BitsetEngine])
    def test_engine_cls_selects_segment_engine(self, engine_cls):
        automaton = compile_regex("abcdefgh", report_code="r")
        data = b"x" * 21 + b"abcdefgh" + b"x" * 21
        single = VectorEngine(automaton).run(data)
        segmented = parallel_scan(automaton, data, 2, engine_cls=engine_cls)
        assert fingerprints(segmented) == fingerprints(single)

    def test_with_process_pool(self):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        needle = compile_regex("needle", report_code="n")
        hay = compile_regex("h[ae]y", report_code="h")
        data = (b"hay " * 50 + b"needle nedle hey ") * 3
        workers = 2
        was_enabled = telemetry.is_enabled()
        telemetry.enable()
        telemetry.reset()
        try:
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("spawn")
            ) as pool:

                def check(automaton):
                    single = VectorEngine(automaton).run(data)
                    segmented = parallel_scan(automaton, data, workers, pool=pool)
                    assert fingerprints(segmented) == fingerprints(single)
                    return len(single.reports)

                before = [check(automaton) for automaton in [needle, hay] * 3]
                # A new edge is a new generation, so a new fingerprint: the
                # workers must scan the edited structure ("nedle" now matches).
                needle.add_edge("p1", "p3")
                after = [check(needle) for _ in range(2)]
            misses = telemetry.counter_value("parallel.resident.miss")
        finally:
            telemetry.reset()
            if not was_enabled:
                telemetry.disable()
        assert after[0] > before[0]
        tasks, distinct = 8 * workers, 3
        # Each worker unpickles each automaton once, not once per task.
        assert 1 <= misses <= workers * distinct < tasks

    def test_mesh_benchmark_segments_correctly(self):
        from repro.inputs.dna import plant_pattern, random_dna

        pattern = b"ACGTACGTACGTAC"
        automaton = hamming_automaton(pattern, 2, pattern_id=0)
        data = random_dna(2000, seed=1)
        data = plant_pattern(data, pattern, 495, mutations=1, seed=2)  # near cut
        single = VectorEngine(automaton).run(data)
        segmented = parallel_scan(automaton, data, 4)
        assert fingerprints(segmented) == fingerprints(single)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(max_size=80).map(lambda raw: bytes(b"ab"[x % 2] for x in raw)),
        n_segments=st.integers(1, 6),
        pattern=st.sampled_from(["ab", "aba", "a{2,4}b", "[ab]{3}"]),
    )
    def test_segmented_equals_single_property(self, data, n_segments, pattern):
        automaton = compile_regex(pattern, report_code="r")
        single = VectorEngine(automaton).run(data)
        segmented = parallel_scan(automaton, data, n_segments)
        assert fingerprints(segmented) == fingerprints(single)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.binary(max_size=12).map(lambda raw: bytes(b"ab"[x % 2] for x in raw)),
        n_segments=st.integers(1, 40),
        pattern=st.sampled_from(["ab", "aba", "a{2,4}b", "[ab]{3}"]),
    )
    def test_segmented_equals_single_extremes(self, data, n_segments, pattern):
        """Degenerate geometry: n_segments often exceeds data_length and the
        pattern overlap exceeds the base segment size."""
        automaton = compile_regex(pattern, report_code="r")
        single = VectorEngine(automaton).run(data)
        segmented = parallel_scan(automaton, data, n_segments)
        assert fingerprints(segmented) == fingerprints(single)


class TestSpeedupModel:
    def test_ideal_without_overlap(self):
        assert parallel_speedup_model(1000, 4, 1) == pytest.approx(4.0)

    def test_overlap_erodes_speedup(self):
        assert parallel_speedup_model(1000, 4, 100) < 3.0

    def test_single_segment_is_one(self):
        assert parallel_speedup_model(1000, 1, 50) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            parallel_speedup_model(100, 0, 5)
