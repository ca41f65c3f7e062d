"""Telemetry registry, engine instrumentation, and profile harness tests."""

import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.core import Automaton, CharSet, StartMode
from repro.engines import (
    ENGINE_REGISTRY,
    BitsetEngine,
    LazyDFAEngine,
    VectorEngine,
    clear_engine_cache,
    compiled_engine,
    engine_cache_info,
)
from repro.engines.parallel import parallel_scan
from repro.regex import compile_regex
from repro.resilience.guards import GUARD_BLOCK


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts disabled and empty, and leaves no residue."""
    telemetry.disable()
    telemetry.reset()
    clear_engine_cache()
    yield
    telemetry.disable()
    telemetry.reset()
    clear_engine_cache()


class TestRegistry:
    def test_disabled_records_nothing(self):
        telemetry.incr("x")
        telemetry.observe("t", 1.0)
        with telemetry.span("s"):
            pass
        snap = telemetry.snapshot()
        assert snap["counters"] == {} and snap["timers"] == {}

    def test_clock_none_while_disabled(self):
        assert telemetry.clock() is None
        telemetry.enable()
        assert telemetry.clock() is not None

    def test_counters_accumulate(self):
        telemetry.enable()
        telemetry.incr("a")
        telemetry.incr("a", 4)
        assert telemetry.counter_value("a") == 5
        assert telemetry.counter_value("never") == 0

    def test_timer_aggregates(self):
        telemetry.enable()
        telemetry.observe("t", 0.5)
        telemetry.observe("t", 1.5)
        entry = telemetry.snapshot()["timers"]["t"]
        assert entry["count"] == 2
        assert entry["total_s"] == pytest.approx(2.0)
        assert entry["min_s"] == pytest.approx(0.5)
        assert entry["max_s"] == pytest.approx(1.5)

    def test_span_records_duration(self):
        telemetry.enable()
        with telemetry.span("block"):
            pass
        assert telemetry.snapshot()["timers"]["block"]["count"] == 1

    def test_reset_clears_but_keeps_switch(self):
        telemetry.enable()
        telemetry.incr("a")
        telemetry.reset()
        assert telemetry.is_enabled()
        assert telemetry.counter_value("a") == 0

    def test_diff_snapshots(self):
        telemetry.enable()
        telemetry.incr("a", 2)
        telemetry.observe("t", 1.0)
        before = telemetry.snapshot()
        telemetry.incr("a", 3)
        telemetry.incr("b")
        telemetry.observe("t", 0.25)
        delta = telemetry.diff_snapshots(before, telemetry.snapshot())
        assert delta["counters"] == {"a": 3, "b": 1}
        assert delta["timers"]["t"]["count"] == 1
        assert delta["timers"]["t"]["total_s"] == pytest.approx(0.25)

    def test_merge_adds_counters_and_widens_timers(self):
        telemetry.enable()
        telemetry.incr("a")
        telemetry.observe("t", 1.0)
        telemetry.merge(
            {
                "pid": -1,
                "counters": {"a": 4, "fresh": 2},
                "timers": {"t": {"count": 1, "total_s": 3.0, "min_s": 3.0, "max_s": 3.0}},
            }
        )
        assert telemetry.counter_value("a") == 5
        assert telemetry.counter_value("fresh") == 2
        entry = telemetry.snapshot()["timers"]["t"]
        assert entry["count"] == 2 and entry["max_s"] == pytest.approx(3.0)

    def test_merge_of_diff_delta_round_trips(self):
        telemetry.enable()
        telemetry.incr("a", 2)
        telemetry.observe("t", 1.0)
        before = telemetry.snapshot()
        telemetry.incr("a", 3)
        telemetry.observe("t", 0.5)
        delta = telemetry.diff_snapshots(before, telemetry.snapshot())
        telemetry.merge(delta)  # delta min/max are None; must not crash
        assert telemetry.counter_value("a") == 5 + 3
        assert telemetry.timer_total("t") == pytest.approx(1.5 + 0.5)

    def test_thread_safety_no_lost_increments(self):
        telemetry.enable()
        n_threads, per_thread = 8, 2_000

        def worker():
            for _ in range(per_thread):
                telemetry.incr("hammered")
                telemetry.observe("hammered.t", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert telemetry.counter_value("hammered") == n_threads * per_thread
        assert telemetry.snapshot()["timers"]["hammered.t"]["count"] == n_threads * per_thread


class TestEngineInstrumentation:
    def test_engine_labels(self):
        # perfbench and docs/OBSERVABILITY.md read the metrics by these labels.
        assert {name: cls.label for name, cls in ENGINE_REGISTRY.items()} == {
            "reference": "reference",
            "vector": "vector",
            "bitset": "bitset",
            "dfa": "lazydfa",
        }

    def test_compile_and_scan_recorded(self):
        telemetry.enable()
        automaton = compile_regex("ab", report_code="r")
        blocks = (b"xxabxx" * 300)[: 3 * GUARD_BLOCK + 5]
        for cls in ENGINE_REGISTRY.values():
            label = cls.label
            engine = cls(automaton)
            engine.run(b"xxabxx")
            snap = telemetry.snapshot()
            assert telemetry.counter_value(f"engine.compiled.{label}", snap) == 1
            assert telemetry.counter_value(f"engine.symbols.{label}", snap) == 6
            assert telemetry.counter_value(f"engine.reports.{label}", snap) == 1
            assert snap["timers"][f"engine.compile.{label}"]["count"] == 1
            assert snap["timers"][f"engine.scan.{label}"]["count"] == 1
            # One multi-block feed is one scan entry, whatever its block count.
            engine.stream().feed(blocks)
            snap = telemetry.snapshot()
            assert snap["timers"][f"engine.scan.{label}"]["count"] == 2
            assert telemetry.counter_value(f"engine.symbols.{label}", snap) == 6 + len(
                blocks
            )
            assert telemetry.counter_value(f"engine.reports.{label}", snap) == 1 + 257

    def test_bitset_matched_states(self):
        """Matched-state mass is the same however feeds split into blocks
        (values recorded before the feed frame moved into ``Stream``)."""
        telemetry.enable()
        BitsetEngine(compile_regex("ab", report_code="r")).run(
            (b"xxabxx" * 300)[: 3 * GUARD_BLOCK + 5]
        )
        assert telemetry.counter_value("engine.matched_states.bitset") == 257
        telemetry.reset()
        mesh = Automaton("dense")
        mesh.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
        for i in range(15):
            mesh.add_ste(f"d{i}", CharSet.from_chars("a"), report=i == 0)
            mesh.add_edge("s0", f"d{i}")
        for i in range(15):
            for j in range(15):
                mesh.add_edge(f"d{i}", f"d{j}")
        data = b"a" * 600 + b"b" * 600 + b"a" * 10
        BitsetEngine(mesh).run(data)  # per-bit, memo, per-bit walks
        assert telemetry.counter_value("engine.matched_states.bitset") == 9120
        # The memo walk counts exactly what the per-bit walk does.
        for cutover, first_walk in ((float("inf"), "bit"), (-1, "memo")):
            telemetry.reset()
            engine = BitsetEngine(mesh)
            engine._memo_cutover = cutover
            stream = engine.stream()
            stream._set_walk(first_walk)
            stream.feed(data)
            assert stream._walk == first_walk
            assert telemetry.counter_value("engine.matched_states.bitset") == 9120

    def test_prefilter_counts_each_scanned_symbol_once(self):
        """A prefiltered scan times itself under ``prefilter.scan``; the
        symbols and reports of ``engine.*`` are those its rule engines'
        streams scanned and emitted, counted once."""
        from repro.engines.prefilter import PrefilterScanner

        telemetry.enable()
        rules = [("r1", "[ab]1"), ("r2", "[12][xy]")]  # no factors: full scans
        data = b"ab1x" * 240
        reports = PrefilterScanner(rules).scan(data).reports
        snap = telemetry.snapshot()
        symbols = {k: v for k, v in snap["counters"].items() if k.startswith("engine.symbols.")}
        counts = {k: v for k, v in snap["counters"].items() if k.startswith("engine.reports.")}
        assert sum(symbols.values()) == 2 * len(data) == 1920
        assert sum(counts.values()) == len(reports) == 480
        assert snap["timers"]["prefilter.scan"]["count"] == 1
        assert "engine.scan.prefilter" not in snap["timers"]

    def test_lazydfa_memo_counters(self):
        telemetry.enable()
        engine = LazyDFAEngine(compile_regex("a[ab]{3}b", report_code="r"))
        engine.run(b"aabab" * 20)
        assert telemetry.counter_value("lazydfa.memo_computes") > 0
        assert telemetry.counter_value("lazydfa.dfa_states") > 0

    def test_cache_counters_match_cache_info(self):
        telemetry.enable()
        automaton = compile_regex("abc", report_code="r")
        compiled_engine(automaton, BitsetEngine)
        compiled_engine(automaton, BitsetEngine)
        compiled_engine(automaton, VectorEngine)
        info = engine_cache_info()
        assert telemetry.counter_value("cache.hit") == info.hits == 1
        assert telemetry.counter_value("cache.miss") == info.misses == 2


class TestParallelScanTelemetry:
    def _case(self):
        automaton = compile_regex("needle", report_code="n")
        data = (b"hay " * 40 + b"needle ") * 4
        return automaton, data

    def test_counters_survive_process_pool_workers(self):
        automaton, data = self._case()
        telemetry.enable()
        telemetry.reset()
        with ProcessPoolExecutor(max_workers=2) as pool:
            result = parallel_scan(automaton, data, 4, pool=pool)
        assert result.report_count == 4
        snap = telemetry.snapshot()
        # scan work happened in the children; the merged registry sees it
        assert telemetry.counter_value("parallel.segments", snap) == 4
        assert telemetry.counter_value("engine.symbols.vector", snap) >= len(data)
        assert snap["timers"]["parallel.segment"]["count"] == 4

    def test_thread_pool_counts_once(self):
        automaton, data = self._case()
        # serial baseline
        telemetry.enable()
        telemetry.reset()
        parallel_scan(automaton, data, 4)
        serial = telemetry.snapshot()["counters"]
        # same scan via a thread pool: shared registry, no double merge
        telemetry.reset()
        clear_engine_cache()
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel_scan(automaton, data, 4, pool=pool)
        threaded = telemetry.snapshot()["counters"]
        assert threaded == serial

    def test_disabled_scan_collects_nothing(self):
        automaton, data = self._case()
        result = parallel_scan(automaton, data, 4)
        assert result.report_count == 4
        assert telemetry.snapshot()["counters"] == {}


class TestDisabledOverhead:
    def test_disabled_overhead_under_five_percent_of_snort_scan(self):
        """The instrumentation budget on the throughput-bench Snort config.

        Engine feeds touch telemetry a constant number of times per call
        (one ``clock()`` plus a guarded epilogue), never per symbol.  We
        measure the disabled per-call cost directly and require a generous
        16-call allowance to stay under 5% of the measured Snort scan time
        — deterministic, unlike subtracting two noisy end-to-end timings.
        """
        import time

        from repro.benchmarks import build_benchmark

        bench = build_benchmark("Snort", scale=0.01, seed=0)
        data = bench.input_data[:8_000]  # bench_engine_throughput INPUT_LIMIT
        engine = BitsetEngine(bench.automaton)
        engine.run(data)  # warm
        scan_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            engine.run(data)
            scan_s = min(scan_s, time.perf_counter() - t0)

        assert not telemetry.is_enabled()
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            telemetry.clock()
            telemetry.incr("overhead.probe")
        per_call = (time.perf_counter() - t0) / (2 * n)

        assert 16 * per_call < 0.05 * scan_s, (
            f"disabled telemetry costs {per_call * 1e9:.0f}ns/call against a "
            f"{scan_s * 1e3:.2f}ms scan"
        )
        assert telemetry.counter_value("overhead.probe") == 0


class TestProfileHarness:
    def test_run_profile_smoke_payload(self):
        from repro.telemetry.profile import PROFILE_SCHEMA, run_profile

        payload = run_profile(
            names=("Snort",),
            engines=("bitset", "dfa"),
            scale=0.002,
            limit=1_000,
            smoke=True,
        )
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["smoke"] is True
        snort = payload["benchmarks"]["Snort"]
        assert snort["states"] > 0 and snort["build_s"] >= 0
        for row in snort["engines"].values():
            assert row["reports"] >= 0
            assert row["mean_active_set"] >= 0
            assert row["counters"]  # each engine moved at least one counter
        dfa_counters = snort["engines"]["dfa"]["counters"]
        assert dfa_counters["lazydfa.memo_computes"] > 0
        assert payload["cache"]["misses"] >= 2
        assert not telemetry.is_enabled()  # prior state restored

    def test_write_profile(self, tmp_path):
        import json

        from repro.telemetry.profile import write_profile

        out = write_profile({"schema": "x"}, tmp_path / "sub" / "PROFILE.json")
        assert json.loads(out.read_text()) == {"schema": "x"}
