"""Resilient-execution tests: guards, ladder, supervisor, checkpoints.

Fault injection is deterministic (:class:`repro.resilience.faults.FaultPlan`);
every recovery path is asserted to produce report streams *identical* to
the ReferenceEngine single-stream scan — degraded, never different.
"""

import concurrent.futures
import contextlib
import multiprocessing
import os
import pickle
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.engines import ENGINE_REGISTRY, BitsetEngine, ReferenceEngine, VectorEngine
from repro.engines.cache import (
    clear_engine_cache,
    engine_cache_info,
    set_engine_cache_limit,
)
from repro.engines.parallel import Segment, parallel_scan
from repro.errors import (
    CheckpointMismatch,
    EngineFailure,
    InputError,
    MemoryBudgetExceeded,
    ScanTimeout,
    WorkerCrash,
)
from repro.inputs.pcap import synthetic_pcap
from repro.regex import compile_regex
from repro.resilience import (
    FaultPlan,
    ScanBudget,
    ScanGuard,
    SupervisorConfig,
    SweepCheckpoint,
    guard_scope,
    inject_faults,
    ladder_from,
    resilient_scan,
    supervised_parallel_scan,
)
from repro.resilience.guards import GUARD_BLOCK
from repro.resilience.supervisor import _resident_record, _scan_segment_supervised

PATTERN = "(cmd\\.exe|SELECT|powershell|admin)"


@pytest.fixture()
def automaton():
    return compile_regex(PATTERN)


@pytest.fixture()
def data():
    return synthetic_pcap(120, seed=7)


@pytest.fixture()
def oracle(automaton, data):
    return fingerprints(ReferenceEngine(automaton).run(data))


def fingerprints(result):
    return [(r.offset, r.ident, repr(r.code)) for r in result.reports]


@pytest.fixture(autouse=True)
def _telemetry():
    was_enabled = telemetry.is_enabled()
    telemetry.enable()
    telemetry.reset()
    yield
    telemetry.reset()
    if not was_enabled:
        telemetry.disable()


def counter(name: str) -> int:
    return telemetry.snapshot()["counters"].get(name, 0)


class _LateDeadline(ScanGuard):
    """A guard whose deadline passes just before its second deadline check."""

    __slots__ = ("checks",)

    def __init__(self) -> None:
        super().__init__(ScanBudget(wall_s=60.0))
        self.checks = 0

    def check_deadline(self, engine: str, offset: int) -> None:
        self.checks += 1
        if self.checks == 2:
            self.deadline = time.perf_counter() - 1.0
        super().check_deadline(engine, offset)


class TestGuards:
    @pytest.mark.parametrize("engine_cls", list(ENGINE_REGISTRY.values()))
    def test_exhausted_deadline_trips_every_engine(self, engine_cls, automaton, data):
        engine = engine_cls(automaton)
        with guard_scope(ScanGuard(ScanBudget(wall_s=0.0))):
            with pytest.raises(ScanTimeout) as info:
                engine.run(data)
        assert (info.value.engine, info.value.offset) == (engine_cls.label, 0)
        assert counter("resilience.guard.timeout") == 1
        assert counter(f"resilience.guard.timeout.{engine_cls.label}") == 1

    @pytest.mark.parametrize("engine_cls", list(ENGINE_REGISTRY.values()))
    def test_empty_feed_trips_at_entry(self, engine_cls, automaton):
        stream = engine_cls(automaton).stream()
        stream.feed(b"cmd.exe")
        with guard_scope(ScanGuard(ScanBudget(wall_s=0.0))):
            with pytest.raises(ScanTimeout) as info:
                stream.feed(b"")
        assert (info.value.engine, info.value.offset) == (engine_cls.label, 7)

    @pytest.mark.parametrize("engine_cls", list(ENGINE_REGISTRY.values()))
    def test_deadline_passing_mid_feed_trips_at_next_block(
        self, engine_cls, automaton, data
    ):
        assert len(data) > 2 * GUARD_BLOCK
        engine = engine_cls(automaton)
        guard = _LateDeadline()
        with guard_scope(guard):
            with pytest.raises(ScanTimeout) as info:
                engine.run(data)
        assert (info.value.engine, info.value.offset) == (engine_cls.label, GUARD_BLOCK)
        assert guard.checks == 2

    def test_timeout_carries_context(self, automaton, data):
        with guard_scope(ScanGuard(ScanBudget(wall_s=0.0), segment=3)):
            with pytest.raises(ScanTimeout) as info:
                VectorEngine(automaton).run(data)
        assert info.value.engine == "vector"
        assert info.value.segment == 3

    def test_memo_budget_trips_lazydfa(self, automaton, data):
        from repro.engines.lazydfa import LazyDFAEngine

        engine = LazyDFAEngine(automaton)
        with guard_scope(ScanGuard(ScanBudget(memo_bytes=1024))):
            with pytest.raises(MemoryBudgetExceeded) as info:
                engine.run(data)
        assert info.value.engine == "lazydfa"
        assert info.value.used_bytes > info.value.budget_bytes
        assert 0 <= info.value.offset < len(data)
        assert counter("resilience.guard.memo_budget") == 1

    def test_memo_budget_trip_point_is_pinned(self):
        """The memo estimate trips at the same byte, size and state count
        as it did when subsets were frozensets (values recorded on that
        representation)."""
        from repro.engines.lazydfa import LazyDFAEngine
        from repro.regex import compile_ruleset

        automaton, _ = compile_ruleset(
            [(1, "ab[cd]+e"), (2, "x.{3}y"), (3, "(foo|bar)baz")]
        )
        data = b"zzabcdcde xq1zy foobaz barbaz abdde x123y xxxxyyyy fobarbazab" * 2
        engine = LazyDFAEngine(automaton)
        stream = engine.stream()
        fed = 0
        with guard_scope(ScanGuard(ScanBudget(memo_bytes=40_000))):
            with pytest.raises(MemoryBudgetExceeded) as info:
                for fed in range(len(data)):
                    stream.feed(data[fed : fed + 1])
        assert (fed, info.value.used_bytes) == (46, 40_992)
        assert info.value.offset == 46
        assert engine.dfa_state_count == 19

    def test_unguarded_scan_unaffected(self, automaton, data, oracle):
        assert fingerprints(VectorEngine(automaton).run(data)) == oracle


class TestLadder:
    def test_no_fallback_when_healthy(self, automaton, data, oracle):
        outcome = resilient_scan(automaton, data)
        assert not outcome.degraded
        assert outcome.engine == "dfa"
        assert fingerprints(outcome.result) == oracle

    def test_memo_blowup_degrades_to_bitset(self, automaton, data, oracle):
        from repro.engines.cache import clear_engine_cache

        # A warm cached DFA has its memo built already (nothing left to
        # intern), so start cold: budget enforcement happens on growth.
        clear_engine_cache()
        plan = FaultPlan(memo_inflation=1e6)
        with inject_faults(plan):
            outcome = resilient_scan(
                automaton, data, budget=ScanBudget(memo_bytes=4096)
            )
        assert outcome.engine == "bitset"
        assert [name for name, _ in outcome.fallbacks] == ["dfa"]
        assert "MemoryBudgetExceeded" in outcome.fallbacks[0][1]
        assert fingerprints(outcome.result) == oracle
        assert counter("resilience.fallback.dfa") == 1
        assert counter("resilience.ladder.degraded") == 1

    def test_injected_failures_walk_down(self, automaton, data, oracle):
        with inject_faults(FaultPlan(fail_engines=frozenset({"dfa", "bitset"}))):
            outcome = resilient_scan(automaton, data)
        assert outcome.engine == "vector"
        assert len(outcome.fallbacks) == 2
        assert fingerprints(outcome.result) == oracle
        assert counter("resilience.fault.engine_failure") == 2

    def test_exhausted_ladder_raises_with_rung_details(self, automaton, data):
        with inject_faults(
            FaultPlan(fail_engines=frozenset({"dfa", "bitset", "vector", "reference"}))
        ):
            with pytest.raises(EngineFailure) as info:
                resilient_scan(automaton, data)
        message = str(info.value)
        for rung in ("dfa", "bitset", "vector", "reference"):
            assert rung in message

    def test_ladder_from(self):
        assert ladder_from("bitset") == ("bitset", "vector", "reference")
        assert ladder_from("reference") == ("reference",)
        assert ladder_from("weird") == ("weird",)

    def test_cache_never_holds_degraded_engine(self, automaton, data):
        from repro.engines.cache import clear_engine_cache, compiled_engine

        clear_engine_cache()
        with inject_faults(FaultPlan(fail_engines=frozenset({"dfa"}))):
            outcome = resilient_scan(automaton, data)
        assert outcome.engine == "bitset"
        # The dfa key must not have been populated with a bitset engine:
        # asking for the dfa engine now compiles a real LazyDFAEngine.
        from repro.engines.lazydfa import LazyDFAEngine

        assert type(compiled_engine(automaton, LazyDFAEngine)) is LazyDFAEngine
        assert type(compiled_engine(automaton, BitsetEngine)) is BitsetEngine


class TestSupervisor:
    def test_worker_crash_recovers_in_process(self, automaton, data, oracle):
        with inject_faults(FaultPlan(crash_segments=frozenset({1}))):
            outcome = supervised_parallel_scan(
                automaton, data, 4,
                config=SupervisorConfig(backoff_base_s=0.0, backoff_cap_s=0.0),
            )
        assert outcome.complete
        assert fingerprints(outcome.result) == oracle
        assert outcome.segments[1].attempts == 2
        assert counter("resilience.segment.crash") == 1
        assert counter("resilience.segment.retries") == 1

    def test_segment_timeout_on_thread_pool(self, automaton, data, oracle):
        plan = FaultPlan(stall_segments=frozenset({0}), stall_s=0.5)
        config = SupervisorConfig(
            segment_timeout_s=0.1, backoff_base_s=0.0, backoff_cap_s=0.0
        )
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            with inject_faults(plan):
                outcome = supervised_parallel_scan(
                    automaton, data, 3, pool=pool, config=config
                )
        assert outcome.complete
        assert fingerprints(outcome.result) == oracle
        assert counter("resilience.segment.timeout") == 1
        timed_out = outcome.segments[0]
        assert any("ScanTimeout" in failure for _, failure in timed_out.failures)

    def test_poison_segment_yields_partial_result(self, automaton, data, oracle):
        with inject_faults(FaultPlan(poison_segments=frozenset({2}))):
            outcome = supervised_parallel_scan(
                automaton, data, 4,
                config=SupervisorConfig(
                    max_attempts=2, backoff_base_s=0.0, backoff_cap_s=0.0
                ),
            )
        assert not outcome.complete
        assert [report.index for report in outcome.poisoned] == [2]
        assert counter("resilience.segment.poisoned") == 1
        # The partial result is exactly the oracle minus the quarantined
        # segment's keep range — other segments are unaffected.
        bad = outcome.segments[2].segment
        expected = [
            fp for fp in oracle if not bad.keep_from <= fp[0] < bad.end
        ]
        assert fingerprints(outcome.result) == expected

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "threads"])
    def test_single_attempt_poisons_without_retry(
        self, automaton, data, oracle, workers
    ):
        # max_attempts=1: the first attempt is the only one, serial or
        # pooled, and a failed segment is poisoned without a retry.
        with contextlib.ExitStack() as stack:
            pool = None
            if workers:
                pool = stack.enter_context(
                    concurrent.futures.ThreadPoolExecutor(workers)
                )
            stack.enter_context(inject_faults(FaultPlan(poison_segments=frozenset({2}))))
            outcome = supervised_parallel_scan(
                automaton, data, 4, pool=pool,
                config=SupervisorConfig(max_attempts=1),
            )
        assert not outcome.complete
        assert [report.index for report in outcome.poisoned] == [2]
        bad = outcome.segments[2]
        assert bad.error == bad.failures[-1][1]
        assert counter("resilience.segment.retries") == 0
        assert counter("resilience.segment.poisoned") == 1
        assert counter("resilience.fault.engine_failure") == 1
        expected = [
            fp for fp in oracle
            if not bad.segment.keep_from <= fp[0] < bad.segment.end
        ]
        assert fingerprints(outcome.result) == expected
        failure = EngineFailure("vector", "injected engine failure", segment=2)
        error = f"EngineFailure: {failure}"
        assert [
            (report.engine, report.attempts, report.failures, report.error)
            for report in outcome.segments
        ] == [
            (None, 1, [("vector", error)], error) if index == 2
            else ("vector", 1, [], None)
            for index in range(4)
        ]

    def test_retries_degrade_down_ladder(self, automaton, data, oracle):
        # dfa fails everywhere: the pool attempt fails, the retry walks
        # the ladder and lands on bitset with identical reports.
        with inject_faults(FaultPlan(fail_engines=frozenset({"dfa"}))):
            outcome = supervised_parallel_scan(
                automaton, data, 3, engine="dfa",
                config=SupervisorConfig(backoff_base_s=0.0, backoff_cap_s=0.0),
            )
        assert outcome.complete
        assert outcome.degraded
        assert {report.engine for report in outcome.segments} == {"bitset"}
        assert fingerprints(outcome.result) == oracle

    def test_foreign_error_cancels_queued_segments(self, automaton, data):
        # A non-library error from an engine escapes the scan; the scan's
        # queued segments must not run after the call has raised.  Every
        # construction after the first blocks, so at most segment 1 is
        # running when the first failure reaches the supervisor.
        release = threading.Event()
        calls = []

        class Exploding(VectorEngine):
            def __init__(self, automaton):
                calls.append(len(calls))
                if len(calls) > 1:
                    release.wait(10)
                raise RuntimeError("custom engine bug")

        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            try:
                with pytest.raises(RuntimeError, match="custom engine bug"):
                    supervised_parallel_scan(
                        automaton, data, 8, pool=pool, engine=Exploding
                    )
            finally:
                release.set()
        assert len(calls) <= 2

    def test_strict_mode_reraises_original_error(self, automaton, data):
        with inject_faults(FaultPlan(poison_segments=frozenset({0}))):
            with pytest.raises(EngineFailure):
                parallel_scan(automaton, data, 2)

    def test_process_pool_crash_recovers(self, automaton, data, oracle):
        plan = FaultPlan(crash_segments=frozenset({1}))
        config = SupervisorConfig(backoff_base_s=0.0, backoff_cap_s=0.0)
        with concurrent.futures.ProcessPoolExecutor(2) as pool:
            with inject_faults(plan):
                outcome = supervised_parallel_scan(
                    automaton, data, 3, pool=pool, config=config
                )
        assert outcome.complete
        assert fingerprints(outcome.result) == oracle
        assert counter("resilience.pool.broken") >= 1


class TestResidentAutomata:
    def test_worker_restores_telemetry_after_foreign_error(self, automaton):
        # A non-library exception from a custom engine escapes the attempt;
        # it must not leave this worker tracing later untraced tasks.
        class Exploding(VectorEngine):
            def __init__(self, automaton):
                raise RuntimeError("custom engine bug")

        record = _resident_record(automaton)
        task = (record, b"SELECT", Segment(0, 0, 6), 0, Exploding, "exploding",
                True, None, os.getpid(), None)
        telemetry.disable()
        with pytest.raises(RuntimeError, match="custom engine bug"):
            _scan_segment_supervised(task)
        assert not telemetry.is_enabled()

    def test_crash_after_workers_hold_automaton(self, automaton, data, oracle):
        config = SupervisorConfig(backoff_base_s=0.0, backoff_cap_s=0.0)
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as pool:
            for _ in range(2):
                warm = supervised_parallel_scan(
                    automaton, data, 2, pool=pool, config=config
                )
                assert fingerprints(warm.result) == oracle
            assert counter("parallel.resident.miss") >= 1
            with inject_faults(FaultPlan(crash_segments=frozenset({1}))):
                outcome = supervised_parallel_scan(
                    automaton, data, 2, pool=pool, config=config
                )
        assert outcome.complete
        assert fingerprints(outcome.result) == oracle
        assert outcome.segments[1].attempts == 2
        assert counter("resilience.pool.broken") >= 1
        # Fresh workers hold nothing yet: they unpickle and agree.
        telemetry.reset()
        with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as pool:
            fresh = supervised_parallel_scan(automaton, data, 2, pool=pool, config=config)
        assert fingerprints(fresh.result) == oracle
        assert counter("parallel.resident.miss") >= 1

    def test_threads_miss_once_per_fingerprint(self, data):
        # More threads than cores and a short switch interval: a lookup
        # that checked and unpickled outside the lock would miss a
        # fingerprint more than once in this process.
        automata = [compile_regex(p) for p in ("cmd\\.exe", "SELECT", "admin")]
        oracles = [fingerprints(ReferenceEngine(a).run(data)) for a in automata]
        rounds = 10
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                for _ in range(rounds):
                    clear_engine_cache()
                    for automaton, oracle in zip(automata, oracles):
                        outcome = supervised_parallel_scan(
                            automaton, data, 8, pool=pool,
                            config=SupervisorConfig(segment_timeout_s=60.0),
                        )
                        assert fingerprints(outcome.result) == oracle
                    assert engine_cache_info().resident == len(automata)
        finally:
            sys.setswitchinterval(interval)
        assert counter("parallel.resident.miss") == rounds * len(automata)
        clear_engine_cache()
        assert engine_cache_info().resident == 0


    def test_shrinking_cache_limit_trims_resident(self, data):
        patterns = ("cmd\\.exe", "SELECT", "admin", "passwd", "root")
        clear_engine_cache()
        try:
            for pattern in patterns:
                supervised_parallel_scan(compile_regex(pattern), data, 2)
            assert engine_cache_info().resident == len(patterns)
            set_engine_cache_limit(1)
            info = engine_cache_info()
            assert (info.size, info.maxsize, info.resident) == (1, 1, 1)
        finally:
            set_engine_cache_limit(32)
            clear_engine_cache()


class TestErrorPickling:
    @pytest.mark.parametrize(
        "error",
        [
            ScanTimeout("bitset", 4096, 1.5, segment=2),
            MemoryBudgetExceeded("lazydfa", 9000, 4096, offset=17),
            WorkerCrash(3, 2, "injected worker crash"),
            EngineFailure("dfa", "boom", segment=1, offset=5),
            InputError("/tmp/x.pcap", 24, "truncated record header"),
            CheckpointMismatch("/tmp/x.ckpt.json", "meta changed"),
        ],
    )
    def test_round_trip_preserves_context(self, error):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert clone.__dict__ == error.__dict__


class TestCheckpoint:
    def test_records_resume_and_done(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        meta = {"names": ["a", "b"], "scale": 0.01}
        first = SweepCheckpoint.open(path, meta)
        first.record("a::x", {"value": 1})
        assert path.exists()

        resumed = SweepCheckpoint.open(path, meta, resume=True)
        assert resumed.resumed_cells == 1
        assert resumed.has("a::x") and resumed.get("a::x") == {"value": 1}
        assert not resumed.has("b::x")
        assert counter("resilience.resume.sweeps") == 1
        assert counter("resilience.resume.cells") == 1

        resumed.done()
        assert not path.exists()

    def test_meta_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        SweepCheckpoint.open(path, {"scale": 0.01}).record("c", {})
        with pytest.raises(CheckpointMismatch):
            SweepCheckpoint.open(path, {"scale": 0.02}, resume=True)

    def test_corrupt_journal_refuses_resume(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointMismatch):
            SweepCheckpoint.open(path, {}, resume=True)

    def test_fresh_open_ignores_stale_journal(self, tmp_path):
        path = tmp_path / "sweep.ckpt.json"
        SweepCheckpoint.open(path, {"scale": 0.01}).record("c", {"value": 2})
        fresh = SweepCheckpoint.open(path, {"scale": 0.01}, resume=False)
        assert not fresh.has("c")
