"""Edge-case and error-path tests across modules."""

import pytest

from repro.core import Automaton, CharSet, StartMode
from repro.engines import (
    LazyDFAEngine,
    ReferenceEngine,
    ReportEvent,
    RunResult,
    VectorEngine,
)
from repro.errors import (
    AutomatonError,
    CapacityError,
    EngineError,
    PatternError,
    RegexError,
    RegexUnsupportedError,
    ReproError,
)
from repro.regex import compile_regex, parse_regex
from repro.regex.ast_nodes import (
    Empty,
    Literal,
    REPEAT_EXPANSION_LIMIT,
    Repeat,
    count_positions,
    normalize,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [AutomatonError, RegexError, PatternError, EngineError, CapacityError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_unsupported_is_a_regex_error(self):
        assert issubclass(RegexUnsupportedError, RegexError)
        with pytest.raises(RegexError):
            parse_regex(r"(a)\1")


class TestRepeatExpansion:
    def test_limit_enforced(self):
        with pytest.raises(RegexError, match="expands"):
            compile_regex(f"a{{{REPEAT_EXPANSION_LIMIT + 1}}}")

    def test_just_under_limit_ok(self):
        automaton = compile_regex("a{64}b{64}")
        assert automaton.n_states == 128

    def test_zero_repeat_is_empty(self):
        node = normalize(Repeat(Literal(CharSet.from_chars("a")), 0, 0))
        assert isinstance(node, Empty)

    def test_count_positions(self):
        parsed = parse_regex("a{3}(b|cd)e*")
        assert count_positions(parsed.ast) == 3 + 3 + 1

    def test_nested_counted_expansion(self):
        automaton = compile_regex("(?:ab){3}")
        assert automaton.n_states == 6
        engine = ReferenceEngine(automaton)
        assert engine.count_reports(b"ababab") == 1
        assert engine.count_reports(b"abab") == 0


class TestEmptyAndDegenerate:
    def test_engines_on_empty_automaton(self):
        empty = Automaton("empty")
        for engine_cls in (ReferenceEngine, VectorEngine, LazyDFAEngine):
            result = engine_cls(empty).run(b"anything")
            assert result.reports == []
            assert result.cycles == 8

    def test_automaton_with_no_start_states_never_matches(self):
        a = Automaton()
        a.add_ste("s", CharSet.from_chars("a"), report=True)
        for engine_cls in (ReferenceEngine, VectorEngine, LazyDFAEngine):
            assert engine_cls(a).count_reports(b"aaaa") == 0

    def test_unmatchable_charset_state(self):
        a = Automaton()
        a.add_ste("s", CharSet.none(), start=StartMode.ALL_INPUT, report=True)
        for engine_cls in (ReferenceEngine, VectorEngine):
            assert engine_cls(a).count_reports(b"abc") == 0

    def test_run_result_helpers_on_empty(self):
        result = RunResult(reports=[], cycles=0, active_per_cycle=[])
        assert result.report_count == 0
        assert result.mean_active_set == 0.0
        assert result.reporting_cycles() == set()

    def test_report_event_ordering(self):
        events = [ReportEvent(5, "b"), ReportEvent(3, "z"), ReportEvent(3, "a")]
        assert sorted(events) == [
            ReportEvent(3, "a"),
            ReportEvent(3, "z"),
            ReportEvent(5, "b"),
        ]


class TestCountReportsHelper:
    def test_matches_run(self):
        automaton = compile_regex("ab")
        engine = VectorEngine(automaton)
        assert engine.count_reports(b"abab") == len(engine.run(b"abab").reports)


class TestBenchmarkRepr:
    def test_repr_is_informative(self):
        from repro.benchmarks import build_benchmark

        bench = build_benchmark("File Carving", scale=1.0, seed=0)
        text = repr(bench)
        assert "File Carving" in text
        assert "states" in text


class TestLargeCharsetAutomata:
    def test_vector_engine_chunked_charset_matrix(self):
        """Exercise the >1-chunk path of the packed charset build."""
        import repro.engines.lowered as lowered_module
        import repro.engines.vector as vector_module

        original = lowered_module._CHUNK
        lowered_module._CHUNK = 64
        try:
            from repro.regex import compile_ruleset

            automaton, _ = compile_ruleset(
                [(i, f"x{i:03d}y") for i in range(40)]  # 200 states > chunk
            )
            engine = vector_module.VectorEngine(automaton)
            assert engine.count_reports(b"zz x007y zz") == 1
        finally:
            lowered_module._CHUNK = original
