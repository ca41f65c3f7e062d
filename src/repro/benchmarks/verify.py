"""Suite self-verification: does a generated benchmark behave as designed?

``verify_benchmark`` runs family-specific semantic checks on a
:class:`~repro.benchmarks.spec.Benchmark` — planted virus fragments are
detected, mesh report rates track the analytic model, PRNG chains emit one
face per cycle, the forest classifies far above chance, and so on —
returning a list of human-readable problems (empty = healthy).  This is
the suite's regression safety net: any generator change that silently
breaks a benchmark's semantics fails these checks at every scale.
"""

from __future__ import annotations

from repro.benchmarks.spec import Benchmark
from repro.engines.vector import VectorEngine
from repro.profiling.analytic import hamming_match_probability

__all__ = ["verify_benchmark"]

_INPUT_SLICE = 20_000


def _run(benchmark: Benchmark, *, record_active: bool = False):
    engine = VectorEngine(benchmark.automaton)
    return engine.run(benchmark.input_data[:_INPUT_SLICE], record_active=record_active)


def _verify_structure(benchmark: Benchmark, problems: list[str]) -> None:
    try:
        benchmark.automaton.validate()
    except Exception as exc:  # noqa: BLE001 - collected, not raised
        problems.append(f"automaton fails validation: {exc}")
    if benchmark.states == 0:
        problems.append("automaton is empty")
    if not benchmark.input_data:
        problems.append("standard input is empty")


def _verify_clamav(benchmark: Benchmark, problems: list[str]) -> None:
    result = VectorEngine(benchmark.automaton).run(benchmark.input_data)
    detected = {code for _offset, _ident, code in result.reports.iter_rows()}
    missing = set(benchmark.meta.get("planted", ())) - detected
    if missing:
        problems.append(f"planted virus fragments not detected: {sorted(missing)}")


def _verify_yara(benchmark: Benchmark, problems: list[str]) -> None:
    result = VectorEngine(benchmark.automaton).run(benchmark.input_data)
    fired_rules = {code[0] for _offset, _ident, code in result.reports.iter_rows()}
    planted = set(benchmark.meta.get("planted", ()))
    # wide benchmarks include only wide strings; planted rules without
    # wide strings legitimately cannot fire there
    if benchmark.name == "YARA Wide":
        return
    missing = planted - fired_rules
    if missing:
        problems.append(f"planted YARA rules never fired: {sorted(missing)[:5]}")


def _verify_hamming(benchmark: Benchmark, problems: list[str]) -> None:
    l, d = benchmark.meta["l"], benchmark.meta["d"]
    n_filters = benchmark.meta["filters"]
    result = _run(benchmark)
    symbols = min(len(benchmark.input_data), _INPUT_SLICE)
    expected = hamming_match_probability(l, d) * symbols * n_filters
    observed = len(
        {(offset, code[0]) for offset, _ident, code in result.reports.iter_rows()}
    )
    # Poisson-ish tolerance: generous bounds, catches gross breakage only
    if expected >= 5 and not (0.2 * expected <= observed <= 5 * expected):
        problems.append(
            f"hamming report count {observed} far from analytic {expected:.1f}"
        )
    if expected < 1 and observed > 50:
        problems.append(f"hamming reports {observed} where ~none expected")


def _verify_apprng(benchmark: Benchmark, problems: list[str]) -> None:
    result = _run(benchmark)
    n_chains = benchmark.meta["chains"]
    symbols = min(len(benchmark.input_data), _INPUT_SLICE)
    expected = (symbols - 1) * n_chains
    if result.report_count != expected:
        problems.append(
            f"PRNG emitted {result.report_count} faces, expected {expected} "
            "(one per chain per cycle after the first)"
        )


def _verify_random_forest(benchmark: Benchmark, problems: list[str]) -> None:
    accuracy = benchmark.meta.get("accuracy", 0.0)
    if accuracy < 0.3:  # 10-class chance is 0.1
        problems.append(f"forest accuracy {accuracy:.2f} barely above chance")


def _verify_seqmatch(benchmark: Benchmark, problems: list[str]) -> None:
    result = _run(benchmark)
    n_patterns = benchmark.meta["patterns"]
    if benchmark.meta.get("counters"):
        counters = sum(1 for _ in benchmark.automaton.counters())
        if counters != n_patterns:
            problems.append(f"{counters} counters for {n_patterns} patterns")
        if result.report_count > n_patterns:
            problems.append("STOP counters reported more than once each")


_FAMILY_CHECKS = {
    "ClamAV": _verify_clamav,
    "YARA": _verify_yara,
    "YARA Wide": _verify_yara,
    "AP PRNG 4-sided": _verify_apprng,
    "AP PRNG 8-sided": _verify_apprng,
}


def verify_benchmark(benchmark: Benchmark) -> list[str]:
    """Run structural + family-specific checks; return problems found."""
    problems: list[str] = []
    _verify_structure(benchmark, problems)
    if problems:
        return problems  # structural failure: skip semantic checks

    if benchmark.name.startswith("Hamming"):
        _verify_hamming(benchmark, problems)
    elif benchmark.name.startswith("Random Forest"):
        _verify_random_forest(benchmark, problems)
    elif benchmark.name.startswith("Seq. Match"):
        _verify_seqmatch(benchmark, problems)
    else:
        check = _FAMILY_CHECKS.get(benchmark.name)
        if check is not None:
            check(benchmark, problems)
        else:
            # generic: the standard input must exercise the automaton —
            # if no state ever matches, the active set never rises above
            # the self-enabling start states and nothing reports
            result = _run(benchmark, record_active=True)
            baseline = result.active_per_cycle[0] if result.active_per_cycle else 0
            if (
                not result.reports
                and all(a <= baseline for a in result.active_per_cycle)
            ):
                problems.append("standard input never activates any state")
    return problems
