"""Engine throughput sweep, machine-readable.

Runs a representative slice of the suite on every registered CPU engine
and writes ``bench_results/BENCH_engines.json``: per (benchmark, engine)
warm and cold ksym/s, report count, and warm speedup over
:class:`ReferenceEngine`.  The warm rate is a rerun on an engine that has
seen the input; the cold rate is the first run on a freshly constructed
engine (construction itself untimed), so it includes the lazy DFA's
first-touch memo computes.  The JSON is the tracking artifact for the
engine hot path — regressions show up as a speedup or cold-rate drop
against the numbers recorded in the repo.

The benchmark slice covers the activity spectrum: Snort (sparse active
set, report-heavy), Hamming 18x3 and Levenshtein 19x3 (dense mesh
activity; the two halves of the ``dna_mesh`` workload's automaton),
Brill (mid-size token rules), and AP PRNG 4-sided (counter elements, so
the DFA engine sits this one out).
"""

from __future__ import annotations

import json
import time

from conftest import emit

from repro import telemetry
from repro.benchmarks import build_benchmark
from repro.engines import ENGINE_REGISTRY, ReferenceEngine
from repro.errors import EngineError, CapacityError

BENCH_SLICE = ("Snort", "Hamming 18x3", "Levenshtein 19x3", "Brill", "AP PRNG 4-sided")
INPUT_LIMIT = 8_000
REPEATS = 5  # best-of-N: single runs are ~ms-scale and timing-noise-bound


def _rates(engine, automaton, data) -> tuple[float, float, int]:
    """Best-of-``REPEATS`` ``(cold, warm)`` symbol rates and the report count.

    ``engine`` is freshly constructed; each further cold sample builds
    another of its class directly (not through the compile cache), so every
    cold run starts from an empty memo.  Scan errors propagate.
    """
    cold = float("inf")
    for repeat in range(REPEATS):
        if repeat:
            engine = type(engine)(automaton)
        start = time.perf_counter()
        engine.run(data)
        cold = min(cold, time.perf_counter() - start)
    warm = float("inf")
    reports = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        reports = engine.run(data).report_count
        warm = min(warm, time.perf_counter() - start)
    return len(data) / cold, len(data) / warm, reports


def run_experiment(scale: float, max_seconds: float | None = None):
    """The sweep; returns ``(results, truncated)``.

    With a ``max_seconds`` budget, cells that would start past the
    deadline are marked skipped (``"truncated by time budget"``) and
    ``truncated`` is True — the artifact stays a complete, valid JSON
    document covering whatever finished in time (docs/RESILIENCE.md).
    """
    deadline = (
        time.perf_counter() + max_seconds if max_seconds is not None else None
    )
    truncated = False
    results: dict[str, dict[str, dict]] = {}
    for name in BENCH_SLICE:
        rows: dict[str, dict] = {}
        results[name] = rows
        if deadline is not None and time.perf_counter() > deadline:
            truncated = True
            rows.update(
                {e: {"skipped": "truncated by time budget"} for e in ENGINE_REGISTRY}
            )
            continue
        bench = build_benchmark(name, scale=scale, seed=0)
        data = bench.input_data[:INPUT_LIMIT]
        for engine_name, engine_cls in ENGINE_REGISTRY.items():
            if deadline is not None and time.perf_counter() > deadline:
                truncated = True
                rows[engine_name] = {"skipped": "truncated by time budget"}
                continue
            try:
                engine = engine_cls(bench.automaton)
            except (EngineError, CapacityError) as exc:
                rows[engine_name] = {"skipped": str(exc)}
                continue
            cold, warm, reports = _rates(engine, bench.automaton, data)
            rows[engine_name] = {
                "ksym_per_s": round(warm / 1e3, 1),
                "cold_ksym_per_s": round(cold / 1e3, 1),
                "reports": reports,
            }
        reference = rows.get("reference", {}).get("ksym_per_s")
        if reference:
            for row in rows.values():
                if "ksym_per_s" in row:
                    row["speedup_vs_reference"] = round(
                        row["ksym_per_s"] / reference, 2
                    )
    return results, truncated


def render(results) -> str:
    lines = [
        f"{'Benchmark':18s} {'Engine':10s} {'ksym/s':>10s} {'cold':>10s} "
        f"{'reports':>8s} {'vs ref':>7s}"
    ]
    for name, rows in results.items():
        for engine_name, row in rows.items():
            if "skipped" in row:
                lines.append(
                    f"{name:18s} {engine_name:10s} {'--':>10s} {'--':>10s} "
                    f"{'--':>8s} {'--':>7s}"
                )
            else:
                lines.append(
                    f"{name:18s} {engine_name:10s} {row['ksym_per_s']:10.1f} "
                    f"{row['cold_ksym_per_s']:10.1f} {row['reports']:8d} "
                    f"{row['speedup_vs_reference']:6.1f}x"
                )
    return "\n".join(lines)


def test_engine_throughput(benchmark, scale, results_dir, max_seconds):
    # Telemetry rides along (feed-level instrumentation, so the per-symbol
    # hot loops are untouched, except that the bitset memo walk sums each
    # symbol's matched count); the snapshot lands in the JSON artifact so
    # a speedup regression comes with its compile/scan/memo breakdown.
    was_enabled = telemetry.is_enabled()
    telemetry.enable()
    telemetry.reset()
    try:
        results, truncated = benchmark.pedantic(
            run_experiment, args=(scale, max_seconds), rounds=1, iterations=1
        )
        telemetry_snapshot = telemetry.snapshot()
    finally:
        if not was_enabled:
            telemetry.disable()
    (results_dir / "BENCH_engines.json").write_text(
        json.dumps(
            {
                "scale": scale,
                "input_limit": INPUT_LIMIT,
                "truncated": truncated,
                "results": results,
                "telemetry": telemetry_snapshot,
            },
            indent=2,
        )
        + "\n"
    )
    emit(results_dir, "engine_throughput", render(results))
    for name, rows in results.items():
        counts = {row["reports"] for row in rows.values() if "reports" in row}
        assert len(counts) <= 1, f"{name}: engines disagree on report count"
    if truncated:
        return  # partial artifact written; perf bound needs the full cells
    # the bit-parallel engine must beat the scalar reference comfortably on
    # the paper's flagship ruleset (measured >= 10x; conservative bound)
    assert results["Snort"]["bitset"]["speedup_vs_reference"] > 3
