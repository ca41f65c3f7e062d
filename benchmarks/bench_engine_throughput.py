"""Engine throughput sweep, machine-readable.

Runs a representative slice of the suite on every registered CPU engine
and writes ``bench_results/BENCH_engines.json``: per (benchmark, engine)
warm and cold ksym/s, report count, a digest of the sorted (offset,
ident) reports, and warm speedup over :class:`ReferenceEngine`.  The warm
rate is a rerun on an engine that has seen the input; the cold rate is
the first run on a freshly constructed engine (construction itself
untimed), so it includes the lazy DFA's first-touch memo computes.  The
JSON is the tracking artifact for the engine hot path — regressions show
up as a speedup or cold-rate drop against the numbers recorded in the
repo — and every engine of a row must produce the same report digest.

The benchmark slice covers the activity spectrum: Snort (sparse active
set, report-heavy), Hamming 18x3 and Levenshtein 19x3 (dense mesh
activity; the two halves of the ``dna_mesh`` workload's automaton),
Brill (mid-size token rules), and AP PRNG 4-sided (counter elements, so
the DFA engine sits this one out).  Random DNA almost never comes within
3 edits of an 18- or 19-base pattern, so each mesh row's input has every
filter's pattern planted in it, with up to 3 substitutions, and must
report.  The mesh rows also record the bitset engine's warm cost per
symbol on its memo walk and on its per-bit walk, each forced for the
whole input (``memo_us_per_sym``, ``bit_us_per_sym``): the two figures
the memo walk's cutover is calibrated from.
"""

from __future__ import annotations

import hashlib
import json
import time

from conftest import emit

from repro import telemetry
from repro.benchmarks import build_benchmark
from repro.engines import ENGINE_REGISTRY, BitsetEngine, ReferenceEngine
from repro.errors import EngineError, CapacityError
from repro.inputs.dna import plant_pattern, random_dna_patterns

BENCH_SLICE = ("Snort", "Hamming 18x3", "Levenshtein 19x3", "Brill", "AP PRNG 4-sided")
INPUT_LIMIT = 8_000
REPEATS = 5  # best-of-N: single runs are ~ms-scale and timing-noise-bound
MESHES = ("Hamming 18x3", "Levenshtein 19x3")
SEED = 0


def _input(bench) -> bytes:
    """The row's first :data:`INPUT_LIMIT` symbols; a mesh row's has each
    filter's pattern planted at evenly spaced offsets, the ``i``-th with
    ``i % (d + 1)`` substitutions, so every filter can report."""
    data = bench.input_data[:INPUT_LIMIT]
    if bench.name not in MESHES:
        return data
    meta = bench.meta
    patterns = random_dna_patterns(meta["filters"], meta["l"], seed=SEED)
    spacing = len(data) // len(patterns)
    for index, pattern in enumerate(patterns):
        data = plant_pattern(
            data, pattern, index * spacing, mutations=index % (meta["d"] + 1), seed=index
        )
    return data


def _digest(result) -> str:
    """A short digest of the sorted (offset, ident) reports."""
    rows = sorted((report.offset, report.ident) for report in result.reports)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _walk_costs(automaton, data) -> dict[str, float]:
    """Warm best-of-``REPEATS`` µs per symbol of the bitset engine forced
    onto its memo walk, then onto its per-bit walk, for the whole input."""
    costs = {}
    for walk, cutover in (("memo", -1.0), ("bit", float("inf"))):
        engine = BitsetEngine(automaton)
        engine._memo_cutover = cutover
        best = float("inf")
        for _ in range(REPEATS + 1):  # the first run warms the memo
            stream = engine.stream()
            stream._set_walk(walk)
            start = time.perf_counter()
            stream.feed(data)
            best = min(best, time.perf_counter() - start)
            assert stream._walk == walk
        costs[f"{walk}_us_per_sym"] = round(best / len(data) * 1e6, 2)
    return costs


def _rates(engine, automaton, data) -> tuple[float, float, str, int]:
    """Best-of-``REPEATS`` ``(cold, warm)`` symbol rates, the report
    digest and the report count.

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
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.run(data)
        warm = min(warm, time.perf_counter() - start)
    return len(data) / cold, len(data) / warm, _digest(result), result.report_count


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
        bench = build_benchmark(name, scale=scale, seed=SEED)
        data = _input(bench)
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
            cold, warm, digest, reports = _rates(engine, bench.automaton, data)
            rows[engine_name] = {
                "ksym_per_s": round(warm / 1e3, 1),
                "cold_ksym_per_s": round(cold / 1e3, 1),
                "reports": reports,
                "digest": digest,
            }
            if engine_cls is BitsetEngine and name in MESHES:
                rows[engine_name].update(_walk_costs(bench.automaton, data))
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
    for name, rows in results.items():
        row = rows.get("bitset", {})
        if "memo_us_per_sym" in row:
            lines.append(
                f"{name}: bitset warm memo walk {row['memo_us_per_sym']} us/sym, "
                f"per-bit walk {row['bit_us_per_sym']} us/sym"
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
        digests = {row["digest"] for row in rows.values() if "digest" in row}
        assert len(digests) <= 1, f"{name}: engines disagree on reports"
    for name in MESHES:
        for row in results[name].values():
            assert row.get("reports", 1) > 0, f"{name}: the planted matches did not report"
    if truncated:
        return  # partial artifact written; perf bound needs the full cells
    # the bit-parallel engine must beat the scalar reference comfortably on
    # the paper's flagship ruleset (measured >= 10x; conservative bound)
    assert results["Snort"]["bitset"]["speedup_vs_reference"] > 3
