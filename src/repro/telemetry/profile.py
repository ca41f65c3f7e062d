"""The ``repro profile`` harness: one instrumented benchmark/engine sweep.

Builds each requested benchmark, compiles and runs every requested engine
over its standard input with telemetry enabled, and writes a JSON profile
(``bench_results/PROFILE.json`` by default) in which every number is
traceable to instrumented engine behaviour:

* per-benchmark build and lint span totals (from
  :func:`repro.benchmarks.build_benchmark`'s spans);
* per-engine compile and scan wall times, throughput, report counts, and
  active-set statistics (mean/max enabled elements per symbol — the
  paper's CPU-performance proxy);
* the per-engine *counter delta*: exactly which telemetry counters that
  engine's compile+scan moved (lazy-DFA memo growth, matched-state
  popcounts, cache traffic, ...);
* compile-cache hit/miss/size totals and the full telemetry snapshot.

The schema is documented in docs/OBSERVABILITY.md and stamped into the
payload as ``schema``.

The sweep is *checkpointed* (docs/RESILIENCE.md): with a ``checkpoint``
path every finished (benchmark, engine) cell is journaled as it
completes, and ``resume=True`` re-runs only the missing cells — a killed
``repro profile`` continues instead of starting over.  With a ``budget``
each engine cell runs under the fallback ladder, so guard trips degrade
the cell to a lower engine (recorded in the row) instead of failing the
sweep; all ``resilience.*`` counters surface in the payload.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro import telemetry
from repro.benchmarks import build_benchmark
from repro.engines import ENGINE_REGISTRY
from repro.engines.cache import clear_engine_cache, compiled_engine, engine_cache_info
from repro.errors import CapacityError, EngineError, ResilienceError
from repro.resilience import faults
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.guards import ScanBudget
from repro.resilience.ladder import ladder_from, resilient_scan

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_BENCHMARKS",
    "DEFAULT_ENGINES",
    "SMOKE_BENCHMARKS",
    "SMOKE_ENGINES",
    "run_profile",
    "write_profile",
]

PROFILE_SCHEMA = "repro.profile/1"

#: The acceptance slice: the paper's flagship ruleset (sparse, report
#: heavy), the largest signature database, and a counter-free ML kernel.
DEFAULT_BENCHMARKS = ("Snort", "ClamAV", "Random Forest A")
DEFAULT_ENGINES = tuple(ENGINE_REGISTRY)

#: ``--smoke``: same benchmarks at a small scale/limit on the two
#: production CPU engines, fast enough for tier-1 CI.
SMOKE_BENCHMARKS = DEFAULT_BENCHMARKS
SMOKE_ENGINES = ("bitset", "vector")
SMOKE_SCALE = 0.002
SMOKE_LIMIT = 2_000


def _engine_profile(
    bench, engine_name: str, data: bytes, budget: ScanBudget | None = None
) -> dict:
    """Compile + run one engine over one benchmark input, instrumented.

    With a ``budget`` the cell runs under the fallback ladder: a guard
    trip degrades the scan to the next engine down instead of failing
    the cell, and the row records which engine actually completed it.
    """
    engine_cls = ENGINE_REGISTRY[engine_name]
    cache_before = engine_cache_info()
    snap_before = telemetry.snapshot()
    compile_t0 = time.perf_counter()
    try:
        engine = compiled_engine(bench.automaton, engine_cls)
    except (EngineError, CapacityError) as exc:
        return {"skipped": f"{type(exc).__name__}: {exc}"}
    compile_s = time.perf_counter() - compile_t0
    cache_after = engine_cache_info()

    scan_t0 = time.perf_counter()
    if budget is not None:
        try:
            outcome = resilient_scan(
                bench.automaton,
                data,
                ladder=ladder_from(engine_name),
                budget=budget,
                record_active=True,
            )
        except ResilienceError as exc:  # every rung failed
            return {"skipped": f"{type(exc).__name__}: {exc}"}
        result, engine_used, fallbacks = (
            outcome.result,
            outcome.engine,
            outcome.fallbacks,
        )
    else:
        result = engine.run(data, record_active=True)
        engine_used, fallbacks = engine_name, []
    scan_s = time.perf_counter() - scan_t0
    active = result.active_per_cycle or []
    delta = telemetry.diff_snapshots(snap_before, telemetry.snapshot())
    row = {
        "compile_s": round(compile_s, 6),
        "cache_hit": cache_after.hits > cache_before.hits,
        "scan_s": round(scan_s, 6),
        "ksym_per_s": round(len(data) / scan_s / 1e3, 1) if scan_s > 0 else None,
        "symbols": result.cycles,
        "reports": result.report_count,
        "mean_active_set": round(result.mean_active_set, 3),
        "max_active_set": max(active, default=0),
        "counters": delta["counters"],
    }
    if engine_used != engine_name or fallbacks:
        row["engine_used"] = engine_used
        row["fallbacks"] = [list(f) for f in fallbacks]
    return row


def run_profile(
    *,
    names=DEFAULT_BENCHMARKS,
    engines=DEFAULT_ENGINES,
    scale: float = 0.01,
    seed: int = 0,
    limit: int | None = 10_000,
    smoke: bool = False,
    budget: ScanBudget | None = None,
    checkpoint: str | pathlib.Path | None = None,
    resume: bool = False,
) -> dict:
    """Run the instrumented sweep and return the PROFILE.json payload.

    Telemetry is enabled for the duration (prior enabled-state restored),
    the registry is reset so the snapshot covers exactly this sweep, and
    the compile cache is cleared so compile timings are real compiles.

    With ``checkpoint`` every finished cell is journaled; ``resume=True``
    skips cells the journal already holds (their counter deltas are
    merged back so the payload's telemetry stays cumulative).  The
    journal is deleted once the sweep completes.
    """
    was_enabled = telemetry.is_enabled()
    telemetry.enable()
    telemetry.reset()
    clear_engine_cache()
    meta = {
        "names": list(names),
        "engines": list(engines),
        "scale": scale,
        "seed": seed,
        "limit": limit,
        "smoke": smoke,
    }
    ckpt = (
        SweepCheckpoint.open(checkpoint, meta, resume=resume) if checkpoint else None
    )
    started = time.perf_counter()
    benchmarks: dict[str, dict] = {}

    def restore_row(row: dict) -> dict:
        # Fold a resumed cell's counter delta back into the live registry
        # so the payload's cumulative telemetry covers resumed work too.
        if row.get("counters"):
            telemetry.merge({"counters": row["counters"]})
        return row

    try:
        for name in names:
            bench_key = f"{name}::__benchmark__"
            if (
                ckpt is not None
                and ckpt.has(bench_key)
                and all(ckpt.has(f"{name}::{e}") for e in engines)
            ):
                # Every cell of this benchmark resumed: skip the build.
                rows = {e: restore_row(ckpt.get(f"{name}::{e}")) for e in engines}
                benchmarks[name] = {**ckpt.get(bench_key), "engines": rows}
                continue
            bench_before = telemetry.snapshot()
            bench = build_benchmark(name, scale=scale, seed=seed)
            build_delta = telemetry.diff_snapshots(bench_before, telemetry.snapshot())
            data = bench.input_data[:limit] if limit else bench.input_data
            rows = {}
            for engine_name in engines:
                cell_key = f"{name}::{engine_name}"
                if ckpt is not None and ckpt.has(cell_key):
                    rows[engine_name] = restore_row(ckpt.get(cell_key))
                    continue
                rows[engine_name] = _engine_profile(
                    bench, engine_name, data, budget=budget
                )
                if ckpt is not None:
                    ckpt.record(cell_key, rows[engine_name])
                    faults.maybe_halt_after_cells(len(ckpt.cells))
            info = {
                "states": bench.automaton.n_states,
                "input_symbols": len(data),
                "build_s": round(
                    telemetry.timer_total(f"benchmark.build.{name}", build_delta), 6
                ),
                "lint_s": round(
                    telemetry.timer_total(f"benchmark.lint.{name}", build_delta), 6
                ),
            }
            if ckpt is not None:
                ckpt.record(bench_key, info)
                faults.maybe_halt_after_cells(len(ckpt.cells))
            benchmarks[name] = {**info, "engines": rows}
        cache = engine_cache_info()
        snapshot = telemetry.snapshot()
        payload = {
            "schema": PROFILE_SCHEMA,
            "smoke": smoke,
            "scale": scale,
            "seed": seed,
            "limit": limit,
            "elapsed_s": round(time.perf_counter() - started, 3),
            "benchmarks": benchmarks,
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "size": cache.size,
                "maxsize": cache.maxsize,
                "resident": cache.resident,
            },
            "resilience": {
                "resumed_cells": ckpt.resumed_cells if ckpt is not None else 0,
                "counters": {
                    key: value
                    for key, value in snapshot["counters"].items()
                    if key.startswith("resilience.")
                },
            },
            "telemetry": snapshot,
        }
        if ckpt is not None:
            ckpt.done()
        return payload
    finally:
        if not was_enabled:
            telemetry.disable()


def write_profile(payload: dict, out: str | pathlib.Path) -> pathlib.Path:
    """Serialise a profile payload to ``out`` (parents created)."""
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
