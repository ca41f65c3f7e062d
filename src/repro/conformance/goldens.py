"""Golden report-stream digests for the 24 benchmark generators.

Every AutomataZoo benchmark is a *standard* automaton plus a *standard*
input whose report stream is the ground truth.  This module pins that
ground truth: for each benchmark built at a fixed (scale, seed), it
records

* the structural fingerprint of the generated automaton
  (:func:`repro.engines.cache.automaton_fingerprint` — elements, charsets,
  start/report flags, edges, reset wires),
* a SHA-256 over the standard input slice, and
* a SHA-256 over the canonical report stream of running that input.

The registry lives in ``goldens.json`` next to this module.  A single
regression test compares freshly computed digests against it, so *any*
behavioral drift — in a generator, an input stimulus, an engine, or a
transform feeding them — fails loudly, even when the drift keeps report
counts identical.

Intentional changes are ratified with the escape hatch::

    repro conformance --update-goldens

which recomputes and rewrites the registry (documented in
``docs/TESTING.md``; the diff of ``goldens.json`` then shows exactly which
benchmarks changed behaviour).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.engines import auto_engine
from repro.engines.cache import automaton_fingerprint

__all__ = [
    "GOLDEN_SCALE",
    "GOLDEN_SEED",
    "GOLDEN_LIMIT",
    "benchmark_digest",
    "compute_goldens",
    "goldens_path",
    "load_goldens",
    "save_goldens",
    "check_goldens",
]

#: Fixed build parameters for the registry.  Small enough that computing
#: all 24 digests stays a few seconds; the *per-pattern* construction is
#: scale-invariant, so drift at this scale is drift at full scale.
GOLDEN_SCALE = 0.002
GOLDEN_SEED = 7
GOLDEN_LIMIT = 1500


def goldens_path() -> pathlib.Path:
    """The checked-in registry file (next to this module)."""
    return pathlib.Path(__file__).parent / "goldens.json"


def benchmark_digest(
    name: str,
    *,
    scale: float = GOLDEN_SCALE,
    seed: int = GOLDEN_SEED,
    limit: int = GOLDEN_LIMIT,
) -> dict:
    """Digest of one benchmark's standard automaton + report stream."""
    bench = build_benchmark(name, scale=scale, seed=seed)
    data = bench.input_data[:limit]
    result = auto_engine(bench.automaton).run(data)
    report_hash = hashlib.sha256()
    for event in sorted(
        (offset, ident, repr(code))
        for offset, ident, code in result.reports.iter_rows()
    ):
        report_hash.update(repr(event).encode())
        report_hash.update(b"\n")
    return {
        "fingerprint": automaton_fingerprint(bench.automaton),
        "input_sha256": hashlib.sha256(data).hexdigest(),
        "report_sha256": report_hash.hexdigest(),
        "states": bench.automaton.n_states,
        "edges": bench.automaton.n_edges,
        "input_len": len(data),
        "report_count": result.report_count,
    }


def compute_goldens(names=None, *, progress=None) -> dict:
    """Digests for every benchmark (or a subset), keyed by name."""
    out = {}
    for name in names if names is not None else BENCHMARK_NAMES:
        if progress is not None:
            progress(name)
        out[name] = benchmark_digest(name)
    return out


def load_goldens(path: str | pathlib.Path | None = None) -> dict:
    source = pathlib.Path(path) if path is not None else goldens_path()
    return json.loads(source.read_text())


def save_goldens(goldens: dict, path: str | pathlib.Path | None = None) -> pathlib.Path:
    target = pathlib.Path(path) if path is not None else goldens_path()
    target.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return target


def check_goldens(
    names=None, *, path: str | pathlib.Path | None = None, progress=None
) -> list[str]:
    """Compare fresh digests against the registry; returns problem strings.

    An empty list means every generator, input stimulus and the engine
    running them behave byte-for-byte as pinned.
    """
    golden = load_goldens(path)
    problems = []
    selected = list(names) if names is not None else list(BENCHMARK_NAMES)
    for name in selected:
        if name not in golden:
            problems.append(f"{name}: no golden entry (run --update-goldens)")
            continue
        if progress is not None:
            progress(name)
        fresh = benchmark_digest(name)
        for key, want in golden[name].items():
            got = fresh.get(key)
            if got != want:
                problems.append(f"{name}: {key} drifted (golden {want!r}, got {got!r})")
    extra = set(golden) - set(selected)
    if names is None and extra:
        problems.extend(f"{name}: golden entry for unknown benchmark" for name in sorted(extra))
    return problems
