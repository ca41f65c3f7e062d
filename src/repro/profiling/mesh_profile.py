"""Profile-driven mesh benchmark design (Section X, Figure 1, Table V).

The paper's methodology: for each scoring distance ``d``, build ``N=10``
filters of length ``l`` from random DNA patterns, simulate them on one
million random DNA symbols for 10 trials, and grow ``l`` until the average
number of matches per filter drops below one per million inputs.  The
chosen ``{d, l}`` becomes the benchmark dimension (Table V), and the sweep
is Figure 1.

Two measurement paths are provided:

* ``method="fast"`` (default) counts matches with the CPU-native oracles
  (vectorised window scan for Hamming, Myers bit-parallel for
  Levenshtein).  The mesh automata are property-tested equivalent to these
  oracles, so this is a *validated* acceleration of the paper's VASim runs.
* ``method="automata"`` runs the actual mesh automata on the VectorEngine,
  which is exactly the paper's procedure (use reduced ``n_symbols``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.matchers import MyersMatcher, hamming_matches
from repro.benchmarks.mesh import hamming_automaton, levenshtein_automaton
from repro.engines.vector import VectorEngine
from repro.inputs.dna import random_dna, random_dna_patterns

__all__ = ["ProfilePoint", "measure_rate", "select_pattern_length", "figure1_sweep"]

KERNELS = ("hamming", "levenshtein")


@dataclass(frozen=True)
class ProfilePoint:
    """One Figure 1 data point."""

    kernel: str
    d: int
    l: int
    reports_per_million: float  # average per filter


def _count_matches(kernel: str, pattern: bytes, data: bytes, d: int, method: str) -> int:
    if method == "fast":
        if kernel == "hamming":
            return len(hamming_matches(pattern, data, d))
        return len(MyersMatcher(pattern, d).search(data))
    if method == "automata":
        if kernel == "hamming":
            automaton = hamming_automaton(pattern, d)
        else:
            automaton = levenshtein_automaton(pattern, d)
        result = VectorEngine(automaton).run(data)
        return len(result.reports.offsets)
    raise ValueError(f"unknown method {method!r}")


def measure_rate(
    kernel: str,
    d: int,
    l: int,
    *,
    n_filters: int = 10,
    n_symbols: int = 1_000_000,
    trials: int = 10,
    seed: int = 0,
    method: str = "fast",
) -> ProfilePoint:
    """Average reports per filter, scaled to per-million-symbols."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}")
    if l <= d and kernel == "levenshtein":
        raise ValueError("levenshtein profiling needs l > d")
    total = 0
    for trial in range(trials):
        patterns = random_dna_patterns(n_filters, l, seed=seed * 7919 + trial)
        data = random_dna(n_symbols, seed=seed * 104729 + trial + 1)
        for pattern in patterns:
            total += _count_matches(kernel, pattern, data, d, method)
    per_filter_per_symbol = total / (trials * n_filters * n_symbols)
    return ProfilePoint(
        kernel=kernel, d=d, l=l, reports_per_million=per_filter_per_symbol * 1_000_000
    )


def select_pattern_length(
    kernel: str,
    d: int,
    *,
    threshold_per_million: float = 1.0,
    l_start: int | None = None,
    l_max: int = 80,
    **measure_kwargs,
) -> tuple[int, list[ProfilePoint]]:
    """The paper's Section X-C procedure: grow ``l`` until the measured
    rate drops below the threshold; return the chosen length and the full
    sweep (the benchmark's Figure 1 series)."""
    l = l_start if l_start is not None else d + 2
    points: list[ProfilePoint] = []
    while l <= l_max:
        point = measure_rate(kernel, d, l, **measure_kwargs)
        points.append(point)
        if point.reports_per_million < threshold_per_million:
            return l, points
        l += 1
    raise ValueError(f"no length up to {l_max} meets the rate threshold")


def figure1_sweep(
    kernel: str,
    d: int,
    l_values,
    **measure_kwargs,
) -> list[ProfilePoint]:
    """Measured report rates for an explicit range of lengths."""
    return [measure_rate(kernel, d, l, **measure_kwargs) for l in l_values]
