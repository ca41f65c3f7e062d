"""Input-parallel scanning (the Parallel Automata Processor mechanism).

The paper's capacity argument assumes "2x capacity (and 2x performance
with input parallelization)" — Subramaniyan & Das's technique of splitting
the input across automaton replicas.  The subtlety is cross-boundary
matches: a segment cannot see matches that started in its predecessor.
For automata with a *finite maximum match length* L the classic fix is
overlap: each segment (except the first) is extended L-1 symbols to the
left, and reports landing in the overlap are attributed to the previous
segment's scan (deduplicated).

:func:`split_with_overlap` computes the segmentation, :func:`parallel_scan`
runs it (serially or on a process pool) and merges reports; a property test
pins equality with the single-stream scan.  A pool worker unpickles each
automaton once per fingerprint and keeps it resident (see
:mod:`repro.resilience.supervisor`); later tasks reuse that copy.
Automata with unbounded match length (cycles on a reporting path) cannot
be segment-scanned this way and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.automaton import Automaton
from repro.engines.base import Engine, RunResult
from repro.engines.vector import VectorEngine

__all__ = ["Segment", "split_with_overlap", "parallel_scan", "parallel_speedup_model"]


@dataclass(frozen=True)
class Segment:
    """One input segment: scan [scan_start, end), keep reports >= keep_from."""

    scan_start: int
    keep_from: int
    end: int


def split_with_overlap(
    data_length: int, n_segments: int, overlap: int
) -> list[Segment]:
    """Partition ``[0, data_length)`` into segments with left overlap.

    The keep ranges ``[keep_from, end)`` always form a covering,
    non-overlapping partition of the input, every segment is non-empty
    (sizes differ by at most one symbol), and no more segments are
    produced than there are symbols — ``n_segments > data_length``
    degenerates to one segment per symbol rather than to empty or dropped
    segments.  A zero-length input yields the single empty segment.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if overlap < 0:
        raise ValueError("overlap cannot be negative")
    count = max(1, min(n_segments, data_length))
    base, extra = divmod(data_length, count)
    segments = []
    keep_from = 0
    for index in range(count):
        end = keep_from + base + (1 if index < extra else 0)
        segments.append(Segment(max(0, keep_from - overlap), keep_from, end))
        keep_from = end
    return segments


def parallel_scan(
    automaton: Automaton,
    data: bytes,
    n_segments: int,
    *,
    pool=None,
    engine_cls: type[Engine] | None = None,
) -> RunResult:
    """Scan ``data`` as ``n_segments`` independent overlapped segments.

    Requires an unanchored automaton (anchored matches belong to segment 0
    only and would need special casing) with finite match length.  Pass a
    ``concurrent.futures`` executor as ``pool`` to actually parallelise;
    the default runs segments serially (the semantics are the point — on a
    spatial architecture each segment is a hardware replica).  Segment
    engines default to :class:`VectorEngine`; each worker unpickles the
    automaton once per fingerprint and compiles it once through the engine
    cache.  Pass ``engine_cls`` (e.g.
    :class:`~repro.engines.bitset.BitsetEngine`) to pick the engine.

    This is the *strict mode* of
    :func:`repro.resilience.supervisor.supervised_parallel_scan`: one
    attempt per segment, no timeouts, no fallback — the first segment
    failure re-raises in the caller.  Use the supervised form directly
    for timeouts, crash recovery, retries, and poison-segment isolation.
    """
    # Imported lazily: the supervisor imports the engine registry, which
    # imports this module.
    from repro.errors import EngineFailure
    from repro.resilience.supervisor import SupervisorConfig, supervised_parallel_scan

    outcome = supervised_parallel_scan(
        automaton,
        data,
        n_segments,
        pool=pool,
        engine=engine_cls if engine_cls is not None else VectorEngine,
        config=SupervisorConfig(max_attempts=1),
    )
    if not outcome.complete:
        bad = outcome.poisoned[0]
        if bad.exception is not None:
            raise bad.exception
        raise EngineFailure(
            "parallel", bad.error or "segment scan failed", segment=bad.index
        )
    return outcome.result


def parallel_speedup_model(
    data_length: int, n_segments: int, match_window: int
) -> float:
    """Ideal speedup accounting for overlap re-scanning.

    With L-1 symbols of overlap per segment the total work is
    ``data_length + (n-1)(L-1)`` symbols spread over ``n`` replicas.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    overlap = max(match_window - 1, 0) if n_segments > 1 else 0
    per_segment = data_length / n_segments + overlap
    return data_length / per_segment
