"""Differential conformance runner.

Feeds one (automaton, input) case to every registered engine — as a single
``run()`` and as chunked/zero-length-chunk streaming feeds — and to every
semantics-preserving transform (prefix/suffix/bidirectional merging,
widening, striding) with the transformed automaton additionally
round-tripped through the MNRL and ANML io layers, then diffs the
observable behaviour against :class:`~repro.engines.reference.ReferenceEngine`:

* the **report stream** — exact ``(offset, ident, code)`` events for
  engines and io round trips; the per-transform projection (e.g. the
  ``(offset, code)`` *set* for merges, which legally collapse same-code
  duplicates) for transforms;
* the **active-set trace** — enabled elements per cycle;
* the final **counter states** — ``(count, latched, stopped)`` per counter.

Each case is also handed to the static analyzer (:mod:`repro.analysis`):
the analyzer must not crash, and its universal claims (dead states,
unsatisfiable charsets, inert counters) are cross-checked against the
reference trace — the fuzzer deliberately produces the degenerate shapes
those passes flag, so every campaign doubles as an analyzer soundness
campaign.

Any mismatch (or a subject crash) becomes a :class:`Divergence`.  The
runner is the inner loop of :func:`repro.conformance.campaign.run_campaign`
and of the fixed-seed smoke tests; the shrinker replays it to minimise a
failing case.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

from repro import telemetry
from repro.core.automaton import Automaton
from repro.engines import ENGINE_REGISTRY
from repro.engines.base import Engine, Stream
from repro.engines.reference import ReferenceEngine
from repro.errors import ReproError
from repro.io import from_anml, from_mnrl, to_anml, to_mnrl
from repro.transforms import (
    merge_bidirectional,
    merge_common_prefixes,
    merge_common_suffixes,
    pack_bits,
    stride,
    widen,
)

__all__ = ["Divergence", "Outcome", "reference_outcome", "engine_outcome", "run_case"]

#: Chunk sizes used for streaming feeds; 0 means "insert a zero-length
#: feed between every chunk" and rides along with chunk size 3.
_STREAM_CHUNKS = (1, 7)


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement with the reference engine."""

    subject: str  #: e.g. ``engine:bitset[chunk=7]`` or ``transform:widen``
    field: str  #: ``reports`` | ``active`` | ``cycles`` | ``counters`` | ``crash``
    detail: str  #: human-readable expected-vs-actual summary

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.subject}: {self.field} diverged — {self.detail}"


@dataclass
class Outcome:
    """Canonical observable behaviour of one execution."""

    reports: list[tuple[int, str, str]]  #: sorted (offset, ident, repr(code))
    active: list[int]
    cycles: int
    counters: dict[str, tuple[int, bool, bool]]

    def event_set(self) -> frozenset[tuple[int, str]]:
        """The (offset, code) set projection merges must preserve."""
        return frozenset((offset, code) for offset, _ident, code in self.reports)


def _canonical_reports(batches) -> list[tuple[int, str, str]]:
    # ReportEvent.code is excluded from dataclass equality, so canonicalise
    # through repr() — the conformance diff must catch code corruption too.
    return sorted(
        (offset, ident, repr(code))
        for batch in batches
        for offset, ident, code in batch.iter_rows()
    )


def _counter_snapshot(stream: Stream) -> dict[str, tuple[int, bool, bool]]:
    return {
        ident: (state.count, state.latched, state.stopped)
        for ident, state in stream.counter_states.items()
    }


def _chunks(data: bytes, chunk: int) -> list[bytes]:
    if chunk <= 0:
        return [data]
    parts = [data[i : i + chunk] for i in range(0, len(data), chunk)]
    return parts or [b""]


def engine_outcome(
    engine: Engine, data: bytes, *, chunk: int = 0, zero_feeds: bool = False
) -> Outcome:
    """Run ``engine`` over ``data`` via its streaming session.

    ``chunk > 0`` splits the input into fixed-size feeds; ``zero_feeds``
    additionally interleaves empty feeds (chunk boundaries and zero-length
    feeds must both be invisible to the automaton).
    """
    with telemetry.span(f"conformance.scan.{type(engine).__name__}"):
        stream = engine.stream(record_active=True)
        batches = []
        for part in _chunks(data, chunk):
            if zero_feeds:
                batches.append(stream.feed(b""))
            batches.append(stream.feed(part))
        if zero_feeds:
            batches.append(stream.feed(b""))
    return Outcome(
        reports=_canonical_reports(batches),
        active=list(stream.active_per_cycle or []),
        cycles=stream.offset,
        counters=_counter_snapshot(stream),
    )


def reference_outcome(automaton: Automaton, data: bytes) -> Outcome:
    """The oracle outcome: one whole-input ReferenceEngine run."""
    return engine_outcome(ReferenceEngine(automaton), data)


def _diff(subject: str, expected: Outcome, actual: Outcome) -> list[Divergence]:
    out = []
    if actual.reports != expected.reports:
        out.append(
            Divergence(
                subject,
                "reports",
                f"expected {expected.reports!r}, got {actual.reports!r}",
            )
        )
    if actual.active != expected.active:
        out.append(
            Divergence(
                subject,
                "active",
                f"expected {expected.active!r}, got {actual.active!r}",
            )
        )
    if actual.cycles != expected.cycles:
        out.append(
            Divergence(
                subject, "cycles", f"expected {expected.cycles}, got {actual.cycles}"
            )
        )
    if actual.counters != expected.counters:
        out.append(
            Divergence(
                subject,
                "counters",
                f"expected {expected.counters!r}, got {actual.counters!r}",
            )
        )
    return out


def _crash(subject: str, exc: Exception) -> Divergence:
    return Divergence(subject, "crash", f"{type(exc).__name__}: {exc}")


def default_engine_factories() -> dict[str, Callable[[Automaton], Engine]]:
    """One factory per registered engine (the CLI ``--engine`` names)."""
    return {name: cls for name, cls in ENGINE_REGISTRY.items() if name != "reference"}


# -- transform subjects -------------------------------------------------------


def _mnrl_roundtrip(automaton: Automaton) -> Automaton:
    # Through an actual JSON encode/decode, so JSON-type coercion of report
    # codes is part of what is being tested.
    return from_mnrl(json.loads(json.dumps(to_mnrl(automaton))))


def _anml_roundtrip(automaton: Automaton) -> Automaton:
    return from_anml(to_anml(automaton))


def _merge_subjects(automaton: Automaton):
    yield "transform:prefix_merge", merge_common_prefixes(automaton)[0]
    yield "transform:suffix_merge", merge_common_suffixes(automaton)[0]
    yield "transform:bidirectional", merge_bidirectional(automaton)[0]


def _widen_applicable(automaton: Automaton, data: bytes, pad: int = 0) -> bool:
    if any(True for _ in automaton.counters()):
        return False
    if any(ste.charset.matches(pad) for ste in automaton.stes()):
        return False  # pad symbol inside a charset makes widening ambiguous
    return pad not in data


def _analysis_subjects(automaton: Automaton, data: bytes) -> list[Divergence]:
    """Lint the case and cross-check analyzer claims against the oracle.

    Two subjects: ``analysis:lint`` (the analyzer itself must never crash
    on any fuzzer-generated automaton) and ``analysis:crosscheck`` (every
    universal claim — "state is dead", "charset never matches", "counter
    never fires" — must hold on the ReferenceEngine's recorded trace for
    this input).  A violated claim is an analyzer soundness bug.
    """
    from repro.analysis import analyze
    from repro.analysis.crosscheck import claim_violations

    divergences: list[Divergence] = []
    try:
        report = analyze(automaton)
    except Exception as exc:  # noqa: BLE001 - analyzer crash is a finding
        return [_crash("analysis:lint", exc)]
    try:
        violations = claim_violations(automaton, data, report)
    except Exception as exc:  # noqa: BLE001
        return [_crash("analysis:crosscheck", exc)]
    divergences.extend(
        Divergence("analysis:crosscheck", "claims", violation)
        for violation in violations
    )
    return divergences


def run_case(
    automaton: Automaton,
    data: bytes,
    *,
    engine_factories: dict[str, Callable[[Automaton], Engine]] | None = None,
    include_transforms: bool = True,
    include_analysis: bool = True,
    bit_level: bool = False,
    stream_chunks: tuple[int, ...] = _STREAM_CHUNKS,
) -> list[Divergence]:
    """All divergences of one case against the reference engine.

    ``engine_factories`` overrides the engine set (the fault-injection
    tests pass deliberately broken engines through here); ``bit_level``
    additionally exercises :func:`~repro.transforms.striding.stride` for
    k in {2, 4, 8} over the packed input.  ``include_analysis`` runs the
    static analyzer over the case and cross-checks its universal claims
    against the reference trace (see :mod:`repro.analysis.crosscheck`).
    """
    expected = reference_outcome(automaton, data)
    has_counters = any(True for _ in automaton.counters())
    divergences: list[Divergence] = []
    if include_analysis:
        divergences.extend(_analysis_subjects(automaton, data))

    factories = engine_factories if engine_factories is not None else default_engine_factories()
    for name, factory in factories.items():
        if name == "dfa" and has_counters:
            continue  # LazyDFA rejects counters by contract
        try:
            engine = factory(automaton)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            divergences.append(_crash(f"engine:{name}", exc))
            continue
        subjects = [(f"engine:{name}", dict(chunk=0))]
        subjects += [
            (f"engine:{name}[chunk={c}]", dict(chunk=c)) for c in stream_chunks
        ]
        subjects.append((f"engine:{name}[chunk=3,zero-feeds]", dict(chunk=3, zero_feeds=True)))
        for subject, kwargs in subjects:
            try:
                outcome = engine_outcome(engine, data, **kwargs)
            except Exception as exc:  # noqa: BLE001
                divergences.append(_crash(subject, exc))
                continue
            divergences.extend(_diff(subject, expected, outcome))

    if not include_transforms:
        return divergences

    # io round trips preserve behaviour exactly.
    for subject, roundtrip in (
        ("io:mnrl-roundtrip", _mnrl_roundtrip),
        ("io:anml-roundtrip", _anml_roundtrip),
    ):
        try:
            back = roundtrip(automaton)
            outcome = reference_outcome(back, data)
        except Exception as exc:  # noqa: BLE001
            divergences.append(_crash(subject, exc))
            continue
        divergences.extend(_diff(subject, expected, outcome))

    # Merging transforms preserve the (offset, code) event *set* (same-code
    # duplicate states legally collapse into one event).  Each transformed
    # automaton is also round-tripped through MNRL before running, so the
    # io layer is exercised on transform output shapes too.
    for subject, merged in _merge_subjects(automaton):
        try:
            merged = _mnrl_roundtrip(merged)
            outcome = reference_outcome(merged, data)
        except Exception as exc:  # noqa: BLE001
            divergences.append(_crash(subject, exc))
            continue
        if outcome.event_set() != expected.event_set():
            divergences.append(
                Divergence(
                    subject,
                    "reports",
                    f"event set expected {sorted(expected.event_set())!r}, "
                    f"got {sorted(outcome.event_set())!r}",
                )
            )

    # Widening: reports move to the trailing pad byte, offset 2t+1 on the
    # pad-interleaved stream.
    if _widen_applicable(automaton, data):
        subject = "transform:widen"
        try:
            widened = _anml_roundtrip(widen(automaton))
            wide_data = bytes(b for sym in data for b in (sym, 0))
            outcome = reference_outcome(widened, wide_data)
        except Exception as exc:  # noqa: BLE001
            divergences.append(_crash(subject, exc))
        else:
            want = sorted((2 * off + 1, code) for off, _ident, code in expected.reports)
            got = sorted((off, code) for off, _ident, code in outcome.reports)
            if want != got:
                divergences.append(
                    Divergence(
                        subject,
                        "reports",
                        f"expected widened events {want!r}, got {got!r}",
                    )
                )

    # Striding (bit-level cases only): a bit report at offset t appears at
    # block t // k, with same-code reports inside one block deduplicated.
    if bit_level and not has_counters:
        for k in (2, 4, 8):
            subject = f"transform:stride-{k}"
            usable = len(data) - len(data) % k
            try:
                strided = _mnrl_roundtrip(stride(automaton, k))
                packed = pack_bits(data[:usable], k=k)
                outcome = reference_outcome(strided, packed)
            except ReproError as exc:
                divergences.append(_crash(subject, exc))
                continue
            except Exception as exc:  # noqa: BLE001
                divergences.append(_crash(subject, exc))
                continue
            want = {
                (off // k, code)
                for off, _ident, code in expected.reports
                if off < usable
            }
            got = {(off, code) for off, _ident, code in outcome.reports}
            if want != got:
                divergences.append(
                    Divergence(
                        subject,
                        "reports",
                        f"expected strided events {sorted(want)!r}, "
                        f"got {sorted(got)!r}",
                    )
                )

    return divergences
