"""Closed-loop client, metrics, correctness checks and the traced run.

One run of one workload:

1. **Set-up**, timed as ``setup_s``: clear the engine compile cache, build
   the workload from the seed, make one full warm-up pass over the request
   sequence (the first set-up's digests are the expected outputs), then
   collect and freeze garbage so set-up garbage is never collected while
   timing.
2. **Timed pass**: one client replays the same request sequence, sending
   each request after the previous one completed.
3. An untraced run makes ``PASSES`` cycles of set-up and timed pass and
   reports the median set-up time; each request's time is its fastest
   over the passes.
4. **Checks**, outside all timing windows: every timed digest must equal
   the expected one, and a fixed sample of requests is re-scanned on
   ``ReferenceEngine``.

Every reported time is scaled to a reference host speed measured by
``probe``, which runs before each request and throughout set-up.

End-to-end metrics are measured with telemetry off.  The traced run
(``trace=True``) sets up once with telemetry on, makes ``PASSES`` untraced
passes and then ``PASSES`` traced ones, and derives the per-layer metrics
of the last traced pass from the library's telemetry and the benchmark's
own spans.
"""

from __future__ import annotations

import contextlib
import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from repro import telemetry
from repro.engines.cache import clear_engine_cache

from workloads import Outcome, Workload, report_digest

__all__ = [
    "END_TO_END",
    "MIN_REQUESTS",
    "PER_LAYER",
    "RunResult",
    "Tracer",
    "default_requests",
    "run_workload",
]

#: p95 of 200 requests still has ten samples above it.
MIN_REQUESTS = 200
#: Timed passes per phase, and set-ups per untraced run.  A request's time
#: is its best over the passes: load from other tenants of a shared host
#: only ever slows a request, and comes in bursts of seconds.
PASSES = 3
#: Host speed is measured by ``probe`` around every request, and times are
#: reported at the speed where one probe takes this long.  On a shared
#: host the same work was seen to take up to 1.8 times longer for seconds
#: at a time; the probe slows by the same factor.
PROBE_REFERENCE_S = 0.0005

#: name -> unit, for every metric an untraced run prints.
END_TO_END = {
    "setup_s": "s",
    "scan_ksym_s": "ksym/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "ratio",
    "undegraded_frac": "ratio",
}

#: name -> unit, for every metric a traced run prints.
PER_LAYER = {
    "build.generate_s": "s",
    "analysis.lint_s": "s/call",
    "regex.compile_s": "s/call",
    "cache.fingerprint_s": "s/call",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "engine.compile_s": "s/call",
    "lazydfa.memo_computes": "count",
    "lazydfa.dfa_states": "count",
    "lazydfa.scan_s": "s/request",
    "bitset.scan_s": "s/request",
    "bitset.matched_per_sym": "states/sym",
    "report.per_ksym": "reports/ksym",
    "ladder.self_s": "s/request",
    "ladder.fallbacks": "count",
    "parallel.dispatch_s": "s/request",
    "parallel.segment_s": "s/request",
    "parallel.overlap_frac": "ratio",
    "parallel.worker_busy_frac": "ratio",
    "telemetry.overhead_frac": "ratio",
}


_NO_SPAN = contextlib.nullcontext()


class Tracer:
    """In-memory spans ``(name, request, parent, start, end)``.

    Spans of one request share its index (``-1`` outside requests); the
    parent is the enclosing span's name.  Disabled, ``span`` returns a
    shared no-op context manager.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.spans: list[tuple[str, int, str | None, float, float]] = []
        self._stack: list[str] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def by_request(self, name: str) -> dict[int, tuple[float, int]]:
        """``request -> (total seconds, count)`` of the spans called ``name``."""
        out: dict[int, tuple[float, int]] = {}
        for span_name, request, _, start, end in self.spans:
            if span_name == name:
                total, count = out.get(request, (0.0, 0))
                out[request] = (total + end - start, count + 1)
        return out


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._stack.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append((self.name, tracer.request, parent, self.start, end))
        return False


def default_requests(workload_cls: type[Workload], seconds: float) -> int:
    """Requests per pass so the timed phase is ``seconds`` of nominal work,
    but at least ``MIN_REQUESTS``."""
    per_pass = seconds / PASSES / workload_cls.nominal_request_s
    return max(MIN_REQUESTS, math.ceil(per_pass))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def probe() -> float:
    """Run the calibration loop once; returns its wall seconds.

    A fixed mix of the operations the engines spend their time on (dict
    lookups, big-int shifts and masks, list appends) that takes about
    ``PROBE_REFERENCE_S`` on an unloaded host.
    """
    started = time.perf_counter()
    counts: dict[int, int] = {}
    mask = (1 << 300) - 1
    acc = 0
    out = []
    for i in range(1500):
        key = i & 255
        acc = ((acc << 1) | (i & 1)) & mask
        counts[key] = counts.get(key, 0) + 1
        out.append(acc & 0xFF)
    return time.perf_counter() - started


def _host_scale(probes: list[float], start: int, stop: int) -> float:
    """Factor converting seconds measured while ``probes[start:stop]`` ran
    into seconds at the reference host speed."""
    window = sorted(probes[max(0, start) : stop])
    return PROBE_REFERENCE_S / window[len(window) // 2]


@dataclass
class _Pass:
    """One closed-loop pass over the request sequence."""

    outcomes: list[Outcome | None]
    #: Wall seconds per request, as measured.
    raw_latencies: list[float]
    #: The same at the reference host speed (see ``probe``).
    latencies: list[float]
    #: Per-request telemetry snapshots (traced passes only).
    snapshots: list[dict]


def _best(passes: list[_Pass], raw: bool = False) -> list[float]:
    """Each request's fastest time over ``passes``."""
    field = "raw_latencies" if raw else "latencies"
    return [min(times) for times in zip(*(getattr(p, field) for p in passes))]


def _ksym_s(passes: list[_Pass], raw: bool = False) -> float:
    """Symbols of one pass over the sum of the requests' best times."""
    symbols = sum(o.symbols for o in passes[0].outcomes if o is not None)
    return symbols / sum(_best(passes, raw)) / 1000.0


def _timings(passes: list[_Pass], setup_s: float, raw: bool = False) -> dict:
    """The end-to-end timing metrics of an untraced run."""
    best = _best(passes, raw)
    return {
        "setup_s": (setup_s, "s"),
        "scan_ksym_s": (_ksym_s(passes, raw), "ksym/s"),
        "latency_p50_ms": (1000 * statistics.median(best), "ms"),
        "latency_p95_ms": (1000 * percentile(best, 0.95), "ms"),
    }


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    #: Human-readable notes: which requests failed, layer checks.
    notes: list[str]
    #: End-to-end timings as measured, before the host-speed adjustment.
    raw: dict[str, tuple[float, str]] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _call(workload: Workload, index: int) -> Outcome | None:
    """One request; any exception makes it a failed request."""
    try:
        return workload.request(index)
    except Exception as exc:  # noqa: BLE001 - a failed request, not a crash
        workload.errors.append(f"request {index}: {type(exc).__name__}: {exc}")
        return None


def _digest(outcome: Outcome | None) -> Outcome | None:
    """Replace an outcome's report streams by their digest (untimed)."""
    if outcome is not None:
        outcome.digest = report_digest(outcome.streams)
        outcome.streams = []
    return outcome


def _timed_pass(workload: Workload, tracer: Tracer, *, traced: bool = False) -> _Pass:
    """One timed pass; a traced pass snapshots telemetry per request."""
    workload.start_pass()
    outcomes: list[Outcome | None] = []
    raw: list[float] = []
    probes: list[float] = []
    snapshots: list[dict] = []
    clock = time.perf_counter
    for index in range(workload.n_requests):
        probes.append(probe())
        if traced:
            telemetry.reset()
        tracer.request = index
        with tracer.span("request"):
            t0 = clock()
            outcome = _call(workload, index)
            raw.append(clock() - t0)
        outcomes.append(_digest(outcome))
        if traced:
            snapshots.append(telemetry.snapshot())
    probes.append(probe())
    tracer.request = -1
    # Request i ran between probes i and i+1; the median of the six probes
    # around it gives the host speed at the time.
    latencies = [
        seconds * _host_scale(probes, index - 2, index + 4)
        for index, seconds in enumerate(raw)
    ]
    return _Pass(outcomes, raw, latencies, snapshots)


@dataclass
class _SetUp:
    workload: Workload
    #: Wall seconds of the set-up, probes excluded.
    raw_s: float
    #: The same at the reference host speed.
    seconds: float
    #: The warm-up pass's outcomes.
    warm: list[Outcome | None]


def _set_up(workload_cls, seed: int, n_requests: int, tracer: Tracer) -> _SetUp:
    """Build and warm one workload."""
    gc.unfreeze()
    gc.collect()
    clear_engine_cache()
    probes = [probe()]
    clock = time.perf_counter
    started = clock()
    workload = workload_cls(seed, n_requests, tracer)
    workload.setup()
    workload.start_pass()
    warm = []
    digest_s = 0.0  # the benchmark's own checking, not set-up work
    for index in range(n_requests):
        probes.append(probe())
        outcome = _call(workload, index)
        t0 = clock()
        warm.append(_digest(outcome))
        digest_s += clock() - t0
    gc.collect()
    gc.freeze()
    raw_s = clock() - started - sum(probes[1:]) - digest_s
    probes.append(probe())
    return _SetUp(workload, raw_s, raw_s * _host_scale(probes, 0, len(probes)), warm)


def _failures(workload: Workload, warm, passes: list[_Pass], sample: list[int]) -> int:
    """Timed requests, counted once per pass, that failed any check."""
    failed = set()
    for pass_index, timed in enumerate(passes):
        for index, outcome in enumerate(timed.outcomes):
            expected = warm[index]
            if outcome is None or expected is None or not outcome.ok:
                failed.add((pass_index, index))
            elif outcome.digest != expected.digest:
                workload.errors.append(f"request {index}: digest differs from warm-up")
                failed.add((pass_index, index))
    for index in sample:
        expected = warm[index]
        reference = report_digest(workload.reference_streams(index))
        if expected is None or reference != expected.digest:
            workload.errors.append(f"request {index}: differs from ReferenceEngine")
            failed.update((pass_index, index) for pass_index in range(len(passes)))
    return len(failed)


def _timer(snapshots: list[dict], prefix: str) -> tuple[float, int]:
    """Total seconds and count of the timers whose names start with ``prefix``."""
    total, count = 0.0, 0
    for snap in snapshots:
        for name, entry in snap["timers"].items():
            if name.startswith(prefix):
                total += entry["total_s"]
                count += entry["count"]
    return total, count


def _counter(snapshots: list[dict], prefix: str) -> float:
    """Sum of the counters whose names start with ``prefix``."""
    return sum(
        value
        for snap in snapshots
        for name, value in snap["counters"].items()
        if name.startswith(prefix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed_mean(tracer: Tracer, name: str) -> float:
    """Mean seconds of the ``name`` spans inside timed requests."""
    timed = [value for request, value in tracer.by_request(name).items() if request >= 0]
    return _ratio(sum(t for t, _ in timed), sum(c for _, c in timed))


def _layer_metrics(
    workload: Workload,
    tracer: Tracer,
    setup_snapshot: dict,
    untraced: list[_Pass],
    traced: list[_Pass],
) -> dict[str, float]:
    """Per-layer metrics of a traced timed pass (set-up ones from set-up)."""
    snaps = traced[-1].snapshots
    requests = len(snaps)
    hits = _counter(snaps, "cache.hit")
    lookups = hits + _counter(snaps, "cache.miss")
    compile_s, compiles = _timer(snaps, "engine.compile.")

    # Self time of the ladder: its spans minus the engine work inside them.
    ladder_self = 0.0
    for request, (span_s, _) in tracer.by_request("ladder.resilient_scan").items():
        if request >= 0:
            engine = [snaps[request]]
            ladder_self += span_s - _timer(engine, "engine.scan.")[0]
            ladder_self -= _timer(engine, "engine.compile.")[0]
    # Dispatch: the supervised call minus its longest segment scan.
    dispatch = parallel_s = 0.0
    for request, (span_s, _) in tracer.by_request("parallel.request").items():
        if request >= 0:
            segment = snaps[request]["timers"].get("parallel.segment", {})
            dispatch += span_s - (segment.get("max_s") or 0.0)
            parallel_s += span_s
    segment_s = _timer(snaps, "parallel.segment")[0]
    return {
        "build.generate_s": tracer.by_request("generate").get(-1, (0.0, 0))[0],
        "analysis.lint_s": _ratio(*_timer([setup_snapshot], "benchmark.lint.")),
        "regex.compile_s": _timed_mean(tracer, "regex.compile"),
        "cache.fingerprint_s": _timed_mean(tracer, "cache.fingerprint"),
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.evictions": _counter(snaps, "cache.eviction"),
        "engine.compile_s": _ratio(compile_s, compiles),
        "lazydfa.memo_computes": _counter(snaps, "lazydfa.memo_computes"),
        "lazydfa.dfa_states": _counter([setup_snapshot, *snaps], "lazydfa.dfa_states"),
        "lazydfa.scan_s": _timer(snaps, "engine.scan.lazydfa")[0] / requests,
        "bitset.scan_s": _timer(snaps, "engine.scan.bitset")[0] / requests,
        "bitset.matched_per_sym": _ratio(
            _counter(snaps, "engine.matched_states.bitset"),
            _counter(snaps, "engine.symbols.bitset"),
        ),
        "report.per_ksym": 1000.0
        * _ratio(_counter(snaps, "engine.reports."), _counter(snaps, "engine.symbols.")),
        "ladder.self_s": ladder_self / requests,
        "ladder.fallbacks": sum(
            snap["counters"].get("resilience.fallback", 0) for snap in snaps
        ),
        "parallel.dispatch_s": dispatch / requests,
        "parallel.segment_s": segment_s / requests,
        "parallel.overlap_frac": _ratio(
            sum(workload.overlap_symbols(index) for index in range(requests)),
            sum(o.symbols for o in traced[-1].outcomes if o is not None),
        ),
        "parallel.worker_busy_frac": _ratio(segment_s, workload.workers * parallel_s),
        "telemetry.overhead_frac": 1.0 - _ksym_s(traced) / _ksym_s(untraced),
    }


#: Per workload: the facts a traced run must show about the layer it loads,
#: as ``(label, check(per-layer metrics, mean traced request seconds))``.
LAYER_CHECKS = {
    "ids_packets": [
        ("cache.hit_ratio is 1.0", lambda m, _: m["cache.hit_ratio"] == 1.0),
        ("lazydfa.memo_computes is 0", lambda m, _: m["lazydfa.memo_computes"] == 0),
    ],
    "tenant_churn": [
        ("cache.evictions above 0", lambda m, _: m["cache.evictions"] > 0),
        ("lazydfa.memo_computes above 0", lambda m, _: m["lazydfa.memo_computes"] > 0),
    ],
    "dna_mesh": [
        (
            "bitset.scan_s is most of request time",
            lambda m, request_s: m["bitset.scan_s"] > 0.5 * request_s,
        ),
    ],
    "disk_parallel": [
        (
            "parallel.dispatch_s is more than half of request time",
            lambda m, request_s: m["parallel.dispatch_s"] > 0.5 * request_s,
        ),
    ],
}


def run_workload(
    workload_cls: type[Workload],
    seed: int,
    n_requests: int,
    *,
    trace: bool = False,
) -> RunResult:
    """Set up, warm, time and check one workload."""
    tracer = Tracer()
    workload = None
    try:
        if trace:
            telemetry.reset()
            telemetry.enable()
            tracer.enabled = True
            setup = _set_up(workload_cls, seed, n_requests, tracer)
            workload, warm = setup.workload, setup.warm
            setup_snapshot = telemetry.snapshot()
            telemetry.disable()
            tracer.enabled = False
            untraced = [_timed_pass(workload, tracer) for _ in range(PASSES)]
            telemetry.enable()
            tracer.enabled = True
            traced = []
            for _ in range(PASSES):
                # Keep the set-up spans and those of the last pass only.
                tracer.spans = [span for span in tracer.spans if span[1] < 0]
                traced.append(_timed_pass(workload, tracer, traced=True))
            telemetry.disable()
            tracer.enabled = False
            passes = untraced + traced
        else:
            # Each cycle sets up afresh, then makes one timed pass, so the
            # passes a request's best time is taken over are spread out.
            setups: list[_SetUp] = []
            passes = []
            peak_kb = 0
            for _ in range(PASSES):
                if workload is not None:
                    workload.close()
                setups.append(_set_up(workload_cls, seed, n_requests, tracer))
                workload = setups[-1].workload
                passes.append(_timed_pass(workload, tracer))
                peak_kb = max(peak_kb, workload.peak_rss_kb())
            warm = setups[0].warm

        sample = sorted(
            random.Random(seed).sample(
                range(n_requests), min(workload.reference_sample, n_requests)
            )
        )
        failed = _failures(workload, warm, passes, sample)
        attempted = n_requests * len(passes)
        notes = list(workload.errors)
        raw = {}
        if trace:
            layers = _layer_metrics(workload, tracer, setup_snapshot, untraced, traced)
            metrics = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
            request_s = statistics.fmean(traced[-1].raw_latencies)
            for label, check in LAYER_CHECKS.get(workload_cls.name, []):
                verdict = "ok" if check(layers, request_s) else "NOT MET"
                notes.append(f"layer check: {label}: {verdict}")
        else:
            degraded = sum(
                1
                for timed in passes
                for outcome in timed.outcomes
                if outcome is not None and outcome.degraded
            )
            metrics = _timings(passes, statistics.median(s.seconds for s in setups))
            metrics.update(
                peak_rss_mb=(peak_kb / 1024.0, "MB"),
                success_frac=(1.0 - failed / attempted, "ratio"),
                undegraded_frac=(1.0 - degraded / attempted, "ratio"),
            )
            raw = _timings(passes, statistics.median(s.raw_s for s in setups), raw=True)
        return RunResult(
            correct=not failed,
            attempted=attempted,
            failed=failed,
            metrics=metrics,
            notes=notes,
            raw=raw,
            spans=list(tracer.spans),
        )
    finally:
        telemetry.disable()
        if workload is not None:
            workload.close()
        gc.unfreeze()
