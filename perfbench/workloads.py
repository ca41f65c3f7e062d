"""The four benchmark workloads.

Each workload generates its inputs from ``--seed`` and fixes its request
sequence in :meth:`Workload.setup`, then serves request ``i`` through
:meth:`request`.
Requests are replayed identically in the warm-up pass and the timed pass,
so every timed request has a digest to be checked against.  Calls into the
library that a per-layer metric needs are wrapped in ``tracer.span``; the
tracer is a no-op in untraced runs.

Why each workload exists, and which layers it loads and bypasses, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.benchmarks.clamav import (
    build_clamav_benchmark,
    generate_signature_db,
    materialize_signature,
)
from repro.benchmarks.protomata import generate_motifs, generate_proteome
from repro.benchmarks.registry import build_benchmark
from repro.benchmarks.snort import build_snort_automaton
from repro.clamav.signature import hex_sig_to_regex, parse_database
from repro.core.automaton import Automaton
from repro.engines.base import ReportEvent
from repro.engines.bitset import BitsetEngine
from repro.engines.cache import auto_engine, automaton_fingerprint
from repro.engines.parallel import split_with_overlap
from repro.engines.prefilter import max_match_length
from repro.engines.reference import ReferenceEngine
from repro.inputs.diskimage import build_disk_image
from repro.inputs.dna import random_dna
from repro.inputs.pcap import synthetic_packets
from repro.prosite.parser import prosite_to_regex
from repro.regex.compile import compile_ruleset
from repro.resilience.guards import ScanBudget
from repro.resilience.ladder import resilient_scan
from repro.resilience.supervisor import SupervisorConfig, supervised_parallel_scan
from repro.snort.ruleset_gen import generate_ruleset, render_ruleset
from repro.snort.rules import parse_ruleset

__all__ = ["WORKLOADS", "Outcome", "Workload", "report_digest"]


def report_digest(streams: list[list[ReportEvent]]) -> str:
    """SHA-256 over report streams, each in (offset, ident) order."""
    digest = hashlib.sha256()
    for reports in streams:
        for event in sorted(reports):
            digest.update(f"{event.offset}:{event.ident}:{event.code!r};".encode())
        digest.update(b"|")
    return digest.hexdigest()


def _seed(*parts) -> int:
    """A derived seed, stable across processes and Python versions."""
    text = ":".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


@dataclass
class Outcome:
    """What one request produced."""

    #: The report stream of each scan the request made, in order.
    streams: list[list[ReportEvent]]
    symbols: int
    #: Some scan completed below the first rung of its ladder.
    degraded: bool = False
    #: The request finished but lost work (poisoned segments) or missed a
    #: fact the workload knows must hold (planted fragments).
    ok: bool = True
    #: Digest of ``streams``; the harness fills it in after timing.
    digest: str = ""


class Workload:
    """One closed-loop workload: set-up, then requests ``0 .. n-1``."""

    name = ""
    #: Expected wall time of one request on a 2-vCPU VM; sets how many
    #: requests fill ``--seconds`` (see ``harness.default_requests``).
    nominal_request_s = 0.02
    #: Size of the fixed request sample re-scanned on ``ReferenceEngine``.
    reference_sample = 3
    #: Pool processes the workload scans on.
    workers = 1

    def __init__(self, seed: int, n_requests: int, tracer) -> None:
        self.seed = seed
        self.n_requests = n_requests
        self.tracer = tracer
        #: One line per failed request or failed check.
        self.errors: list[str] = []

    def setup(self) -> None:
        """Generate pattern sets and inputs, compile automata and engines."""
        raise NotImplementedError

    def start_pass(self) -> None:
        """Reset per-pass state before the warm-up and each timed pass."""

    def request(self, index: int) -> Outcome:
        raise NotImplementedError

    def reference_streams(self, index: int) -> list[list[ReportEvent]]:
        """Request ``index``'s report streams recomputed on ``ReferenceEngine``."""
        raise NotImplementedError

    def overlap_symbols(self, index: int) -> int:
        """Symbols request ``index`` scans twice because segments overlap."""
        return 0

    def peak_rss_kb(self) -> int:
        """Peak resident set of this process and any workers it owns."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        """Stop everything :meth:`setup` started."""


def _ladder_batch(automaton, payloads, budget, tracer) -> Outcome:
    """Scan each payload on its own through the engine fallback ladder."""
    streams = []
    degraded = False
    for payload in payloads:
        with tracer.span("ladder.resilient_scan"):
            outcome = resilient_scan(automaton, payload, budget=budget)
        streams.append(outcome.result.reports)
        degraded = degraded or outcome.degraded
    return Outcome(streams, sum(map(len, payloads)), degraded)


# -- ids_packets ---------------------------------------------------------------


class IdsPackets(Workload):
    """Snort-lite rules over single packets, each through the engine ladder."""

    name = "ids_packets"
    nominal_request_s = 0.011
    rules = 300
    #: Distinct packets in the capture that requests replay; bounds the
    #: lazy-DFA memo the warm-up pass has to build.
    capture_packets = 512
    packets_per_request = 32
    budget = ScanBudget(wall_s=5.0, memo_bytes=64 << 20)

    def setup(self) -> None:
        with self.tracer.span("generate"):
            rules = generate_ruleset(self.rules, seed=_seed("ids-ruleset"))
            self.automaton, _, _ = build_snort_automaton(rules)
            capture = synthetic_packets(
                self.capture_packets, seed=_seed(self.seed, "packets")
            )
            rng = random.Random(_seed(self.seed, "batches"))
            self.batches = [
                rng.sample(capture, self.packets_per_request)
                for _ in range(self.n_requests)
            ]

    def _batch(self, index: int) -> list[bytes]:
        return self.batches[index]

    def request(self, index: int) -> Outcome:
        return _ladder_batch(self.automaton, self._batch(index), self.budget, self.tracer)

    def reference_streams(self, index: int) -> list[list[ReportEvent]]:
        engine = ReferenceEngine(self.automaton)
        return [engine.run(packet).reports for packet in self._batch(index)]


# -- dna_mesh ------------------------------------------------------------------


class DnaMesh(Workload):
    """Hamming + Levenshtein filter meshes streamed over one long DNA read."""

    name = "dna_mesh"
    nominal_request_s = 0.013
    scale = 0.01
    chunk = 160

    def setup(self) -> None:
        with self.tracer.span("generate"):
            mesh = Automaton("dna-mesh")
            for prefix, name in (("h.", "Hamming 18x3"), ("l.", "Levenshtein 19x3")):
                bench = build_benchmark(name, scale=self.scale, seed=_seed(self.seed, name))
                mesh.merge(bench.automaton, prefix=prefix)
            self.read = random_dna(
                self.n_requests * self.chunk, seed=_seed(self.seed, "read")
            )
        self.automaton = mesh
        self.engine = auto_engine(mesh)
        if not isinstance(self.engine, BitsetEngine):
            raise RuntimeError(f"dna_mesh expects BitsetEngine, got {self.engine!r}")
        self.window = max_match_length(mesh)

    def start_pass(self) -> None:
        self.stream = self.engine.stream()

    def request(self, index: int) -> Outcome:
        data = self.read[index * self.chunk : (index + 1) * self.chunk]
        return Outcome([self.stream.feed(data)], len(data))

    def reference_streams(self, index: int) -> list[list[ReportEvent]]:
        # Mesh filters start everywhere and have a bounded match length, so
        # a chunk's reports depend only on the window before it.
        start = index * self.chunk
        scan_from = max(0, start - self.window)
        result = ReferenceEngine(self.automaton).run(
            self.read[scan_from : start + self.chunk]
        )
        return [
            [
                ReportEvent(event.offset + scan_from, event.ident, event.code)
                for event in result.reports
                if event.offset + scan_from >= start
            ]
        ]


# -- tenant_churn --------------------------------------------------------------


def _snort_text(seed: int) -> str:
    return render_ruleset(generate_ruleset(40, seed=seed))


def _clamav_text(seed: int) -> str:
    return "\n".join(
        f"{sig.name}:0:*:{sig.hex_sig}" for sig in generate_signature_db(30, seed=seed)
    )


def _prosite_text(seed: int) -> str:
    return "\n".join(generate_motifs(6, seed=seed))


def _snort_patterns(text: str):
    return [
        (rule.sid, f"/{rule.pcre}/{rule.standard_flags}")
        for rule in parse_ruleset(text)
        if not rule.has_snort_modifiers and not rule.has_isdataat
    ]


def _clamav_patterns(text: str):
    return [(sig.name, hex_sig_to_regex(sig.hex_sig)) for sig in parse_database(text)]


def _prosite_patterns(text: str):
    return [(index, prosite_to_regex(motif)) for index, motif in enumerate(text.split())]


def _snort_payload(seed: int) -> bytes:
    return b"".join(synthetic_packets(32, seed=seed))


def _clamav_payload(seed: int) -> bytes:
    kinds = ["text", "png", "zip", "jpeg", "mp4"]
    return build_disk_image(kinds * 3, seed=seed).data


def _prosite_payload(seed: int) -> bytes:
    return generate_proteome(4000, seed=seed)


def _apportion(weights: list[float], total: int) -> list[int]:
    """``total`` items split by ``weights`` (largest remainder), as a flat
    list with item ``k`` repeated its share of times."""
    scale = total / sum(weights)
    shares = [int(weight * scale) for weight in weights]
    by_remainder = sorted(
        range(len(weights)), key=lambda k: shares[k] - weights[k] * scale
    )
    for k in by_remainder[: total - sum(shares)]:
        shares[k] += 1
    return [k for k, share in enumerate(shares) for _ in range(share)]


#: kind -> (pattern text generator, text -> (code, regex) frontend, payload)
_TENANT_KINDS = {
    "snort": (_snort_text, _snort_patterns, _snort_payload),
    "clamav": (_clamav_text, _clamav_patterns, _clamav_payload),
    "prosite": (_prosite_text, _prosite_patterns, _prosite_payload),
}


class TenantChurn(Workload):
    """Zipf-skewed tenants over a pool larger than the compile cache."""

    name = "tenant_churn"
    nominal_request_s = 0.012
    tenants = 40  # more than the compile cache's 32 entries
    zipf_s = 1.0
    register_share = 0.1
    payloads_per_kind = 12
    payloads_per_request = 6
    budget = ScanBudget(memo_bytes=4 << 20)

    def setup(self) -> None:
        kinds = list(_TENANT_KINDS)
        # The request sequence and the pattern sets are the same for every
        # seed: the share of cold requests (registrations, evicted tenants)
        # sets this workload's timings and would otherwise vary with the
        # seed more than any bound allows.  The seed generates the payloads.
        rng = random.Random(_seed("tenant-sequence"))
        with self.tracer.span("generate"):
            self.kind = [kinds[t % len(kinds)] for t in range(self.tenants)]
            # Tenant t has popularity rank t; request counts per tenant are
            # the Zipf shares of the run, in shuffled order, and every k-th
            # request is a registration.
            weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(self.tenants)]
            tenants = _apportion(weights, self.n_requests)
            rng.shuffle(tenants)
            every = round(1 / self.register_share)
            self.sequence: list[tuple[int, bool]] = [
                (tenant, index % every == every - 1) for index, tenant in enumerate(tenants)
            ]
            # Pattern text per (tenant, version): version -1 is the text a
            # tenant starts with, version i is the one registered by request i.
            self.texts: dict[tuple[int, int], str] = {}
            for tenant in range(self.tenants):
                self._add_text(tenant, -1)
            for index, (tenant, register) in enumerate(self.sequence):
                if register:
                    self._add_text(tenant, index)
            self.payloads = {
                kind: [
                    _TENANT_KINDS[kind][2](_seed(self.seed, kind, k))
                    for k in range(self.payloads_per_kind)
                ]
                for kind in kinds
            }
        # A pass starts with every tenant on the version it ends with, so
        # the warm-up pass and every timed pass see the same registry.
        last = {tenant: -1 for tenant in range(self.tenants)}
        for index, (tenant, register) in enumerate(self.sequence):
            if register:
                last[tenant] = index
        self.version_at = []
        current = dict(last)
        for index, (tenant, register) in enumerate(self.sequence):
            if register:
                current[tenant] = index
            self.version_at.append(current[tenant])
        self.current = {
            tenant: self._register(tenant, version) for tenant, version in last.items()
        }

    def _add_text(self, tenant: int, version: int) -> None:
        generate = _TENANT_KINDS[self.kind[tenant]][0]
        self.texts[tenant, version] = generate(_seed("tenant", tenant, version))

    def _register(self, tenant: int, version: int) -> Automaton:
        frontend = _TENANT_KINDS[self.kind[tenant]][1]
        with self.tracer.span("regex.compile"):
            automaton, _ = compile_ruleset(
                frontend(self.texts[tenant, version]),
                name=f"tenant{tenant}",
                skip_unsupported=True,
            )
        with self.tracer.span("cache.fingerprint"):
            automaton_fingerprint(automaton)
        return automaton

    def _batch(self, index: int) -> list[bytes]:
        tenant, _ = self.sequence[index]
        pool = self.payloads[self.kind[tenant]]
        first = (index * self.payloads_per_request) % len(pool)
        return [pool[(first + k) % len(pool)] for k in range(self.payloads_per_request)]

    def request(self, index: int) -> Outcome:
        tenant, register = self.sequence[index]
        if register:
            self.current[tenant] = self._register(tenant, index)
        return _ladder_batch(
            self.current[tenant], self._batch(index), self.budget, self.tracer
        )

    def reference_streams(self, index: int) -> list[list[ReportEvent]]:
        tenant, _ = self.sequence[index]
        engine = ReferenceEngine(self._register(tenant, self.version_at[index]))
        return [engine.run(payload).reports for payload in self._batch(index)]


# -- disk_parallel -------------------------------------------------------------


def _worker_peak_rss(hold_s: float) -> tuple[int, int]:
    """Pool task: this worker's pid and peak RSS (held so tasks spread)."""
    time.sleep(hold_s)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class DiskParallel(Workload):
    """ClamAV signatures over disk images, scanned by a supervised 2-worker pool."""

    name = "disk_parallel"
    nominal_request_s = 0.018
    signatures = 25
    files_per_image = 20
    images = 4
    workers = 2
    config = SupervisorConfig(segment_timeout_s=60.0)

    def setup(self) -> None:
        with self.tracer.span("generate"):
            bench = build_clamav_benchmark(
                self.signatures, seed=_seed("clamav-db"), n_files=1
            )
            by_name = {sig.name: sig for sig in bench.signatures}
            self.planted = set(bench.planted)
            self.images_data = []
            rng = random.Random(_seed(self.seed, "images"))
            kinds = ["text", "png", "jpeg", "zip", "mp4"]
            for k in range(self.images):
                inserts = [
                    (f"virus:{name}", materialize_signature(by_name[name], seed=rng.randrange(2**30)))
                    for name in bench.planted
                ]
                image = build_disk_image(
                    [kinds[(k + i) % len(kinds)] for i in range(self.files_per_image)],
                    seed=rng.randrange(2**30),
                    inserts=inserts,
                )
                self.images_data.append(image.data)
        self.automaton = bench.automaton
        window = max_match_length(self.automaton)
        self.overlap = max(window - 1, 0)
        self.pool = ProcessPoolExecutor(
            self.workers, mp_context=multiprocessing.get_context("spawn")
        )

    def image(self, index: int) -> bytes:
        return self.images_data[index % len(self.images_data)]

    def overlap_symbols(self, index: int) -> int:
        segments = split_with_overlap(len(self.image(index)), self.workers, self.overlap)
        return sum(segment.keep_from - segment.scan_start for segment in segments)

    def request(self, index: int) -> Outcome:
        data = self.image(index)
        with self.tracer.span("parallel.request"):
            outcome = supervised_parallel_scan(
                self.automaton,
                data,
                self.workers,
                pool=self.pool,
                engine="dfa",
                config=self.config,
            )
        found = {event.code for event in outcome.result.reports}
        return Outcome(
            [outcome.result.reports],
            len(data),
            degraded=outcome.degraded,
            ok=outcome.complete and self.planted <= found,
        )

    def reference_streams(self, index: int) -> list[list[ReportEvent]]:
        return [ReferenceEngine(self.automaton).run(self.image(index)).reports]

    def peak_rss_kb(self) -> int:
        peaks: dict[int, int] = {}
        for _ in range(10):
            futures = [self.pool.submit(_worker_peak_rss, 0.2) for _ in range(self.workers)]
            for future in futures:
                pid, peak = future.result(timeout=60)
                peaks[pid] = max(peak, peaks.get(pid, 0))
            if len(peaks) >= self.workers:
                break
        return super().peak_rss_kb() + sum(peaks.values())

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self.pool = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (IdsPackets, DnaMesh, TenantChurn, DiskParallel)
}
