"""Fuzz-campaign orchestration: seeds in, divergence summary out.

One campaign runs ``n_seeds`` generated cases through the differential
runner (every fourth case in bit-level mode so striding is covered),
shrinks every divergence to a minimal repro, optionally serialises the
repros to disk, and produces a JSON-ready summary.  The CLI
(``repro conformance``) writes that summary to
``bench_results/CONFORMANCE.json`` so the suite's conformance trajectory
is auditable across PRs.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import telemetry
from repro.conformance.generator import GENERATOR_VERSION, CaseConfig, random_case
from repro.conformance.runner import Divergence, run_case
from repro.conformance.shrink import save_repro, shrink_case

__all__ = ["CampaignReport", "run_campaign", "summary_dict"]

#: Every Nth seed generates a bit-level case (striding coverage).
_BIT_LEVEL_EVERY = 4


@dataclass
class DivergenceRecord:
    """One divergence plus its shrunk repro."""

    seed: int
    divergence: Divergence
    shrunk_states: int | None = None
    shrunk_input_len: int | None = None
    repro_path: str | None = None


@dataclass
class CampaignReport:
    """The outcome of one conformance campaign."""

    seeds: int
    start_seed: int
    elapsed_s: float
    records: list[DivergenceRecord] = field(default_factory=list)
    #: Seeds actually finished (== ``seeds`` unless truncated/killed).
    completed_seeds: int = 0
    #: True when a ``max_seconds`` budget ended the campaign early.
    truncated: bool = False

    @property
    def clean(self) -> bool:
        return not self.records


def _checker_for(subject: str, **run_kwargs) -> Callable:
    """True iff the case still diverges on ``subject`` (any field)."""

    def check(automaton, data) -> bool:
        return any(
            d.subject == subject for d in run_case(automaton, data, **run_kwargs)
        )

    return check


def run_campaign(
    n_seeds: int,
    *,
    start_seed: int = 0,
    config: CaseConfig | None = None,
    engine_factories=None,
    shrink: bool = True,
    repro_dir=None,
    progress: Callable[[int, int], None] | None = None,
    max_seconds: float | None = None,
    checkpoint=None,
    resume: bool = False,
) -> CampaignReport:
    """Run ``n_seeds`` differential cases; shrink and record divergences.

    ``engine_factories`` is forwarded to :func:`~repro.conformance.runner.run_case`
    (fault-injection tests use it); ``repro_dir`` enables on-disk repro
    serialization, one subdirectory per divergent seed.

    ``max_seconds`` bounds the campaign's wall clock: when the budget
    runs out, remaining seeds are skipped and the report is marked
    ``truncated`` — the summary is still a complete, valid document.
    ``checkpoint``/``resume`` journal per-seed results so a killed
    campaign re-runs only the seeds it never finished
    (docs/RESILIENCE.md).
    """
    from repro.resilience import faults
    from repro.resilience.checkpoint import SweepCheckpoint

    started = time.perf_counter()
    meta = {
        "n_seeds": n_seeds,
        "start_seed": start_seed,
        "bit_level_every": _BIT_LEVEL_EVERY,
        "shrink": shrink,
        "generator": GENERATOR_VERSION,
    }
    ckpt = (
        SweepCheckpoint.open(checkpoint, meta, resume=resume) if checkpoint else None
    )
    report = CampaignReport(seeds=n_seeds, start_seed=start_seed, elapsed_s=0.0)
    for index in range(n_seeds):
        seed = start_seed + index
        if max_seconds is not None and time.perf_counter() - started > max_seconds:
            report.truncated = True
            telemetry.incr("conformance.truncated")
            break
        bit_level = index % _BIT_LEVEL_EVERY == _BIT_LEVEL_EVERY - 1
        cell_key = f"seed::{seed}"
        if ckpt is not None and ckpt.has(cell_key):
            cell = ckpt.get(cell_key)
            report.completed_seeds += 1
            for row in cell["records"]:
                report.records.append(
                    DivergenceRecord(
                        seed=row["seed"],
                        divergence=Divergence(
                            subject=row["subject"],
                            field=row["field"],
                            detail=row["detail"],
                        ),
                        shrunk_states=row["shrunk_states"],
                        shrunk_input_len=row["shrunk_input_len"],
                        repro_path=row["repro_path"],
                    )
                )
            continue
        with telemetry.span("conformance.generate"):
            case = random_case(seed, config=config, bit_level=bit_level)
        run_kwargs = dict(
            engine_factories=engine_factories, bit_level=bit_level
        )
        with telemetry.span("conformance.case"):
            divergences = run_case(case.automaton, case.data, **run_kwargs)
        telemetry.incr("conformance.cases")
        telemetry.incr("conformance.divergences", len(divergences))
        if progress is not None:
            progress(index + 1, len(divergences))
        seed_records: list[DivergenceRecord] = []
        for divergence in divergences:
            record = DivergenceRecord(seed=seed, divergence=divergence)
            if shrink:
                small, small_data = shrink_case(
                    case.automaton,
                    case.data,
                    _checker_for(divergence.subject, **run_kwargs),
                )
                record.shrunk_states = small.n_states
                record.shrunk_input_len = len(small_data)
                if repro_dir is not None:
                    slug = (
                        divergence.subject.replace(":", "_")
                        .replace("[", "_")
                        .replace("]", "")
                        .replace(",", "_")
                        .replace("=", "")
                    )
                    path = save_repro(
                        f"{repro_dir}/case_seed{seed}_{slug}",
                        small,
                        small_data,
                        {
                            "seed": seed,
                            "subject": divergence.subject,
                            "field": divergence.field,
                            "detail": divergence.detail,
                            "bit_level": bit_level,
                        },
                    )
                    record.repro_path = str(path)
            seed_records.append(record)
            report.records.append(record)
        report.completed_seeds += 1
        if ckpt is not None:
            ckpt.record(
                cell_key,
                {
                    "records": [
                        {
                            "seed": r.seed,
                            "subject": r.divergence.subject,
                            "field": r.divergence.field,
                            "detail": r.divergence.detail,
                            "shrunk_states": r.shrunk_states,
                            "shrunk_input_len": r.shrunk_input_len,
                            "repro_path": r.repro_path,
                        }
                        for r in seed_records
                    ]
                },
            )
            faults.maybe_halt_after_cells(len(ckpt.cells))
    report.elapsed_s = time.perf_counter() - started
    if ckpt is not None and not report.truncated:
        ckpt.done()
    return report


def summary_dict(report: CampaignReport, *, goldens_problems=None) -> dict:
    """A JSON-ready campaign summary (the CONFORMANCE.json payload)."""
    return {
        "seeds": report.seeds,
        "start_seed": report.start_seed,
        "completed_seeds": report.completed_seeds,
        "truncated": report.truncated,
        "elapsed_s": round(report.elapsed_s, 3),
        "clean": report.clean and not goldens_problems,
        "divergences": [
            {
                "seed": r.seed,
                "subject": r.divergence.subject,
                "field": r.divergence.field,
                "detail": r.divergence.detail[:400],
                "shrunk_states": r.shrunk_states,
                "shrunk_input_len": r.shrunk_input_len,
                "repro_path": r.repro_path,
            }
            for r in report.records
        ],
        "golden_problems": list(goldens_problems or []),
    }
