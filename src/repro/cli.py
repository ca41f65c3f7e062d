"""Command-line interface: build, run, inspect and export benchmarks.

Usage (also via ``python -m repro``)::

    repro list
    repro build "Hamming 18x3" --scale 0.01 --output hamming.mnrl
    repro run "Snort" --scale 0.01 --limit 5000 --engine bitset
    repro stats hamming.mnrl
    repro table1 --scale 0.005
    repro lint --scale 0.01 --fail-on warning
    repro grep 'virus[0-9]+' /path/to/file
    repro conformance --seeds 500
    repro profile --names Snort ClamAV --engine bitset --engine vector

The CLI mirrors what the VASim binary offers the original suite's users:
generate, simulate, and report statistics, plus MNRL/ANML export so
automata can move to other tools.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.engines import ENGINE_REGISTRY, auto_engine, compiled_engine
from repro.errors import (
    CapacityError,
    CheckpointMismatch,
    EngineError,
    EngineFailure,
    InputError,
    LintError,
    MemoryBudgetExceeded,
    ReproError,
    ScanTimeout,
    TransformPreconditionError,
    WorkerCrash,
)
from repro.io import from_anml, from_mnrl, mnrl_dumps, to_anml
from repro.regex import compile_regex
from repro.stats import compute_static_stats, format_table, summarize_benchmark
from repro.transforms import merge_common_prefixes

__all__ = ["EXIT_CODES", "exit_code_for", "main"]

#: Typed-failure exit codes (docs/RESILIENCE.md).  Most specific first:
#: :func:`exit_code_for` walks this in order, so subclasses must precede
#: their bases.  Any other :class:`~repro.errors.ReproError` exits 2.
EXIT_CODES: tuple[tuple[type[ReproError], int], ...] = (
    (LintError, 3),
    (TransformPreconditionError, 4),
    (InputError, 5),
    (ScanTimeout, 6),
    (MemoryBudgetExceeded, 7),
    (WorkerCrash, 8),
    (EngineFailure, 9),
    (CapacityError, 10),
    (EngineError, 11),
    (CheckpointMismatch, 12),
)


def exit_code_for(exc: ReproError) -> int:
    """The CLI exit code for a typed failure (generic ReproError -> 2)."""
    for exc_type, code in EXIT_CODES:
        if isinstance(exc, exc_type):
            return code
    return 2


def _default_checkpoint(out: str | None) -> str | None:
    """Derive the journal path from ``--out``: PROFILE.json -> PROFILE.ckpt.json."""
    if not out:
        return None
    return str(pathlib.Path(out).with_suffix(".ckpt.json"))


def _load_automaton(path: pathlib.Path):
    text = path.read_text()
    if path.suffix == ".anml" or text.lstrip().startswith("<"):
        return from_anml(text)
    import json

    return from_mnrl(json.loads(text))


def _cmd_list(_args) -> int:
    for name in BENCHMARK_NAMES:
        print(name)
    return 0


def _cmd_build(args) -> int:
    bench = build_benchmark(args.name, scale=args.scale, seed=args.seed)
    print(f"built {bench}", file=sys.stderr)
    if args.output:
        out = pathlib.Path(args.output)
        if out.suffix == ".anml":
            out.write_text(to_anml(bench.automaton))
        else:
            out.write_text(mnrl_dumps(bench.automaton))
        print(f"wrote {out}", file=sys.stderr)
    if args.input_output:
        pathlib.Path(args.input_output).write_bytes(bench.input_data)
        print(f"wrote {args.input_output}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    bench = build_benchmark(args.name, scale=args.scale, seed=args.seed)
    data = bench.input_data[: args.limit] if args.limit else bench.input_data
    engine = compiled_engine(bench.automaton, ENGINE_REGISTRY[args.engine])
    result = engine.run(data, record_active=True)
    print(f"benchmark:      {bench.name}")
    print(f"states:         {bench.states:,}")
    print(f"symbols:        {result.cycles:,}")
    print(f"reports:        {result.report_count:,}")
    print(f"mean active:    {result.mean_active_set:.2f}")
    if args.show_reports:
        for event in result.reports[: args.show_reports]:
            print(f"  offset={event.offset} code={event.code!r}")
    return 0


def _cmd_stats(args) -> int:
    automaton = _load_automaton(pathlib.Path(args.file))
    stats = compute_static_stats(automaton)
    merged, merge_stats = merge_common_prefixes(automaton)
    print(f"states:          {stats.states:,}")
    print(f"edges:           {stats.edges:,}")
    print(f"edges/node:      {stats.edges_per_node:.2f}")
    print(f"subgraphs:       {stats.subgraph_count:,}")
    print(f"avg size:        {stats.avg_component_size:.2f}")
    print(f"std dev:         {stats.std_component_size:.2f}")
    print(f"start states:    {stats.start_states:,}")
    print(f"report states:   {stats.reporting_states:,}")
    print(f"compressed:      {merge_stats.states_after:,} "
          f"({100 * merge_stats.compression_factor:.1f}% removed)")
    return 0


def _cmd_table1(args) -> int:
    import dataclasses

    from repro.resilience import faults
    from repro.resilience.checkpoint import SweepCheckpoint
    from repro.stats.dynamic import DynamicStats
    from repro.stats.static import StaticStats
    from repro.stats.table import BenchmarkRow

    names = args.names if args.names else BENCHMARK_NAMES
    ckpt = None
    if args.checkpoint:
        meta = {
            "names": list(names),
            "scale": args.scale,
            "seed": args.seed,
            "limit": args.limit,
        }
        ckpt = SweepCheckpoint.open(args.checkpoint, meta, resume=args.resume)
    rows = []
    for name in names:
        cell_key = f"{name}::row"
        if ckpt is not None and ckpt.has(cell_key):
            cell = ckpt.get(cell_key)
            rows.append(
                BenchmarkRow(
                    name=cell["name"],
                    domain=cell["domain"],
                    input_desc=cell["input_desc"],
                    static=StaticStats(**cell["static"]),
                    compressed_states=cell["compressed_states"],
                    dynamic=(
                        DynamicStats(**cell["dynamic"]) if cell["dynamic"] else None
                    ),
                )
            )
            continue
        bench = build_benchmark(name, scale=args.scale, seed=args.seed)
        row = summarize_benchmark(
            bench.name,
            bench.domain,
            bench.input_desc,
            bench.automaton,
            bench.input_data[: args.limit],
            compress=bench.compressible,
        )
        rows.append(row)
        if ckpt is not None:
            ckpt.record(cell_key, dataclasses.asdict(row))
            faults.maybe_halt_after_cells(len(ckpt.cells))
    print(format_table(rows))
    if ckpt is not None:
        ckpt.done()
    return 0


def _cmd_verify(args) -> int:
    from repro.benchmarks.verify import verify_benchmark

    names = args.names if args.names else BENCHMARK_NAMES
    failures = 0
    for name in names:
        bench = build_benchmark(name, scale=args.scale, seed=args.seed)
        problems = verify_benchmark(bench)
        status = "ok" if not problems else "FAIL"
        print(f"{name:25s} {status}")
        for problem in problems:
            print(f"    {problem}")
        failures += bool(problems)
    return 1 if failures else 0


def _cmd_export_suite(args) -> int:
    from repro.distribution import export_suite

    manifest = export_suite(
        args.directory, scale=args.scale, seed=args.seed, names=args.names
    )
    print(f"wrote {manifest}", file=sys.stderr)
    return 0


def _cmd_conformance(args) -> int:
    import json

    from repro.conformance import (
        check_goldens,
        compute_goldens,
        run_campaign,
        save_goldens,
        summary_dict,
    )
    from repro.conformance.generator import CaseConfig

    if args.update_goldens:
        print("recomputing golden digests for all benchmarks...", file=sys.stderr)
        target = save_goldens(
            compute_goldens(progress=lambda name: print(f"  {name}", file=sys.stderr)),
            args.goldens_path,
        )
        print(f"wrote {target}", file=sys.stderr)
        return 0

    config = CaseConfig(max_states=args.max_states, max_input_len=args.max_input_len)
    checkpoint = (
        args.checkpoint
        if args.checkpoint is not None
        else _default_checkpoint(args.out)
    )
    report = run_campaign(
        args.seeds,
        start_seed=args.start_seed,
        config=config,
        repro_dir=args.repro_dir,
        progress=(
            (lambda done, n: print(f"  seed {done}/{args.seeds}", file=sys.stderr))
            if args.verbose
            else None
        ),
        max_seconds=args.max_seconds,
        checkpoint=checkpoint or None,
        resume=args.resume,
    )
    for record in report.records:
        print(
            f"DIVERGENCE seed={record.seed} {record.divergence.subject} "
            f"[{record.divergence.field}] shrunk to "
            f"{record.shrunk_states} states / {record.shrunk_input_len} bytes"
            + (f" -> {record.repro_path}" if record.repro_path else "")
        )

    golden_problems: list[str] = []
    if not args.skip_goldens:
        print("checking golden digests...", file=sys.stderr)
        golden_problems = check_goldens(path=args.goldens_path)
        for problem in golden_problems:
            print(f"GOLDEN DRIFT {problem}")

    summary = summary_dict(report, goldens_problems=golden_problems)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    status = "clean" if summary["clean"] else "DIVERGED"
    truncated = " (TRUNCATED by --max-seconds)" if report.truncated else ""
    print(
        f"conformance: {report.completed_seeds}/{report.seeds} seeds, "
        f"{len(report.records)} divergences, "
        f"{len(golden_problems)} golden problems, "
        f"{report.elapsed_s:.1f}s -> {status}{truncated}"
    )
    return 0 if summary["clean"] else 1


def _cmd_lint(args) -> int:
    import json

    from repro.analysis import Severity, analyze, lint_benchmark

    threshold = Severity.parse(args.fail_on)
    reports = []
    if args.file:
        automaton = _load_automaton(pathlib.Path(args.file))
        reports.append(analyze(automaton))
    else:
        names = args.names if args.names else BENCHMARK_NAMES
        for name in names:
            # lint=False: the gate would raise before we could report.
            bench = build_benchmark(name, scale=args.scale, seed=args.seed, lint=False)
            reports.append(
                lint_benchmark(name, bench.automaton, use_suppressions=not args.no_suppressions)
            )

    failures = 0
    for report in reports:
        findings = report.at_least(threshold)
        status = "FAIL" if findings else "ok"
        failures += bool(findings)
        if args.json:
            continue
        shown = [d for d in report.diagnostics if d.severity >= Severity.WARNING]
        print(f"{report.automaton_name:25s} {status}  "
              f"({len(report.errors)} errors, {len(report.warnings)} warnings, "
              f"{len(report.suppressed)} suppressed)")
        for diagnostic in shown:
            print(f"    {diagnostic}")

    payload = {
        "fail_on": threshold.name.lower(),
        "clean": failures == 0,
        "reports": [report.to_dict() for report in reports],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_profile(args) -> int:
    from repro.telemetry.profile import (
        DEFAULT_BENCHMARKS,
        DEFAULT_ENGINES,
        SMOKE_BENCHMARKS,
        SMOKE_ENGINES,
        SMOKE_LIMIT,
        SMOKE_SCALE,
        run_profile,
        write_profile,
    )

    if args.smoke:
        names = args.names if args.names else SMOKE_BENCHMARKS
        engines = args.engine if args.engine else list(SMOKE_ENGINES)
        scale, limit = SMOKE_SCALE, SMOKE_LIMIT
    else:
        names = args.names if args.names else DEFAULT_BENCHMARKS
        engines = args.engine if args.engine else list(DEFAULT_ENGINES)
        scale, limit = args.scale, args.limit
    budget = None
    if args.scan_seconds is not None or args.memo_budget is not None:
        from repro.resilience.guards import ScanBudget

        budget = ScanBudget(wall_s=args.scan_seconds, memo_bytes=args.memo_budget)
    checkpoint = (
        args.checkpoint
        if args.checkpoint is not None
        else _default_checkpoint(args.out)
    )
    payload = run_profile(
        names=names,
        engines=engines,
        scale=scale,
        seed=args.seed,
        limit=limit or None,
        smoke=args.smoke,
        budget=budget,
        checkpoint=checkpoint or None,
        resume=args.resume,
    )
    if payload["resilience"]["resumed_cells"]:
        print(
            f"resumed {payload['resilience']['resumed_cells']} cells from checkpoint",
            file=sys.stderr,
        )
    for name, bench_row in payload["benchmarks"].items():
        print(
            f"{name}: {bench_row['states']:,} states, "
            f"build {bench_row['build_s']:.3f}s, lint {bench_row['lint_s']:.3f}s"
        )
        for engine_name, row in bench_row["engines"].items():
            if "skipped" in row:
                print(f"  {engine_name:10s} skipped: {row['skipped']}")
            else:
                degraded = (
                    f"  [degraded -> {row['engine_used']}]"
                    if "engine_used" in row and row["engine_used"] != engine_name
                    else ""
                )
                print(
                    f"  {engine_name:10s} compile {row['compile_s']:.3f}s  "
                    f"scan {row['scan_s']:.3f}s  {row['ksym_per_s'] or 0:.1f} ksym/s  "
                    f"{row['reports']} reports  "
                    f"mean active {row['mean_active_set']:.2f}{degraded}"
                )
    cache = payload["cache"]
    print(f"cache: {cache['hits']} hits, {cache['misses']} misses")
    if args.out:
        out = write_profile(payload, args.out)
        print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_grep(args) -> int:
    automaton = compile_regex(args.pattern, args.flags)
    data = pathlib.Path(args.file).read_bytes()
    result = auto_engine(automaton).run(data)
    for offset, _ident, _code in result.reports.iter_rows():
        start = max(0, offset - args.context)
        end = min(len(data), offset + args.context + 1)
        snippet = data[start:end]
        print(f"{offset}: {snippet!r}")
    return 0 if result.reports else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AutomataZoo benchmark suite tools"
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise typed failures with a full traceback "
        "(default: one-line message + typed exit code)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark names").set_defaults(func=_cmd_list)

    p = sub.add_parser("build", help="generate a benchmark; optionally export")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write automaton (.mnrl json or .anml xml)")
    p.add_argument("--input-output", help="write the standard input stimulus")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("run", help="simulate a benchmark on its standard input")
    p.add_argument("name")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=10_000, help="max input symbols")
    p.add_argument("--engine", choices=sorted(ENGINE_REGISTRY), default="bitset")
    p.add_argument("--show-reports", type=int, default=0, metavar="N")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("stats", help="statistics of a saved automaton")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("table1", help="print Table-I-style suite statistics")
    p.add_argument("--scale", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=10_000)
    p.add_argument("--names", nargs="*", help="subset of benchmarks")
    p.add_argument(
        "--checkpoint", help="journal per-benchmark rows here (resumable sweep)"
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="reuse rows already in --checkpoint; compute only missing ones",
    )
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", help="self-check generated benchmarks")
    p.add_argument("--scale", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--names", nargs="*", help="subset of benchmarks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "export-suite", help="write the benchmark suite to a directory"
    )
    p.add_argument("directory")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--names", nargs="*", help="subset of benchmarks")
    p.set_defaults(func=_cmd_export_suite)

    p = sub.add_parser(
        "conformance",
        help="differential fuzz of engines/transforms + golden-digest check",
    )
    p.add_argument("--seeds", type=int, default=200, help="fuzz cases to run")
    p.add_argument("--start-seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=10, help="states per fuzz case")
    p.add_argument("--max-input-len", type=int, default=48)
    p.add_argument(
        "--repro-dir", help="serialize shrunk repros of any divergence here"
    )
    p.add_argument(
        "--out",
        default="bench_results/CONFORMANCE.json",
        help="summary JSON path ('' to skip)",
    )
    p.add_argument(
        "--skip-goldens", action="store_true", help="skip the golden-digest check"
    )
    p.add_argument(
        "--update-goldens",
        action="store_true",
        help="recompute and rewrite the golden digests, then exit",
    )
    p.add_argument(
        "--goldens-path", help="override the golden registry file (testing)"
    )
    p.add_argument(
        "--max-seconds",
        type=float,
        help="wall-clock budget; remaining seeds are skipped and the "
        "summary is marked truncated (still valid JSON)",
    )
    p.add_argument(
        "--checkpoint",
        help="per-seed journal path (default: derived from --out; '' disables)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip seeds already journaled in --checkpoint",
    )
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_conformance)

    p = sub.add_parser(
        "lint", help="static-analyze benchmark automata (or a saved file)"
    )
    p.add_argument("--names", nargs="*", help="subset of benchmarks")
    p.add_argument("--file", help="lint a saved .mnrl/.anml automaton instead")
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fail-on",
        choices=["warning", "error"],
        default="error",
        help="minimum severity that makes the exit status non-zero",
    )
    p.add_argument(
        "--no-suppressions",
        action="store_true",
        help="ignore the per-benchmark suppression table",
    )
    p.add_argument("--json", action="store_true", help="print the JSON report")
    p.add_argument(
        "--out",
        default="bench_results/LINT.json",
        help="report JSON path ('' to skip)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "profile",
        help="instrumented benchmark/engine sweep -> bench_results/PROFILE.json",
    )
    p.add_argument("--names", nargs="*", help="benchmarks (default: Snort, ClamAV, Random Forest A)")
    p.add_argument(
        "--engine",
        action="append",
        choices=sorted(ENGINE_REGISTRY),
        help="engine to profile; repeatable (default: all registered engines)",
    )
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=10_000, help="max input symbols (0 = all)")
    p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast sweep (fixed small scale/limit, CPU engines only)",
    )
    p.add_argument(
        "--out",
        default="bench_results/PROFILE.json",
        help="profile JSON path ('' to skip)",
    )
    p.add_argument(
        "--scan-seconds",
        type=float,
        help="per-cell wall-clock budget; a cell that trips it degrades "
        "down the engine fallback ladder instead of failing the sweep",
    )
    p.add_argument(
        "--memo-budget",
        type=int,
        help="lazy-DFA memo byte budget per cell (same ladder degradation)",
    )
    p.add_argument(
        "--checkpoint",
        help="per-cell journal path (default: derived from --out; '' disables)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already journaled in --checkpoint",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("grep", help="scan a file with a compiled regex")
    p.add_argument("pattern")
    p.add_argument("file")
    p.add_argument("--flags", default="")
    p.add_argument("--context", type=int, default=10)
    p.set_defaults(func=_cmd_grep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
