"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ids_packets --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with telemetry off;
``--trace 1`` prints the per-layer metrics of a separate traced run.  Each
metric is printed as ``name value unit``; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run's metadata, metrics, notes and (traced runs) spans
are also written to ``perfbench/results/``.  The exit code is 0 only when
every check passed.

The workloads and metrics are documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import subprocess
import sys
from multiprocessing import resource_tracker

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed that any claimed gain must also hold on, besides the seeds it
#: was developed against.
HOLDOUT_SEED = 7


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from harness import default_requests, run_workload
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal timed-phase length; sets the request count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="override the request count (smoke tests)")
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    n_requests = args.requests or default_requests(workload_cls, args.seconds)
    if n_requests < 1:
        parser.error("--requests must be at least 1")
    result = run_workload(workload_cls, args.seed, n_requests, trace=bool(args.trace))
    # A spawn pool (disk_parallel) also starts multiprocessing's resource
    # tracker; stop it and wait for it, as the pool itself was.
    gc.collect()
    resource_tracker._resource_tracker._stop()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "requests": n_requests,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }
    metrics = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
    }
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    raw = {name: {"value": value, "unit": unit} for name, (value, unit) in result.raw.items()}
    record = {"meta": meta, **summary, "raw": raw, "notes": result.notes}
    if args.trace:
        record["spans"] = [
            {"name": name, "request": request, "parent": parent, "start": start, "end": end}
            for name, request, parent, start, end in result.spans
        ]
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("# meta " + json.dumps(meta))
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit) in result.raw.items():
        print(f"# raw {name} {value!r} {unit}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
