"""Tiny-size smoke test of the benchmark.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
Every workload runs a handful of requests, untraced and traced, and must
print each metric with its unit; a corrupted report stream must be counted
as a failed request.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402

TINY_REQUESTS = 6


def _run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--requests", str(TINY_REQUESTS),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return done, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done, result = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == TINY_REQUESTS * harness.PASSES * (1 + trace)
    assert result["failed"] == 0
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    lines = done.stdout.splitlines()
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines
        ), name
    if trace:
        # Verdicts need full-size runs (evictions need more tenants than
        # the cache holds); at tiny size only the checks' presence is tested.
        checks = [line for line in lines if line.startswith("# layer check:")]
        assert len(checks) == len(harness.LAYER_CHECKS[workload])


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


class _CorruptOne(workloads.IdsPackets):
    """Drops one report from request 2's stream after the warm-up pass."""

    def start_pass(self):
        super().start_pass()
        self.passes = getattr(self, "passes", 0) + 1

    def request(self, index):
        outcome = super().request(index)
        if self.passes > 1 and index == 2:
            stream = next(stream for stream in outcome.streams if stream)
            stream.pop()
        return outcome


def test_corrupted_report_stream_counts_as_failed():
    result = harness.run_workload(_CorruptOne, 3, TINY_REQUESTS)
    assert not result.correct
    attempted = TINY_REQUESTS * harness.PASSES
    assert result.attempted == attempted
    assert result.failed == harness.PASSES  # request 2, once per pass
    assert result.metrics["success_frac"] == (1 - result.failed / attempted, "ratio")
    assert any("digest differs" in note for note in result.notes)


def test_missing_package_exits_nonzero_without_a_result(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    (copy / "run.py").write_text((BENCH / "run.py").read_text())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "ids_packets",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
