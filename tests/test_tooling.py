"""Code-hygiene gates.

``ruff`` and ``mypy`` are configured in pyproject.toml but are optional
tooling (``pip install repro[lint]``); their tests skip when the tools
are not installed so the default tier never depends on extra packages.
An AST-based unused-import sweep runs unconditionally as the minimal
always-on slice of the same hygiene bar.
"""

import ast
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        [shutil.which("ruff"), "check", str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.slow
@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Approximate ruff's F401 for one module.

    ``import x as x`` / ``from m import x as x`` (the explicit re-export
    idiom) and ``__init__.py`` re-export surfaces are exempt, matching
    how ruff treats them in package interfaces.
    """
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # __all__ entries and doc references
    return [
        f"{path.relative_to(REPO)}:{lineno}: unused import {name!r}"
        for name, lineno in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports_in_src():
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        problems.extend(_unused_imports(path))
    assert not problems, "\n".join(problems)


#: Calls that belong to the stream frame, ``repro.engines.base.Stream.feed``.
_FRAME_CALLS = {"check_deadline", "record_scan"}


def test_engine_streams_share_the_feed_frame():
    """Guard checks and scan telemetry live in ``Stream.feed`` only, and
    no registry engine's stream replaces it, so every engine has the same
    guard blocks and the same ``engine.scan.<label>`` epilogue."""
    from repro.core import Automaton, CharSet, StartMode
    from repro.engines import ENGINE_REGISTRY
    from repro.engines.base import Stream

    problems = []
    for path in sorted((SRC / "engines").glob("*.py")):
        if path.name == "base.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in _FRAME_CALLS:
                problems.append(f"{path.relative_to(REPO)}:{node.lineno}: calls {name}")
    automaton = Automaton()
    automaton.add_ste("s", CharSet.from_chars("a"), start=StartMode.ALL_INPUT, report=True)
    for name, engine_cls in ENGINE_REGISTRY.items():
        stream_cls = type(engine_cls(automaton).stream())
        if stream_cls.feed is not Stream.feed:
            problems.append(f"{name}: {stream_cls.__name__} overrides Stream.feed")
    assert not problems, "\n".join(problems)


def test_subset_step_has_one_caller():
    """``SubsetMasks.step`` is called only inside ``SubsetMemo``, so the
    lazy DFA, the bitset memo walk and the ahead-of-time DFA share one
    subset construction (one lock, one publish order, one cap) instead of
    each growing its own memo.  Any ``.step(...)`` call in the package
    counts."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path == SRC / "engines" / "lowered.py":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "SubsetMemo":
                    allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "step"
                and id(node) not in allowed
            ):
                problems.append(f"{path.relative_to(REPO)}:{node.lineno}: calls .step")
    assert not problems, "\n".join(problems)


def test_src_compiles_with_warnings_as_errors():
    """Every module byte-compiles; syntax rot fails fast even for files
    no test currently imports."""
    import py_compile

    for path in sorted(SRC.rglob("*.py")):
        py_compile.compile(str(path), doraise=True)


def _stable_profile_view(payload: dict) -> dict:
    """The timing-independent slice of a PROFILE.json payload."""
    return {
        name: {
            "states": bench["states"],
            "input_symbols": bench["input_symbols"],
            "engines": {
                engine: {
                    key: row[key]
                    for key in ("symbols", "reports", "mean_active_set")
                    if key in row
                }
                for engine, row in bench["engines"].items()
            },
        }
        for name, bench in payload["benchmarks"].items()
    }


@pytest.mark.slow
def test_profile_kill_and_resume(tmp_path):
    """Kill a checkpointed sweep mid-flight; --resume completes it.

    ``REPRO_FAULT_HALT_AFTER_CELLS=2`` hard-kills (``os._exit(137)``, as
    SIGKILL would) after the second journaled cell; the resumed run must
    re-run only the missing cells and produce the same result content as
    an uninterrupted sweep (docs/RESILIENCE.md).
    """
    import json
    import os

    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = tmp_path / "PROFILE.json"
    ckpt = tmp_path / "PROFILE.ckpt.json"
    base = [
        sys.executable, "-m", "repro", "profile", "--smoke",
        "--names", "Snort", "ClamAV",
        "--out", str(out), "--checkpoint", str(ckpt),
    ]

    killed = subprocess.run(
        base, env={**env, "REPRO_FAULT_HALT_AFTER_CELLS": "2"},
        capture_output=True, text=True, cwd=REPO,
    )
    assert killed.returncode == 137, killed.stderr
    assert not out.exists()
    journaled = json.loads(ckpt.read_text())["cells"]
    assert len(journaled) == 2

    resumed = subprocess.run(
        base + ["--resume"], env=env, capture_output=True, text=True, cwd=REPO
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "resumed 2 cells" in resumed.stderr
    assert not ckpt.exists()  # journal deleted on successful completion
    payload = json.loads(out.read_text())
    assert payload["resilience"]["resumed_cells"] == 2

    clean_out = tmp_path / "CLEAN.json"
    clean = subprocess.run(
        [
            sys.executable, "-m", "repro", "profile", "--smoke",
            "--names", "Snort", "ClamAV",
            "--out", str(clean_out), "--checkpoint", "",
        ],
        env=env, capture_output=True, text=True, cwd=REPO,
    )
    assert clean.returncode == 0, clean.stderr
    assert _stable_profile_view(payload) == _stable_profile_view(
        json.loads(clean_out.read_text())
    )
