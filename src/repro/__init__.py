"""AutomataZoo reproduction: a modern automata processing benchmark suite.

A from-scratch Python implementation of the system described in Wadden et
al., *AutomataZoo: A Modern Automata Processing Benchmark Suite* (IISWC
2018): the automata substrate (homogeneous automata, simulation engines,
regex compiler, optimizations and transformations), generators for all 24
benchmarks, and the harness that regenerates every table and figure in the
paper's evaluation.

Quickstart::

    from repro import compile_regex, VectorEngine

    automaton = compile_regex(r"ab[cd]+e")
    engine = VectorEngine(automaton)
    for event in engine.run(b"zzabcde!!").reports:
        print(event.offset, event.code)
"""

from repro.core import (
    Automaton,
    CharSet,
    CounterElement,
    CounterMode,
    NFA,
    STE,
    StartMode,
)
from repro.engines import (
    KINTEX_KU060,
    BitsetEngine,
    LazyDFAEngine,
    MICRON_D480,
    ReferenceEngine,
    ReportBatch,
    ReportEvent,
    RunResult,
    SpatialModel,
    VectorEngine,
    auto_engine,
    compiled_engine,
)
from repro.errors import (
    AutomatonError,
    CapacityError,
    EngineError,
    PatternError,
    RegexError,
    RegexUnsupportedError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "Automaton",
    "AutomatonError",
    "BitsetEngine",
    "CapacityError",
    "CharSet",
    "CounterElement",
    "CounterMode",
    "EngineError",
    "KINTEX_KU060",
    "LazyDFAEngine",
    "MICRON_D480",
    "NFA",
    "PatternError",
    "ReferenceEngine",
    "RegexError",
    "RegexUnsupportedError",
    "ReportBatch",
    "ReportEvent",
    "ReproError",
    "RunResult",
    "STE",
    "SpatialModel",
    "StartMode",
    "VectorEngine",
    "auto_engine",
    "compile_regex",
    "compiled_engine",
]


def compile_regex(pattern: str, **kwargs):
    """Compile a PCRE-subset regex to a homogeneous automaton.

    Thin convenience wrapper over :func:`repro.regex.compile_regex`,
    imported lazily so the core package loads without the regex subsystem.
    """
    from repro.regex import compile_regex as _compile

    return _compile(pattern, **kwargs)
