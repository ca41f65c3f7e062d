"""Execution engines: reference, vectorised, bit-parallel, lazy-DFA, spatial.

``ENGINE_REGISTRY`` maps the short names used by the CLI ``--engine`` flag
and the benchmark harness to engine classes; ``compiled_engine`` /
``auto_engine`` memoise compiled engines across calls (see
:mod:`repro.engines.cache`).
"""

from repro.engines.base import Engine, ReportBatch, ReportEvent, RunResult
from repro.engines.bitset import BitsetEngine, BitsetStream
from repro.engines.cache import (
    automaton_fingerprint,
    auto_engine,
    clear_engine_cache,
    compiled_engine,
    engine_cache_info,
    set_engine_cache_limit,
)
from repro.engines.lazydfa import LazyDFAEngine, LazyDFAStream
from repro.engines.parallel import parallel_scan, parallel_speedup_model, split_with_overlap
from repro.engines.placement import ISLAND_FABRIC, PlacementReport, RoutingFabric, TREE_FABRIC, place
from repro.engines.prefilter import PrefilterScanner
from repro.engines.reference import ReferenceEngine, ReferenceStream
from repro.engines.spatial import KINTEX_KU060, MICRON_D480, SpatialModel
from repro.engines.vector import VectorEngine, VectorStream

#: Short name -> engine class, for CLI flags and benchmark harnesses.
ENGINE_REGISTRY: dict[str, type[Engine]] = {
    "reference": ReferenceEngine,
    "vector": VectorEngine,
    "bitset": BitsetEngine,
    "dfa": LazyDFAEngine,
}

__all__ = [
    "Engine",
    "ENGINE_REGISTRY",
    "KINTEX_KU060",
    "BitsetEngine",
    "BitsetStream",
    "LazyDFAEngine",
    "LazyDFAStream",
    "ISLAND_FABRIC",
    "PlacementReport",
    "PrefilterScanner",
    "RoutingFabric",
    "TREE_FABRIC",
    "automaton_fingerprint",
    "auto_engine",
    "clear_engine_cache",
    "compiled_engine",
    "engine_cache_info",
    "parallel_scan",
    "parallel_speedup_model",
    "place",
    "set_engine_cache_limit",
    "split_with_overlap",
    "MICRON_D480",
    "ReferenceEngine",
    "ReferenceStream",
    "ReportBatch",
    "ReportEvent",
    "RunResult",
    "SpatialModel",
    "VectorEngine",
    "VectorStream",
]
