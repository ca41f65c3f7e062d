"""Module-level engine compile cache.

Compiling an engine (packing charsets, flattening successor tables) is
O(states x alphabet) and dominates short scans: ``parallel_scan`` used to
rebuild a full :class:`~repro.engines.vector.VectorEngine` per segment per
call, and benchmark loops recompile the same automaton over and over.
This cache memoises compiled engines keyed by

    (automaton fingerprint, engine class, construction options)

so repeated compiles of structurally identical automata — including copies
that crossed a process boundary, as in process-pool workers — hit the same
entry.  The store is a bounded LRU (engines for the full-scale suite are
large, so unbounded growth is not acceptable) guarded by a lock so thread
pools can share it.

Cached engines are shared objects: all engines in this library are
immutable after construction with per-run state held in stream sessions,
so sharing is safe.  :class:`~repro.engines.lazydfa.LazyDFAEngine` grows
its memo table across runs; that growth happens under the engine's own
lock (see the thread-safety contract in :mod:`repro.engines.lazydfa`), so
one lazy DFA served from this cache can be hammered from many threads.

**Degraded engines are never cached under the original key.**  The
resilience fallback ladder (:mod:`repro.resilience.ladder`) looks each
rung up under that rung's *own* class, so a scan degraded from the lazy
DFA to, say, the bitset engine leaves the ``LazyDFAEngine`` entry
untouched for concurrent callers.  As a backstop, a cache hit is
revalidated against the requested class: an entry of the wrong type is
evicted and recompiled (``cache.type_mismatch_evicted``) rather than
returned.

The fingerprint is a structural SHA-256 over elements, charsets, start and
report flags, edges and reset wires.  It is cached on the automaton object
and revalidated against the automaton's mutation generation
(:attr:`~repro.core.automaton.Automaton.generation`), which every added or
removed element and every new edge or reset wire bumps — an O(1) check, so
a warm cache lookup costs the same for a 10-state and a 10^6-state
automaton.  The one blind spot is mutating an element object in place
(e.g. reassigning an STE's ``charset``): the graph is unchanged, so call
:func:`automaton_fingerprint` with ``use_cache=False`` after such surgery.

A second per-fingerprint LRU, :func:`resident`, holds what callers derive
from an automaton besides an engine (the parallel-scan supervisor's
records); the limit and :func:`clear_engine_cache` apply to both.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro import telemetry
from repro.core.automaton import Automaton
from repro.core.elements import CounterElement, STE
from repro.engines.base import Engine
from repro.engines.vector import VectorEngine
from repro.errors import CapacityError

__all__ = [
    "automaton_fingerprint",
    "compiled_engine",
    "auto_engine",
    "clear_engine_cache",
    "engine_cache_info",
    "set_engine_cache_limit",
    "resident",
]

_FINGERPRINT_ATTR = "_repro_fingerprint"

_lock = threading.Lock()
_cache: "OrderedDict[tuple, Engine]" = OrderedDict()
_maxsize = 32
_hits = 0
_misses = 0
#: Fingerprint -> what a caller keeps resident for it (the parallel-scan
#: supervisor's records); bounded by ``_maxsize`` like ``_cache``.
_resident: "OrderedDict[str, object]" = OrderedDict()
#: Held while a resident value is derived, so each fingerprint is derived
#: once per process; never taken together with ``_lock``.
_resident_lock = threading.Lock()


def automaton_fingerprint(automaton: Automaton, *, use_cache: bool = True) -> str:
    """Structural SHA-256 fingerprint of an automaton.

    Two automata with the same elements (idents, charsets, start modes,
    report flags/codes, counter targets/modes), edges and reset wires get
    the same fingerprint, regardless of object identity or pickling.  The
    digest is stashed on the automaton together with its mutation
    generation and reused while the generation is unchanged, so any
    structural edit (element, edge or reset wire added or removed) forces a
    recomputation.  Mutating an element object in place (e.g. reassigning
    an STE's ``charset``) does not bump the generation; pass
    ``use_cache=False`` after such an edit.
    """
    generation = automaton.generation
    stamp = getattr(automaton, _FINGERPRINT_ATTR, None)
    if use_cache and stamp is not None and stamp[0] == generation:
        return stamp[1]
    h = hashlib.sha256()
    update = h.update
    for element in automaton.elements():
        if isinstance(element, STE):
            update(b"S")
            update(element.ident.encode())
            update(b"\x00")
            update(element.charset._mask.to_bytes(32, "little"))
            update(element.start.name.encode())
        elif isinstance(element, CounterElement):
            update(b"C")
            update(element.ident.encode())
            update(b"\x00")
            update(str(element.target).encode())
            update(element.mode.name.encode())
        else:  # pragma: no cover - defensive
            update(b"?")
            update(repr(element).encode())
        update(b"\x01" if element.report else b"\x02")
        update(repr(element.report_code).encode())
        update(b"\x03")
    for src in automaton.idents():
        update(src.encode())
        update(b"\x04")
        for dst in sorted(automaton.successors(src)):
            update(dst.encode())
            update(b"\x00")
        update(b"\x05")
    for src, counter in sorted(automaton.reset_edges()):
        update(b"R")
        update(src.encode())
        update(b"\x00")
        update(counter.encode())
        update(b"\x06")
    digest = h.hexdigest()
    try:
        setattr(automaton, _FINGERPRINT_ATTR, (generation, digest))
    except AttributeError:  # pragma: no cover - slotted subclasses
        pass
    return digest


def compiled_engine(
    automaton: Automaton,
    engine_cls: type[Engine] = VectorEngine,
    **options,
) -> Engine:
    """A compiled engine for ``automaton``, memoised across calls.

    ``options`` are forwarded to the engine constructor and participate in
    the cache key, so e.g. different ``max_dfa_states`` budgets coexist.
    """
    global _hits, _misses
    key = (
        automaton_fingerprint(automaton),
        engine_cls,
        tuple(sorted(options.items())),
    )
    with _lock:
        engine = _cache.get(key)
        if engine is not None and type(engine) is not engine_cls:
            # Degraded-engine rule: a hit must be exactly the class the
            # caller asked for.  A fallback ladder that rewrote an entry
            # with a lower-rung engine (or any other type confusion) would
            # otherwise hand every future caller of the *original* engine
            # the degraded one, silently and forever.  Evict and recompile.
            del _cache[key]
            engine = None
            telemetry.incr("cache.type_mismatch_evicted")
        if engine is not None:
            _cache.move_to_end(key)
            _hits += 1
            telemetry.incr("cache.hit")
            return engine
        _misses += 1
        telemetry.incr("cache.miss")
    # Compile outside the lock: construction can take seconds and must not
    # serialise unrelated workers.  A racing duplicate compile is benign.
    engine = engine_cls(automaton, **options)
    with _lock:
        _cache[key] = engine
        _cache.move_to_end(key)
        while len(_cache) > _maxsize:
            _cache.popitem(last=False)
            telemetry.incr("cache.eviction")
    return engine


def auto_engine(automaton: Automaton, **options) -> Engine:
    """The best general-purpose CPU engine for this automaton, cached.

    :class:`~repro.engines.bitset.BitsetEngine` when the automaton fits
    under its quadratic-successor-mask cap, else
    :class:`~repro.engines.vector.VectorEngine` (whose CSR successor
    tables scale to the multi-million-state full-size builds).
    """
    from repro.engines.bitset import BitsetEngine

    try:
        return compiled_engine(automaton, BitsetEngine, **options)
    except CapacityError:
        return compiled_engine(automaton, VectorEngine)


def resident(fingerprint: str, update: Callable[[object | None], object]) -> object:
    """The value kept resident for ``fingerprint``, as ``update`` leaves it.

    ``update`` receives the current value (``None`` when there is none) and
    returns the value to keep, usually the same one.  It runs under the
    store's lock, so concurrent callers derive a fingerprint's value once
    per process.  The store is an LRU bounded by the compile cache's limit.
    """
    with _resident_lock:
        value = update(_resident.get(fingerprint))
        _resident[fingerprint] = value
        _resident.move_to_end(fingerprint)
        while len(_resident) > _maxsize:
            _resident.popitem(last=False)
        return value


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss statistics of the engine compile cache."""

    hits: int
    misses: int
    size: int
    maxsize: int
    #: Fingerprints held by :func:`resident` in this process (the
    #: parallel-scan supervisor's records), bounded by ``maxsize``.
    resident: int


def engine_cache_info() -> CacheInfo:
    """Current cache statistics (for benchmarks and diagnostics)."""
    with _lock:
        hits, misses, size, maxsize = _hits, _misses, len(_cache), _maxsize
    with _resident_lock:
        held = len(_resident)
    return CacheInfo(hits, misses, size, maxsize, resident=held)


def clear_engine_cache() -> None:
    """Drop every cached engine and resident value; reset the statistics."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
    with _resident_lock:
        _resident.clear()


def set_engine_cache_limit(maxsize: int) -> None:
    """Resize both LRUs (evicting oldest entries if shrinking)."""
    global _maxsize
    if maxsize < 1:
        raise ValueError("cache limit must be at least 1")
    with _lock:
        _maxsize = maxsize
        while len(_cache) > _maxsize:
            _cache.popitem(last=False)
    with _resident_lock:
        while len(_resident) > maxsize:
            _resident.popitem(last=False)
