"""Seeded generator of structurally diverse automata and adversarial inputs.

The differential-testing harness (:mod:`repro.conformance.runner`) needs
automata that exercise every corner of the execution model, not just the
shapes the suite generators happen to produce.  This module builds small
random automata from a :class:`random.Random` seed, deliberately covering:

* **char-class edges** — empty sets, singletons, alphabet subsets, the full
  alphabet, out-of-alphabet complements and (rarely) ``ALL_BYTES``;
* **start corners** — ``START_OF_DATA`` and ``ALL_INPUT`` starts, including
  *reporting* start states (report-on-first-symbol is a classic engine
  off-by-one);
* **dead states** — states with neither a start mode nor predecessors,
  which must never match (but still cost active-set bookkeeping if an
  engine mishandles them);
* **counters** — all three :class:`~repro.core.elements.CounterMode`
  behaviours, multiple feeders, counter→STE enables and reset-port wires;
* **self loops and cycles** — sustained activity, the densest engine path;
* **several components** — some byte-level cases merge 2-4 independently
  drawn parts side by side (:meth:`~repro.core.automaton.Automaton.merge`
  with a prefix), each with or without counters of its own, the shape of
  the DNA meshes and of the bitset engine's per-group memo walk; the
  parts together stay within ``max_states`` STEs.

Inputs are adversarial in the same spirit: uniform segments, long runs of
one symbol (density-heuristic flips), out-of-alphabet bytes, NUL bytes,
and (sometimes) the empty input.

Everything is a pure function of the seed, so a failing case reproduces
from its seed alone and golden digests stay stable across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random

from repro.core.automaton import Automaton
from repro.core.charset import ALL_BYTES, CharSet
from repro.core.elements import CounterMode, StartMode

__all__ = [
    "CaseConfig",
    "ConformanceCase",
    "GENERATOR_VERSION",
    "random_automaton",
    "random_input",
    "random_case",
]

#: The default byte alphabet cases are built over.  Small on purpose: a
#: tiny alphabet maximises collision probability between charsets and
#: input symbols, which is where divergences live.
DEFAULT_ALPHABET = b"abcd"

#: Share of byte-level cases whose automaton has 2-4 merged parts.
_MULTI_PART_SHARE = 0.3

#: Bumped whenever a seed's case changes, so a checkpoint journaled by an
#: older generator is refused on resume instead of mixed in (2: merged
#: multi-part cases).
GENERATOR_VERSION = 2


@dataclass(frozen=True)
class CaseConfig:
    """Knobs for one generated case."""

    max_states: int = 10
    alphabet: bytes = DEFAULT_ALPHABET
    allow_counters: bool = True
    allow_resets: bool = True
    #: Bit-level mode: charsets over {0, 1} and bit-stream inputs, no
    #: counters — the shape :func:`repro.transforms.striding.stride`
    #: accepts, so striding can be differentially tested.
    bit_level: bool = False
    max_input_len: int = 48


@dataclass(frozen=True)
class ConformanceCase:
    """One generated (automaton, input) pair plus its provenance."""

    seed: int
    automaton: Automaton = field(compare=False)
    data: bytes
    config: CaseConfig = field(default_factory=CaseConfig)


def _random_charset(rng: Random, alphabet: bytes) -> CharSet:
    roll = rng.random()
    if roll < 0.04:
        return CharSet.none()  # never matches: dead edge
    if roll < 0.40:
        return CharSet.single(rng.choice(alphabet))
    if roll < 0.75:
        k = rng.randint(1, len(alphabet))
        return CharSet(rng.sample(list(alphabet), k))
    if roll < 0.88:
        return CharSet(list(alphabet))
    if roll < 0.96:
        # Complement of an alphabet subset: matches out-of-alphabet bytes.
        k = rng.randint(0, len(alphabet) - 1)
        return ~CharSet(rng.sample(list(alphabet), k))
    return ALL_BYTES


def _random_bit_charset(rng: Random) -> CharSet:
    roll = rng.random()
    if roll < 0.45:
        return CharSet.single(rng.randint(0, 1))
    if roll < 0.9:
        return CharSet([0, 1])
    return CharSet.none()


def random_automaton(rng: Random, config: CaseConfig = CaseConfig()) -> Automaton:
    """A structurally diverse random automaton drawn from ``rng``."""
    n = rng.randint(1, config.max_states)
    automaton = Automaton(f"fuzz-{n}")
    for i in range(n):
        if config.bit_level:
            charset = _random_bit_charset(rng)
        else:
            charset = _random_charset(rng, config.alphabet)
        start = rng.choices(
            [StartMode.NONE, StartMode.START_OF_DATA, StartMode.ALL_INPUT],
            weights=[6, 2, 3],
        )[0]
        automaton.add_ste(
            f"s{i}",
            charset,
            start=start,
            # Report-on-start corners are drawn like any other state.
            report=rng.random() < 0.45,
            report_code=i,
        )
    # Random edge set, with an explicit bias toward self loops and 2-cycles
    # (sustained activity) on top of uniform wiring.  Some states end up
    # with no start and no predecessors: dead by construction.
    for _ in range(rng.randint(0, 2 * n)):
        automaton.add_edge(f"s{rng.randrange(n)}", f"s{rng.randrange(n)}")
    if rng.random() < 0.4:
        loop = rng.randrange(n)
        automaton.add_edge(f"s{loop}", f"s{loop}")
    if n >= 2 and rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        automaton.add_edge(f"s{a}", f"s{b}")
        automaton.add_edge(f"s{b}", f"s{a}")

    if config.allow_counters and not config.bit_level and rng.random() < 0.5:
        for c in range(rng.randint(1, 2)):
            ident = f"c{c}"
            automaton.add_counter(
                ident,
                rng.randint(1, 4),
                mode=rng.choice(list(CounterMode)),
                report=rng.random() < 0.6,
                report_code=1000 + c,
            )
            for feeder in rng.sample(range(n), rng.randint(1, min(3, n))):
                automaton.add_edge(f"s{feeder}", ident)
            for enabled in rng.sample(range(n), rng.randint(0, min(2, n))):
                automaton.add_edge(ident, f"s{enabled}")
            if config.allow_resets and rng.random() < 0.4:
                automaton.add_reset_edge(f"s{rng.randrange(n)}", ident)
    return automaton


def random_input(rng: Random, config: CaseConfig = CaseConfig()) -> bytes:
    """An adversarial input stream drawn from ``rng``."""
    if config.bit_level:
        length = rng.randint(0, config.max_input_len)
        return bytes(rng.randint(0, 1) for _ in range(length))
    if rng.random() < 0.05:
        return b""  # empty-stream edge case
    target = rng.randint(1, config.max_input_len)
    out = bytearray()
    alphabet = config.alphabet
    while len(out) < target:
        roll = rng.random()
        if roll < 0.55:  # uniform segment
            out.extend(
                rng.choice(alphabet) for _ in range(rng.randint(1, 8))
            )
        elif roll < 0.85:  # run of one symbol (path/density flips)
            out.extend([rng.choice(alphabet)] * rng.randint(2, 12))
        elif roll < 0.95:  # out-of-alphabet byte
            out.append(rng.choice([0x00, 0x7F, 0xFF, max(alphabet) + 1]))
        else:  # NUL run (widening pad symbol)
            out.extend(b"\x00" * rng.randint(1, 4))
    return bytes(out[:target])


def random_case(seed: int, *, config: CaseConfig | None = None, **overrides) -> ConformanceCase:
    """Build the deterministic case for ``seed`` (one :class:`random.Random`)."""
    cfg = config if config is not None else CaseConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    rng = Random(seed)
    automaton = random_automaton(rng, cfg)
    data = random_input(rng, cfg)
    if not cfg.bit_level and rng.random() < _MULTI_PART_SHARE:
        # The extra parts are drawn after the input, so every seed keeps
        # the first part and the input it drew before parts were merged;
        # they share what the first part left of ``max_states``.
        for part in range(1, rng.randint(2, 4)):
            room = cfg.max_states - sum(1 for _ in automaton.stes())
            if room < 1:
                break
            part_cfg = replace(cfg, max_states=room)
            automaton.merge(random_automaton(rng, part_cfg), prefix=f"g{part}.")
    return ConformanceCase(seed=seed, automaton=automaton, data=data, config=cfg)
