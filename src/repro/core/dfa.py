"""Ahead-of-time DFA compilation: subset construction + minimization.

The lazy DFA engine materialises states on demand; this module is the
ahead-of-time counterpart used when the full table is wanted — equivalence
checking, table-size studies, and Hyperscan-style compiled scanning of
small rulesets.  Two classic size levers are implemented:

* **alphabet compression** — symbols that no state distinguishes share a
  column (byte-oriented rulesets typically need far fewer than 256
  columns), and
* **Mealy minimization** — partition refinement over (emission, successor)
  signatures collapses equivalent subset states.

Subset construction is a :class:`~repro.engines.lowered.SubsetMemo`, the
lazy DFA's memo, with every cell filled; the symbol classes are its
:class:`~repro.engines.lowered.SubsetMasks`' alphabet classes.

Report semantics match the engines': taking a transition that corresponds
to a matching reporting STE emits that STE's report code at the current
offset.  Reports are deduplicated per code (a DFA cannot distinguish which
of several merged STEs matched); compare with NFA engines on
``{(offset, code)}`` sets.
"""

from __future__ import annotations

import numpy as np

from repro.core.automaton import Automaton
from repro.engines.base import ReportBatch, RunResult
from repro.engines.lowered import Lowered, SubsetMasks, SubsetMemo
from repro.errors import CapacityError, EngineError

__all__ = ["DFA"]


class DFA:
    """A dense-table DFA over compressed symbol classes."""

    def __init__(
        self,
        transitions: np.ndarray,  # (n_states, n_classes) int
        emissions: list[dict[int, frozenset]],  # per state: class -> codes
        start: int,
        symbol_class: np.ndarray,  # (256,) -> class index
    ) -> None:
        self.transitions = transitions
        self.emissions = emissions
        self.start = start
        self.symbol_class = symbol_class

    # -- construction ------------------------------------------------------

    @classmethod
    def from_automaton(cls, automaton: Automaton, *, max_states: int = 100_000) -> "DFA":
        """Determinise a (counter-free) homogeneous automaton."""
        if any(True for _ in automaton.counters()):
            raise EngineError("DFA compilation does not support counters")
        lowered = Lowered(automaton)
        masks = SubsetMasks(lowered)
        memo = SubsetMemo(masks, lowered.reports, [(0, lowered.n)], max_states)
        # Alphabet compression: one column per class of symbols with equal
        # membership masks.  States are numbered in the order first reached.
        n_classes = len(masks.classes)
        rows: list[list[int]] = []
        emissions: list[dict[int, frozenset]] = []
        memo.enter(masks.initial)
        while len(rows) < len(memo.subsets):
            cells = [memo.compute(0, len(rows), c) for c in range(n_classes)]
            if None in cells:
                break
            rows.append([target for target, _group in cells])
            emissions.append({
                c: frozenset(code for _ident, code in group)
                for c, (_target, group) in enumerate(cells)
                if group
            })
        if memo.full:
            raise CapacityError(f"DFA exceeded {max_states} states during subset construction")
        transitions = np.array(rows, dtype=np.int64)
        return cls(
            transitions, emissions, 0, np.asarray(masks.symbol_class, dtype=np.int64)
        )

    # -- properties ----------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_symbol_classes(self) -> int:
        return self.transitions.shape[1]

    # -- execution -----------------------------------------------------------

    def run(self, data: bytes) -> RunResult:
        """Scan ``data``; reports are deduplicated per (offset, code)."""
        reports = ReportBatch()
        state = self.start
        transitions = self.transitions
        emissions = self.emissions
        symbol_class = self.symbol_class
        for offset, symbol in enumerate(data):
            cls_index = int(symbol_class[symbol])
            codes = emissions[state].get(cls_index)
            if codes is not None:
                reports.offsets.append(offset)
                reports.groups.append(tuple([("dfa", code) for code in codes]))
            state = int(transitions[state, cls_index])
        return RunResult(reports=reports, cycles=len(data))

    # -- minimization ----------------------------------------------------------

    def minimize(self) -> "DFA":
        """Mealy minimization by partition refinement."""
        n = self.n_states
        emission_key = [
            tuple(sorted((c, tuple(sorted(map(repr, codes)))) for c, codes in e.items()))
            for e in self.emissions
        ]
        # initial partition: states with identical emission behaviour
        block_of = {}
        blocks: dict[tuple, int] = {}
        for state in range(n):
            key = emission_key[state]
            if key not in blocks:
                blocks[key] = len(blocks)
            block_of[state] = blocks[key]

        while True:
            signatures: dict[tuple, int] = {}
            new_block_of = {}
            for state in range(n):
                signature = (
                    block_of[state],
                    tuple(
                        block_of[int(self.transitions[state, c])]
                        for c in range(self.n_symbol_classes)
                    ),
                )
                if signature not in signatures:
                    signatures[signature] = len(signatures)
                new_block_of[state] = signatures[signature]
            if len(signatures) == len(set(block_of.values())):
                block_of = new_block_of
                break
            block_of = new_block_of

        n_blocks = len(set(block_of.values()))
        representative: dict[int, int] = {}
        for state in range(n):
            representative.setdefault(block_of[state], state)
        transitions = np.zeros((n_blocks, self.n_symbol_classes), dtype=np.int64)
        emissions: list[dict[int, frozenset]] = [dict() for _ in range(n_blocks)]
        for block, state in representative.items():
            for cls_index in range(self.n_symbol_classes):
                transitions[block, cls_index] = block_of[
                    int(self.transitions[state, cls_index])
                ]
            emissions[block] = dict(self.emissions[state])
        return DFA(
            transitions, emissions, block_of[self.start], self.symbol_class
        )
