"""k-striding: transform an automaton to consume k symbols per cycle.

Section IX-B of the paper uses 8-striding to turn bit-level automata (over
symbols {0, 1}) into byte-level automata executable by ordinary engines:
each strided transition consumes 8 bits (one byte, most-significant bit
first, matching how file formats document bit-fields).

The construction walks every length-k symbol block from every state (and
from pseudo start states) through the original automaton, producing an
edge-labelled NFA over the original states plus per-report-code accept
sinks; :meth:`~repro.core.nfa.NFA.to_homogeneous` then yields a byte-level
homogeneous automaton.

Report semantics: if a bit-level report fires anywhere inside a consumed
block, the strided automaton reports at that block's offset with the same
report code.  For byte-aligned patterns (the file-carving use-case) this is
exact; for unaligned patterns it coarsens the offset to block granularity.
"""

from __future__ import annotations

from repro.analysis.preconditions import check_stride, require
from repro.core.automaton import Automaton
from repro.core.charset import CharSet
from repro.core.nfa import NFA
from repro.engines.lowered import Lowered, SubsetMasks, iter_bits

__all__ = ["stride", "pack_bits"]


def pack_bits(bits: bytes, *, k: int = 8) -> bytes:
    """Pack a stream of 0/1 symbols into k-bit block symbols (MSB first).

    The inverse view of what a k-strided automaton consumes.  Trailing bits
    that do not fill a block are dropped (a strided automaton cannot
    consume a partial block).
    """
    if any(b > 1 for b in bits):
        raise ValueError("input symbols must be 0 or 1")
    out = bytearray()
    for base in range(0, len(bits) - k + 1, k):
        value = 0
        for bit in bits[base : base + k]:
            value = (value << 1) | bit
        out.append(value)
    return bytes(out)


def stride(automaton: Automaton, k: int = 8) -> Automaton:
    """Return the k-strided equivalent of a (typically bit-level) automaton.

    The input alphabet is inferred from the automaton's charsets; each
    strided symbol packs k input symbols (MSB first), so
    ``bits_per_symbol * k`` must be at most 8.  Counters are unsupported.
    """
    if k < 1:
        raise ValueError("stride factor must be >= 1")
    # Raises TransformPreconditionError (AZ401 counters, AZ402 alphabet
    # width) instead of producing a silently-wrong automaton.
    require(check_stride(automaton, k), "stride")

    lowered = Lowered(automaton)
    stes = lowered.stes
    if not stes:
        return Automaton(f"{automaton.name}.x{k}")

    max_symbol = max(max(ste.charset, default=0) for ste in stes)
    bits_per_symbol = max(1, max_symbol.bit_length())
    n_input_symbols = 1 << bits_per_symbol

    # Bitmask-based stepping machinery over original states.
    masks = SubsetMasks(lowered)
    symbol_masks = masks.symbol_masks[:n_input_symbols]
    succ_mask = masks.succ_masks
    report_mask = masks.report_mask
    code_of = {i: stes[i].report_code for i in iter_bits(report_mask)}
    all_input_mask = masks.all_input
    anchored_mask = masks.initial & ~all_input_mask

    def walk(initial: int, inject_all_input: bool):
        """All k-symbol walks from the ``initial`` enabled-set mask.

        Yields ``(block_value, end_mask, report_codes)`` per surviving
        block, exploring the symbol tree depth-first so shared prefixes are
        stepped once.
        """
        results: list[tuple[int, int, frozenset]] = []

        def recurse(depth: int, value: int, enabled: int, codes: frozenset):
            if depth == k:
                if enabled or codes:
                    results.append((value, enabled, codes))
                return
            for symbol in range(n_input_symbols):
                matched = enabled & symbol_masks[symbol]
                reporters = matched & report_mask
                nxt = 0
                for i in iter_bits(matched):
                    nxt |= succ_mask[i]
                if inject_all_input:
                    nxt |= all_input_mask
                new_codes = codes
                if reporters:
                    new_codes = codes | {code_of[i] for i in iter_bits(reporters)}
                if nxt or new_codes:
                    recurse(
                        depth + 1, (value << bits_per_symbol) | symbol, nxt, new_codes
                    )

        recurse(0, 0, initial, frozenset())
        return results

    # Build the strided NFA: original states + pseudo-starts + accept sinks.
    nfa = NFA(f"{automaton.name}.x{k}")
    START_ALL = ("#start-all",)
    START_ANCHOR = ("#start-anchor",)
    acc_states: dict[str, object] = {}

    def acc_state(code: object):
        key = repr(code)
        if key not in acc_states:
            state = ("#acc", key)
            nfa.add_state(state, accept=True, report_code=code)
            acc_states[key] = state
        return acc_states[key]

    for i in range(lowered.n):
        nfa.add_state(i)

    def emit(src: object, initial: int, inject: bool) -> None:
        by_target: dict[object, int] = {}
        for value, end_mask, codes in walk(initial, inject):
            for i in iter_bits(end_mask):
                by_target[i] = by_target.get(i, 0) | (1 << value)
            for code in codes:
                target = acc_state(code)
                by_target[target] = by_target.get(target, 0) | (1 << value)
        for target, mask in by_target.items():
            nfa.add_transition(src, CharSet.from_mask(mask), target)

    if all_input_mask:
        # Active before every block: covers matches starting at any bit of
        # the block (mid-block start-state injection included).
        nfa.add_state(START_ALL, start_all=True)
        emit(START_ALL, all_input_mask, inject=True)
    if anchored_mask:
        # Active before block 0 only: matches anchored to stream start.
        nfa.add_state(START_ANCHOR, start=True)
        emit(START_ANCHOR, anchored_mask, inject=False)
    for i in range(lowered.n):
        # A token at state i means "i was enabled at the block boundary";
        # mid-block injections are covered by START_ALL every block.
        emit(i, 1 << i, inject=False)

    return nfa.to_homogeneous(f"{automaton.name}.x{k}")
