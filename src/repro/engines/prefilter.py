"""Literal-prefiltered scanning (the Hyperscan decomposition strategy).

Hyperscan's core trick — and the reason it anchors the paper's CPU
comparisons — is pattern decomposition: extract literal factors that every
match must contain, scan for those with a fast multi-literal matcher, and
run the full automaton only around factor hits.  This module implements
that strategy on our substrate:

* :func:`required_factors` analyses a regex AST and returns a set of
  literal strings such that every match contains at least one of them
  (``None`` when no useful factor exists);
* :class:`PrefilterScanner` compiles a ruleset, builds one Aho–Corasick
  matcher over all factors, and confirms candidate rules with their NFA —
  over a bounded window when the rule's match length is finite, else over
  the full stream.

The scanner is report-equivalent to running every rule automaton over the
whole input (property-tested), but rules whose factors never occur cost
nothing beyond the shared literal scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import telemetry
from repro.baselines.aho_corasick import AhoCorasick
from repro.core.automaton import Automaton
from repro.engines.base import ReportBatch, RunResult
from repro.errors import EngineError
from repro.engines.vector import VectorEngine
from repro.regex.ast_nodes import Alt, Concat, Empty, Literal, Node, Repeat
from repro.regex.compile import compile_parsed
from repro.regex.parser import parse_regex

__all__ = ["required_factors", "max_match_length", "PrefilterScanner"]

_MIN_FACTOR = 2  # factors shorter than this gate poorly; treat as absent


def _single_char(node: Node) -> int | None:
    if isinstance(node, Literal) and node.charset.cardinality() == 1:
        return next(iter(node.charset))
    return None


def required_factors(node: Node) -> frozenset[bytes] | None:
    """Literal factors such that every match contains at least one.

    Returns ``None`` when no factor of length >= 2 is guaranteed.
    """
    if isinstance(node, (Empty,)):
        return None
    if isinstance(node, Literal):
        return None  # a single char is below the useful factor length
    if isinstance(node, Repeat):
        if node.min >= 1:
            return required_factors(node.child)
        return None  # optional: nothing guaranteed
    if isinstance(node, Alt):
        option_factors = []
        for option in node.options:
            factors = required_factors(option)
            if factors is None:
                return None  # one branch has no factor: no guarantee
            option_factors.append(factors)
        merged = frozenset().union(*option_factors)
        return merged if merged else None
    if isinstance(node, Concat):
        # literal runs of adjacent single-char parts
        best: frozenset[bytes] | None = None

        def consider(candidate: frozenset[bytes] | None):
            nonlocal best
            if candidate is None:
                return
            # prefer the candidate whose *shortest* factor is longest
            if best is None or min(map(len, candidate)) > min(map(len, best)):
                best = candidate

        run = bytearray()
        for part in node.parts:
            ch = _single_char(part)
            if ch is not None:
                run.append(ch)
                continue
            if len(run) >= _MIN_FACTOR:
                consider(frozenset([bytes(run)]))
            run = bytearray()
            consider(required_factors(part))
        if len(run) >= _MIN_FACTOR:
            consider(frozenset([bytes(run)]))
        return best
    return None


def max_match_length(automaton: Automaton) -> int | None:
    """Longest input span a match can cover; ``None`` if unbounded.

    Computed as the longest start-to-report path; a cycle on any such path
    makes the match length unbounded.  An automaton with no start states
    returns 0 (nothing is ever enabled, so no span is coverable).
    """
    order: list[str] = []
    state: dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(ident: str) -> bool:
        """Post-order DFS; returns False when a cycle is reachable."""
        stack = [(ident, iter(automaton.successors(ident)))]
        state[ident] = 0
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                mark = state.get(nxt)
                if mark == 0:
                    return False  # back edge: cycle
                if mark is None:
                    state[nxt] = 0
                    stack.append((nxt, iter(automaton.successors(nxt))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                order.append(node)
                stack.pop()
        return True

    for start in automaton.start_elements():
        if start.ident not in state:
            if not visit(start.ident):
                return None

    depth: dict[str, int] = {}
    for ident in order:  # reverse topological emitted by post-order
        depth[ident] = 1 + max(
            (depth[s] for s in automaton.successors(ident) if s in depth),
            default=0,
        )
    lengths = [depth[s.ident] for s in automaton.start_elements() if s.ident in depth]
    return max(lengths) if lengths else 0


@dataclass
class _CompiledRule:
    code: object
    automaton: Automaton
    engine: VectorEngine
    factors: frozenset[bytes] | None
    window: int | None  # max match length; None = unbounded
    anchored: bool = False


class PrefilterScanner:
    """Multi-rule scanner with literal prefiltering."""

    def __init__(self, rules: list[tuple[object, str]]) -> None:
        """``rules`` are (report_code, regex) pairs."""
        self.rules: list[_CompiledRule] = []
        factor_owner: list[tuple[bytes, int]] = []
        for code, pattern in rules:
            parsed = parse_regex(pattern)
            automaton = compile_parsed(parsed, report_code=code)
            # A degenerate rule automaton (nothing enabled, or nothing to
            # report) silently contributes zero matches forever; fail the
            # compile with a typed error instead.
            if not automaton.start_elements():
                raise EngineError(
                    f"prefilter rule {code!r} ({pattern!r}): automaton has no "
                    "start states, so it can never be enabled"
                )
            if not automaton.reporting_elements():
                raise EngineError(
                    f"prefilter rule {code!r} ({pattern!r}): automaton has no "
                    "reporting states, so it can never match"
                )
            factors = required_factors(parsed.ast)
            compiled = _CompiledRule(
                code=code,
                automaton=automaton,
                engine=VectorEngine(automaton),
                factors=factors,
                window=max_match_length(automaton),
                anchored=parsed.anchored,
            )
            rule_index = len(self.rules)
            self.rules.append(compiled)
            if factors is not None:
                for factor in factors:
                    factor_owner.append((factor, rule_index))
        self._factors = [f for f, _ in factor_owner]
        self._factor_rules = [r for _, r in factor_owner]
        self._matcher = AhoCorasick(self._factors) if self._factors else None
        self._unfactored = [
            i for i, rule in enumerate(self.rules) if rule.factors is None
        ]

    @property
    def gated_rules(self) -> int:
        """Rules that are skipped entirely unless a factor occurs."""
        return len(self.rules) - len(self._unfactored)

    def scan(self, data: bytes) -> RunResult:
        """Run all rules; equivalent to full scans of every automaton."""
        scan_t0 = telemetry.clock()
        # Dedupe on (offset, ident, code): ReportEvent equality ignores the
        # code, but two rules sharing a pattern produce same-named states
        # with different codes and both reports must survive.
        rows: dict[tuple[int, str, str], tuple[int, str, object]] = {}

        def record(batch: ReportBatch) -> None:
            for offset, ident, code in batch.iter_rows():
                rows[offset, ident, repr(code)] = (offset, ident, code)
        # candidate windows per rule from factor hits
        n_factor_hits = 0
        rules_confirmed = 0
        rules_gated_off = 0
        confirm_bytes = 0
        hits: dict[int, list[int]] = {}
        if self._matcher is not None:
            for offset, factor_index in self._matcher.search(data):
                hits.setdefault(self._factor_rules[factor_index], []).append(offset)
                n_factor_hits += 1

        for rule_index, rule in enumerate(self.rules):
            if rule.factors is None:
                confirm_bytes += len(data)
                record(rule.engine.run(data).reports)
                continue
            offsets = hits.get(rule_index)
            if not offsets:
                rules_gated_off += 1
                continue  # factor absent: rule cannot match
            rules_confirmed += 1
            if rule.window is None:
                confirm_bytes += len(data)
                record(rule.engine.run(data).reports)
                continue
            window = rule.window
            if rule.anchored:
                # anchored matches live in the first `window` bytes; a
                # slice not starting at 0 would re-anchor incorrectly
                if min(offsets) <= window:
                    confirm_bytes += min(window, len(data))
                    record(rule.engine.run(data[:window]).reports)
                continue
            # merge overlapping candidate windows, then confirm
            spans: list[list[int]] = []
            for hit in sorted(offsets):
                start = max(0, hit - 2 * window)
                end = min(len(data), hit + window)
                if spans and start <= spans[-1][1]:
                    spans[-1][1] = max(spans[-1][1], end)
                else:
                    spans.append([start, end])
            for start, end in spans:
                confirm_bytes += end - start
                record(rule.engine.run(data[start:end]).reports.rebased(start))
        reports = ReportBatch.from_rows(rows.values())
        if scan_t0 is not None:
            # Only a timer: the rule engines' streams already count the
            # symbols they scan and the reports they emit under
            # ``engine.symbols.*`` / ``engine.reports.*``.
            telemetry.observe("prefilter.scan", time.perf_counter() - scan_t0)
            telemetry.incr("prefilter.factor_hits", n_factor_hits)
            telemetry.incr("prefilter.rules_confirmed", rules_confirmed)
            telemetry.incr("prefilter.rules_gated_off", rules_gated_off)
            telemetry.incr("prefilter.confirm_bytes", confirm_bytes)
        return RunResult(reports=reports, cycles=len(data))
