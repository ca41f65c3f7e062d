"""The homogeneous automaton container.

An :class:`Automaton` is a directed graph whose nodes are processing
elements (:class:`~repro.core.elements.STE` or
:class:`~repro.core.elements.CounterElement`) and whose edges are activation
wires.  This is the in-memory equivalent of an ANML/MNRL file: every
AutomataZoo benchmark is ultimately one (usually highly disconnected)
``Automaton``.

The class is deliberately a plain adjacency structure — analysis passes,
optimizations and engines all build their own derived representations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import networkx as nx

from repro.core.charset import CharSet
from repro.core.elements import CounterElement, Element, STE, StartMode
from repro.errors import AutomatonError

__all__ = ["Automaton"]


class Automaton:
    """A homogeneous automaton (graph of STEs and counters).

    >>> a = Automaton("demo")
    >>> s0 = a.add_ste("s0", CharSet.from_chars("a"), start=StartMode.ALL_INPUT)
    >>> s1 = a.add_ste("s1", CharSet.from_chars("b"), report=True)
    >>> a.add_edge("s0", "s1")
    >>> a.n_states, a.n_edges
    (2, 1)
    """

    def __init__(self, name: str = "automaton") -> None:
        self.name = name
        self._elements: dict[str, Element] = {}
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        #: counter ident -> elements wired to its reset port (Section XI)
        self._resets: dict[str, list[str]] = {}
        #: Activation-edge count, kept in step with ``_succ``.
        self._n_edges = 0
        #: Structural mutation counter; see :attr:`generation`.
        self._generation = 0

    # -- construction ------------------------------------------------------

    def add_element(self, element: Element) -> Element:
        """Add a prebuilt element; its ident must be unique."""
        if element.ident in self._elements:
            raise AutomatonError(f"duplicate element id: {element.ident!r}")
        self._elements[element.ident] = element
        self._succ[element.ident] = []
        self._pred[element.ident] = []
        self._generation += 1
        return element

    def add_ste(
        self,
        ident: str,
        charset: CharSet,
        *,
        start: StartMode = StartMode.NONE,
        report: bool = False,
        report_code: object = None,
    ) -> STE:
        """Create and add an STE, returning it."""
        ste = STE(ident, charset, start=start, report=report, report_code=report_code)
        self.add_element(ste)
        return ste

    def add_counter(
        self,
        ident: str,
        target: int,
        *,
        mode=None,
        report: bool = False,
        report_code: object = None,
    ) -> CounterElement:
        """Create and add a counter element, returning it."""
        kwargs = {"report": report, "report_code": report_code}
        if mode is not None:
            kwargs["mode"] = mode
        counter = CounterElement(ident, target, **kwargs)
        self.add_element(counter)
        return counter

    def add_edge(self, src: str, dst: str) -> None:
        """Add an activation edge; duplicate edges are ignored."""
        if src not in self._elements:
            raise AutomatonError(f"edge source not in automaton: {src!r}")
        if dst not in self._elements:
            raise AutomatonError(f"edge target not in automaton: {dst!r}")
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._pred[dst].append(src)
            self._n_edges += 1
            self._generation += 1

    def add_reset_edge(self, src: str, counter: str) -> None:
        """Wire ``src``'s match to a counter's *reset* port.

        Reset ports are the extended-automata feature of Section XI: when
        any reset predecessor matches in a cycle, the counter's count (and
        latch/stop state) clears before that cycle's count events apply.
        """
        if src not in self._elements:
            raise AutomatonError(f"reset source not in automaton: {src!r}")
        element = self._elements.get(counter)
        if not isinstance(element, CounterElement):
            raise AutomatonError(f"reset target must be a counter: {counter!r}")
        sources = self._resets.setdefault(counter, [])
        if src not in sources:
            sources.append(src)
            self._generation += 1

    def reset_predecessors(self, counter: str) -> list[str]:
        """Elements wired to ``counter``'s reset port."""
        return list(self._resets.get(counter, []))

    def reset_edges(self) -> Iterator[tuple[str, str]]:
        """All (source, counter) reset wires."""
        for counter, sources in self._resets.items():
            for src in sources:
                yield (src, counter)

    def remove_element(self, ident: str) -> None:
        """Remove an element and all incident edges."""
        if ident not in self._elements:
            raise AutomatonError(f"no such element: {ident!r}")
        succ = self._succ.pop(ident)
        for dst in succ:
            self._pred[dst].remove(ident)
        # A self-loop was just dropped from ``_pred[ident]`` above, so the
        # popped predecessor list holds only the other incoming edges.
        pred = self._pred.pop(ident)
        for src in pred:
            self._succ[src].remove(ident)
        self._n_edges -= len(succ) + len(pred)
        self._resets.pop(ident, None)
        for sources in self._resets.values():
            if ident in sources:
                sources.remove(ident)
        del self._elements[ident]
        self._generation += 1

    # -- access ------------------------------------------------------------

    def __contains__(self, ident: str) -> bool:
        return ident in self._elements

    def __getitem__(self, ident: str) -> Element:
        try:
            return self._elements[ident]
        except KeyError:
            raise AutomatonError(f"no such element: {ident!r}") from None

    def elements(self) -> Iterator[Element]:
        """All elements, in insertion order."""
        return iter(self._elements.values())

    def stes(self) -> Iterator[STE]:
        """All STE elements."""
        return (e for e in self._elements.values() if isinstance(e, STE))

    def counters(self) -> Iterator[CounterElement]:
        """All counter elements."""
        return (e for e in self._elements.values() if isinstance(e, CounterElement))

    def idents(self) -> Iterator[str]:
        return iter(self._elements.keys())

    def successors(self, ident: str) -> list[str]:
        return list(self._succ[ident])

    def predecessors(self, ident: str) -> list[str]:
        return list(self._pred[ident])

    def out_degree(self, ident: str) -> int:
        return len(self._succ[ident])

    def in_degree(self, ident: str) -> int:
        return len(self._pred[ident])

    def edges(self) -> Iterator[tuple[str, str]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    @property
    def n_states(self) -> int:
        """Total number of elements (STEs plus counters)."""
        return len(self._elements)

    @property
    def n_edges(self) -> int:
        """Number of activation edges (reset wires not included); O(1)."""
        return self._n_edges

    @property
    def generation(self) -> int:
        """Structural mutation counter.

        Increases on every :meth:`add_element`, every *new*
        :meth:`add_edge` / :meth:`add_reset_edge` wire and every
        :meth:`remove_element`; a value seen earlier on the same object
        means the graph has not changed since.  Mutating an element object
        in place (e.g. reassigning an STE's ``charset``) is not tracked.
        """
        return self._generation

    def start_elements(self) -> list[STE]:
        """All STEs with a start mode."""
        return [e for e in self.stes() if e.is_start()]

    def reporting_elements(self) -> list[Element]:
        """All elements (STEs or counters) that report."""
        return [e for e in self._elements.values() if e.report]

    # -- structure ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`AutomatonError` if broken.

        Invariants: at least one start element per connected component that
        contains any element, counters have at least one predecessor (they
        can never fire otherwise), and reporting is reachable from a start
        element (dead report states usually indicate a generator bug).
        """
        if not self._elements:
            return
        reachable = self._reachable_from_starts()
        for element in self._elements.values():
            if isinstance(element, CounterElement) and not self._pred[element.ident]:
                raise AutomatonError(
                    f"counter {element.ident!r} has no predecessors and can never fire"
                )
            if element.report and element.ident not in reachable:
                raise AutomatonError(
                    f"reporting element {element.ident!r} unreachable from any start"
                )

    def _reachable_from_starts(self) -> set[str]:
        stack = [e.ident for e in self.start_elements()]
        seen = set(stack)
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def connected_components(self) -> list[set[str]]:
        """Weakly connected components ("subgraphs" in Table I)."""
        seen: set[str] = set()
        components: list[set[str]] = []
        for start in self._elements:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in self._succ[node]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
                for prv in self._pred[node]:
                    if prv not in comp:
                        comp.add(prv)
                        stack.append(prv)
            seen |= comp
            components.append(comp)
        return components

    def to_networkx(self) -> nx.DiGraph:
        """Export the graph structure (elements as node attributes)."""
        graph = nx.DiGraph(name=self.name)
        for ident, element in self._elements.items():
            graph.add_node(ident, element=element)
        graph.add_edges_from(self.edges())
        return graph

    # -- composition -------------------------------------------------------

    def merge(self, other: "Automaton", prefix: str = "") -> None:
        """Add all elements/edges of ``other`` into this automaton.

        ``prefix`` is prepended to every incoming ident, which is how suite
        generators combine thousands of per-pattern automata without id
        clashes.
        """
        mapping = {}
        for element in other.elements():
            clone = _clone_element(element, prefix + element.ident)
            self.add_element(clone)
            mapping[element.ident] = clone.ident
        for src, dst in other.edges():
            self.add_edge(mapping[src], mapping[dst])
        for src, counter in other.reset_edges():
            self.add_reset_edge(mapping[src], mapping[counter])

    def clone(self, name: str | None = None) -> "Automaton":
        """A deep copy (elements are re-created, attrs shallow-copied)."""
        out = Automaton(name if name is not None else self.name)
        out.merge(self)
        return out

    @classmethod
    def union(cls, automata: Iterable["Automaton"], name: str = "union") -> "Automaton":
        """Disjoint union of many automata, prefixing ids per component."""
        out = cls(name)
        for index, automaton in enumerate(automata):
            out.merge(automaton, prefix=f"g{index}.")
        return out

    def __repr__(self) -> str:
        return f"Automaton({self.name!r}, states={self.n_states}, edges={self.n_edges})"


def _clone_element(element: Element, new_ident: str) -> Element:
    if isinstance(element, STE):
        clone = STE(
            new_ident,
            element.charset,
            start=element.start,
            report=element.report,
            report_code=element.report_code,
        )
    elif isinstance(element, CounterElement):
        clone = CounterElement(
            new_ident,
            element.target,
            mode=element.mode,
            report=element.report,
            report_code=element.report_code,
        )
    else:  # pragma: no cover - defensive
        raise AutomatonError(f"unknown element type: {type(element)!r}")
    clone.attrs = dict(element.attrs)
    return clone
