"""Exception hierarchy for the repro (AutomataZoo reproduction) library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AutomatonError(ReproError):
    """An automaton is structurally invalid (dangling edge, bad id, ...)."""


class TransformPreconditionError(AutomatonError):
    """A transform's structural preconditions do not hold.

    Subclasses :class:`AutomatonError` (callers catching the old ad-hoc
    errors keep working) and carries the analyzer diagnostics that
    explain *which* precondition failed, with stable ``AZ4xx`` codes.
    """

    def __init__(self, transform: str, diagnostics) -> None:
        self.transform = transform
        self.diagnostics = list(diagnostics)
        details = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"{transform} preconditions violated: {details}")


class LintError(ReproError):
    """A generated automaton failed static analysis (``repro.analysis``).

    Raised by the lint-gated benchmark registry when a generator emits an
    automaton with unsuppressed error-severity diagnostics.
    """

    def __init__(self, name: str, diagnostics) -> None:
        self.benchmark = name
        self.diagnostics = list(diagnostics)
        details = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"benchmark {name!r} failed lint: {details}")


class RegexError(ReproError):
    """A regular expression could not be parsed or compiled."""


class RegexUnsupportedError(RegexError):
    """The expression uses a feature outside the supported PCRE subset.

    Mirrors pcre2mnrl's behaviour of rejecting (rather than mis-compiling)
    constructs like back-references: AutomataZoo only admits patterns its
    open-source toolchain can compile.
    """


class PatternError(ReproError):
    """A domain pattern (YARA, PROSITE, ClamAV, Snort, ...) is malformed."""


class EngineError(ReproError):
    """An execution engine was misused or hit an unrecoverable state."""


class CapacityError(ReproError):
    """An automaton does not fit the resources of a spatial architecture."""


class InputError(ReproError):
    """An input file is truncated or malformed.

    Carries the file ``path`` and the byte ``offset`` of the first
    structural problem, so loader failures point at bytes instead of
    surfacing a bare ``struct.error``/``IndexError``.
    """

    def __init__(self, path, offset: int, message: str) -> None:
        self.path = str(path)
        self.offset = offset
        self.detail = message
        super().__init__(f"{self.path}: offset {offset}: {message}")

    def __reduce__(self):
        return (type(self), (self.path, self.offset, self.detail))


class ResilienceError(ReproError):
    """Base for resource-guard and supervised-execution failures.

    Everything the :mod:`repro.resilience` layer raises or isolates is a
    subclass, so the fallback ladder and the supervised pool can catch
    one type to mean "this attempt failed in a controlled, reported way".
    """


class ScanTimeout(ResilienceError):
    """A scan overran its wall-clock deadline.

    Raised by a :class:`~repro.resilience.guards.ScanGuard` at block
    granularity inside an engine's feed loop; carries which engine was
    running, how far it got, and the budget it blew.
    """

    def __init__(
        self, engine: str, offset: int, budget_s: float, segment: int | None = None
    ) -> None:
        self.engine = engine
        self.offset = offset
        self.budget_s = budget_s
        self.segment = segment
        where = f" (segment {segment})" if segment is not None else ""
        super().__init__(
            f"{engine} scan{where} exceeded {budget_s:.3f}s wall-clock "
            f"budget at offset {offset}"
        )

    def __reduce__(self):
        # Guard trips happen inside pool workers; default exception
        # pickling re-calls __init__ with .args (the message) only.
        return (type(self), (self.engine, self.offset, self.budget_s, self.segment))


class MemoryBudgetExceeded(ResilienceError):
    """A memoisation structure outgrew its byte budget.

    Raised by the lazy-DFA memo guard when the memo estimate exceeds
    ``memo_bytes``; the fallback ladder turns it into a rerun on the next
    engine down.
    """

    def __init__(
        self, engine: str, used_bytes: int, budget_bytes: int, offset: int | None = None
    ) -> None:
        self.engine = engine
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes
        self.offset = offset
        super().__init__(
            f"{engine} memo grew to ~{used_bytes:,} bytes, over the "
            f"{budget_bytes:,}-byte budget"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.engine, self.used_bytes, self.budget_bytes, self.offset),
        )


class WorkerCrash(ResilienceError):
    """A parallel-scan worker died (dead process or broken pool)."""

    def __init__(self, segment: int, attempt: int, detail: str = "worker died") -> None:
        self.segment = segment
        self.attempt = attempt
        self.detail = detail
        super().__init__(f"segment {segment} attempt {attempt}: {detail}")

    def __reduce__(self):
        return (type(self), (self.segment, self.attempt, self.detail))


class EngineFailure(ResilienceError):
    """One engine attempt failed; carries engine/segment/offset context.

    Also the terminal error of a fallback ladder whose every rung failed
    (``engine`` is then ``"ladder"`` and ``detail`` lists the per-rung
    failures).
    """

    def __init__(
        self,
        engine: str,
        detail: str,
        *,
        segment: int | None = None,
        offset: int | None = None,
    ) -> None:
        self.engine = engine
        self.detail = detail
        self.segment = segment
        self.offset = offset
        where = f" (segment {segment})" if segment is not None else ""
        super().__init__(f"{engine}{where}: {detail}")

    def __reduce__(self):
        return (
            _rebuild_engine_failure,
            (type(self), self.engine, self.detail, self.segment, self.offset),
        )


def _rebuild_engine_failure(cls, engine, detail, segment, offset):
    return cls(engine, detail, segment=segment, offset=offset)


class CheckpointMismatch(ResilienceError):
    """A sweep checkpoint was recorded under different parameters.

    Resuming with a mismatched (names, engines, scale, seed, ...) tuple
    would silently mix incompatible cells; refuse instead.
    """

    def __init__(self, path, detail: str) -> None:
        self.path = str(path)
        self.detail = detail
        super().__init__(f"{self.path}: {detail}")

    def __reduce__(self):
        return (type(self), (self.path, self.detail))
