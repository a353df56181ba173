"""Exception types shared across the certification modules."""

from __future__ import annotations


class LyapcertError(Exception):
    """Base class for all library-specific failures."""


class DivergenceError(LyapcertError):
    """A simulated trajectory left the finite range.

    Carries the index of the first offending step so callers can report
    exactly where the state blew up or became non-finite.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class NotExponentiallyStableError(LyapcertError):
    """Trajectory data is incompatible with a decaying exponential envelope."""


class SteinSolvabilityError(LyapcertError):
    """The quadratic-form equation has no (unique) solution for this matrix."""


class SeriesDivergenceError(LyapcertError):
    """Series summation requested for a matrix whose powers do not decay."""


class CertificateNotFoundError(LyapcertError):
    """No certificate of the requested kind exists for the given data."""


class DecayNotDetectedError(LyapcertError):
    """Sampled transition norms show no contraction over the horizon."""


class BudgetInfeasibleError(LyapcertError):
    """No tabulated horizon satisfies the requested deviation budget."""


class HypothesisViolationError(LyapcertError):
    """Sampled data contradicts a precondition of the requested construction."""


class InapplicableError(LyapcertError):
    """The check does not apply to the supplied candidate (e.g. empty region)."""


class StageError(LyapcertError):
    """A multi-stage pipeline failed; records which stage broke.

    The original exception is kept as ``__cause__``.
    """

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


class ParseError(LyapcertError):
    """Expression text could not be parsed; carries 1-based position info."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConfigError(LyapcertError):
    """Configuration document failed validation; carries a JSON pointer."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at '{pointer or '/'}')")
        self.pointer = pointer
