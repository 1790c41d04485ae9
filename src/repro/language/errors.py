"""Error hierarchy for the PetaBricks frontend, compiler and engine.

Every error keeps its bare ``message`` accessible separately from the
formatted string (``str(err)`` prepends ``line L:C:`` when a position is
known), so the static analyzer in :mod:`repro.analysis` can re-wrap a
``CompileError`` as a structured :class:`~repro.analysis.Diagnostic`
without re-parsing the text.  Errors raised by passes that know their
diagnostic code carry it in ``code`` (e.g. ``PB204`` for a dependency
deadlock) along with an optional one-line fix ``hint``.
"""

from __future__ import annotations

from typing import Optional


class PetaBricksError(Exception):
    """Base class for all language/compiler diagnostics."""

    def __init__(
        self,
        message: str,
        line: int = 0,
        column: int = 0,
        code: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> None:
        self.message = message
        self.line = line
        self.column = column
        self.code = code
        self.hint = hint
        formatted = message
        if line:
            formatted = f"line {line}:{column}: {formatted}"
        super().__init__(formatted)


class LexError(PetaBricksError):
    """Invalid character or token in the source text."""


class ParseError(PetaBricksError):
    """Source text does not match the grammar."""


class CompileError(PetaBricksError):
    """Semantic error detected by a compiler pass (unknown matrix,
    uncoverable region, dependency deadlock, ...)."""


class ExecutionError(PetaBricksError):
    """Raised for failures while running generated code (bad input
    shapes, unsatisfied size guards, runaway recursion...)."""
