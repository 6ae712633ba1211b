"""Exception types shared across the toolkit.

Everything derives from ToolkitError so callers (in particular the CLI,
which maps domain errors to exit code 2) can catch one base class.
"""

from __future__ import annotations


class ToolkitError(ValueError):
    """Base class for all domain errors raised by this package."""


class ParseError(ToolkitError):
    """Malformed braid-word or espalier text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class StrandMismatch(ToolkitError):
    """Two words on different strand counts were combined."""


class InvalidEspalier(ToolkitError):
    """Edge set is not a non-crossing spanning tree."""


class NotBKLPositive(ToolkitError):
    """An operation that needs a positive band word got a negative letter."""


class MultiComponentClosure(ToolkitError):
    """A knot-only invariant was asked of a link closure.

    Carries the exact determinant det(rho - Id) of the reduced Burau matrix,
    power of t included, so callers that genuinely want link data can still
    get at it.
    """

    def __init__(self, message: str, determinant=None, components: int | None = None):
        super().__init__(message)
        self.determinant = determinant
        self.components = components


class CableHypothesisError(ToolkitError):
    """Cabling was requested outside the q >= n / coprime / staircase hypotheses."""


class HomogenizeError(ToolkitError):
    """Some edge has exponent sum <= -2; the letter-flip rewrite does not apply."""


class ExactDivisionError(ArithmeticError):
    """Polynomial division that must be exact left a remainder (arithmetic bug)."""
