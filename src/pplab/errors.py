"""Exception hierarchy shared by every pplab module.

Exit-code mapping lives in the CLI: InvalidInputError is a usage problem
(exit 1); the remaining subclasses are numerical failures (exit 2).
"""
from __future__ import annotations

__all__ = [
    "PPLabError",
    "InvalidInputError",
    "PostSelectionImpossibleError",
    "FactorizationUndefinedError",
    "ResourceLimitError",
    "ConvergenceError",
]


class PPLabError(Exception):
    """Base class for all pplab errors."""


class InvalidInputError(PPLabError):
    """Malformed or out-of-domain input (bad shapes, bad vectors, bad flags)."""


class PostSelectionImpossibleError(PPLabError):
    """Pre/post-selection pair with vanishing overlap; no conditioning exists."""


class FactorizationUndefinedError(PPLabError):
    """Leading Born factor vanishes, so the weak factor is undefined."""


class ResourceLimitError(PPLabError):
    """Requested size or count exceeds its configured cap."""


class ConvergenceError(PPLabError):
    """A computed result failed its own consistency check, such as a report's self-check."""
