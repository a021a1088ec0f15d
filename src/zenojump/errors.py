"""Exception hierarchy.

``ValidationError`` marks ill-formed inputs (wrong shape, broken invariant).
``NumericalError`` and its children mark computations that started from valid
inputs but failed to reach the requested accuracy or hit a structural change
mid-run.  The CLI maps the two families onto distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "ZenoJumpError",
    "ValidationError",
    "NumericalError",
    "LevelCrossingError",
    "FrameResidualError",
    "QuadratureError",
    "ConfigError",
]


class ZenoJumpError(Exception):
    """Base class for package errors."""


class ValidationError(ZenoJumpError, ValueError):
    """Input fails a structural invariant or precondition."""


class NumericalError(ZenoJumpError, RuntimeError):
    """A computation failed to converge or lost validity mid-run."""

    def __init__(self, message: str, last_result=None):
        super().__init__(message)
        self.last_result = last_result


class LevelCrossingError(NumericalError):
    """Tracked eigenvalue levels touched or changed structure along the grid."""


class FrameResidualError(NumericalError):
    """Integrated frame stopped transporting the spectral projectors."""


class QuadratureError(NumericalError):
    """Jump quadrature refused to run or did not converge."""


class ConfigError(ZenoJumpError, ValueError):
    """Scenario configuration is malformed or inconsistent."""
