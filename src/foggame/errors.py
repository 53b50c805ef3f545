"""Exception types shared across the package.

Plain validation problems (bad vertex indices, malformed strategies) raise
ValueError; the classes here cover conditions the command line maps to
dedicated exit codes or that callers may want to catch individually.
"""

from __future__ import annotations


class FogGameError(Exception):
    """Base class for package-specific errors."""


class GuardExceeded(FogGameError):
    """An enumeration guard refused to run on an instance this large."""

    def __init__(self, guard: str, limit: int, actual: int):
        self.guard = guard
        self.limit = limit
        self.actual = actual
        super().__init__(f"{guard} guard exceeded: size {actual} > limit {limit}")


class GenerationError(FogGameError):
    """A random generator exhausted its retry budget."""


class PolicyError(FogGameError):
    """An operation was asked to run under a policy it does not support."""


class NoEquilibriumError(FogGameError):
    """Exhaustive enumeration found no pure equilibrium."""


class ScenarioError(FogGameError):
    """A scenario file failed strict schema validation."""


class FormatError(FogGameError):
    """The requested output format cannot represent this payload."""
