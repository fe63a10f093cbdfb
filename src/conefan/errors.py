"""Exception taxonomy.

Domain failures (a query outside the cone, a falsified identity) are kept
apart from usage/budget errors because the CLI maps them to different exit
codes: 1 for domain failures, 2 for bad input or exhausted budgets, and 3
for an InternalError, a failed internal consistency check that says the
program is wrong rather than anything about the input.
"""

from __future__ import annotations


class ConefanError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ConefanError):
    """Malformed or inconsistent input data."""


class NotInConeError(ConefanError):
    """The target vector admits no nonnegative representation."""


class EmptyPolyhedronError(ConefanError):
    """An operation requiring a nonempty polyhedron received an empty one."""


class NotPointedError(ConefanError):
    """A cone required to be strongly convex contains a line."""

    def __init__(self, line, message=None):
        self.line = tuple(line)
        super().__init__(message or f"cone contains the line through {self.line}")


class NotPointedSupportError(ConefanError):
    """Normal cones are not strongly convex, so no pointed fan exists."""


class CapExceededError(ConefanError):
    """A configured dimension or size cap was exceeded."""


class BudgetExceededError(ConefanError):
    """An enumeration or iteration budget ran out before completion."""


class StabilizationError(ConefanError):
    """No stabilizing exponent below the cap exists for some fan ray, or
    none can exist (message says why)."""

    def __init__(self, ray, cap, message=None):
        self.ray = tuple(ray)
        self.cap = cap
        super().__init__(
            message or f"no stabilizing exponent <= {cap} found for ray {self.ray}"
        )


class InternalError(ConefanError, AssertionError):
    """An internal consistency check failed: a bug, not a verdict.

    It is raised explicitly, so it survives python -O, and it is an
    AssertionError so that callers expecting a failed check still see one.
    """
