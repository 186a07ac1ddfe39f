"""Shared exception types.

Two failure classes matter to callers: bad input (a caller can fix it)
and a violated internal invariant (a convention bug in this package).
The CLI maps them to exit codes 1 and 2 respectively.
"""


class DomainError(ValueError):
    """Input outside an operation's domain."""


class NotALensSpaceError(DomainError):
    """(p, q) with gcd(p, q) != 1 describes no lens space."""


class HypothesisNotMetError(DomainError):
    """A certification routine's hypothesis fails; this is not a disproof."""


class InvariantError(AssertionError):
    """An internal consistency check failed; signals a convention bug."""
