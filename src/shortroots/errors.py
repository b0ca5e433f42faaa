"""Shared exception types."""

__all__ = ["NotFiniteType", "UnsupportedRootSystem", "SizeLimitExceeded", "IdentityViolation"]


class NotFiniteType(ValueError):
    """A Cartan matrix that is not of finite type (or not a Cartan matrix)."""


class UnsupportedRootSystem(ValueError):
    """An operation that needs two root lengths was given a simply-laced
    system, or a formula was asked for outside its domain of validity."""


class SizeLimitExceeded(RuntimeError):
    """An exhaustive computation refused to run past its configured bound.

    This is a refusal, never a silent truncation."""


class IdentityViolation(AssertionError):
    """An internal self-check found two routes to the same identity in
    disagreement.

    ``verify`` reports it as a failed check; it subclasses AssertionError
    so that callers expecting the old exception type still catch it."""
