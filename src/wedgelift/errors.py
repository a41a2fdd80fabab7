"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: UsageError -> 2,
ResourceGuardError (and subclasses) -> 3, verification failures -> 1.
"""


class UsageError(ValueError):
    """Caller passed arguments outside an operation's documented domain."""


class ResourceGuardError(RuntimeError):
    """A configurable resource guard (time or memory budget) was exceeded."""


class OracleBudgetError(ResourceGuardError):
    """The exhaustive oracle would exceed its budget; raise it or pass fewer monomials."""


class MemoryGuardError(ResourceGuardError):
    """A build, kernel rows, the repair check or a CLI export would exceed the memory guard."""


class InvariantError(AssertionError):
    """An internal invariant that must never fail did fail."""
