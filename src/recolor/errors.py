"""Exceptions for a broken internal contract.

Each marks a bug in the program, never bad input, and the CLI reports all
three as exit 3.  They live apart from the engine and the families so the
CLI can map them without importing either.
"""


class FamilyContractError(RuntimeError):
    """A family broke its contract (wrong USBE size, out-of-range class, ...).

    These are bugs in family implementations, never user errors, so they are
    surfaced loudly instead of being folded into run status.
    """


class DecodeError(ValueError):
    """Record or final coloring inconsistent with the family."""


class MedialConnectivityError(RuntimeError):
    """Uncolored edges no longer induce a connected medial subgraph."""
