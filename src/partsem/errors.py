"""Error types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates an operation's contract (bad sizes, non-member, ...)."""


class PreconditionError(ValueError):
    """A stated precondition does not hold (missing identity, non-witness, ...)."""


class ResourceLimitError(RuntimeError):
    """A configurable search or enumeration cap was exceeded."""


class ParseError(ValueError):
    """An input file could not be parsed."""


class ValidationError(ValueError):
    """A parsed input fails semantic validation (e.g. a non-closed element set)."""


class InternalError(RuntimeError):
    """An internal invariant failed: a fault in partsem, not in its input.

    Raised explicitly rather than by ``assert``, so the check also runs under
    ``python -O``.
    """
