"""Exception types shared across the package.

The split mirrors the CLI exit codes: schema problems (exit 1),
mathematical precondition failures (exit 2), and violations of
properties the theory guarantees (exit 3, these signal bugs or
invalid input data rather than user errors).
"""


class SchemaError(ValueError):
    """A scenario document failed strict parsing or validation."""


class SpaceMismatchError(ValueError):
    """Operands live in different spaces (dimension or primal/dual mismatch)."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


class NotUnimodularError(PreconditionError):
    """A polynomial matrix's determinant is not a nonzero constant, so its inverse is not polynomial."""


class RegularityError(PreconditionError):
    """A submanifold description is not regular at the queried point."""


class PropertyViolationError(RuntimeError):
    """A property that should hold by theory failed an exact check."""
