"""Exception taxonomy shared across the package."""


class StructureError(ValueError):
    """Shapes, block layouts or algebra references do not match."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A declared structural property of the inputs does not hold."""


class InconsistencyError(ValueError):
    """Stored redundant data (hermitian flags, a certificate and its witness) disagree."""


class ConditioningError(RuntimeError):
    """A construction was aborted because a numerical rank decision is ambiguous."""
