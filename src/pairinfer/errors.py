"""Exception types shared across the package."""


class PairinferError(Exception):
    """Base class for all errors raised by pairinfer."""


class DomainError(PairinferError, ValueError):
    """Inputs outside the valid domain (negative rates, bad counts, ...)."""


class ParseError(PairinferError):
    """A dataset file could not be parsed; the message names line/field."""


class ConfigError(PairinferError):
    """Invalid run configuration (unknown parameter axis, bad grid, ...)."""


class NoRootError(PairinferError):
    """Bracketed root solve found no sign change: data incompatible with model."""


class ExpansionUndefinedError(PairinferError):
    """The series estimator for phi is undefined; fall back to the root solve."""


class InfeasibleDataError(PairinferError):
    """Every optimizer start produced an impossible-data likelihood."""


class SingularStencilError(PairinferError):
    """Finite-difference stencil hit non-finite objective values after retries."""
