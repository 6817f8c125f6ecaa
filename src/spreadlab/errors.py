"""Exception types shared across spreadlab modules.

Plain ``ZeroDivisionError`` is raised for field inversion of zero; everything
else gets a named class here so callers can tell usage errors, budget stops,
and mathematical violations apart.
"""


class SpreadLabError(Exception):
    """Base class for all spreadlab-specific errors."""


class NotPrimeError(SpreadLabError, ValueError):
    """Field characteristic is not a prime."""


class OverflowLimitError(SpreadLabError, ValueError):
    """Requested field order exceeds the cap ``gf.MAX_ORDER``."""


class FieldMismatchError(SpreadLabError, ValueError):
    """Operands belong to different fields."""


class AmbientMismatchError(SpreadLabError, ValueError):
    """Subspaces live in different ambient spaces (or fields)."""


class InvalidParamsError(SpreadLabError, ValueError):
    """Parameters violate a documented precondition."""


class OutOfRegimeError(SpreadLabError, ValueError):
    """Parameters fall outside a theorem's hypothesis regime."""


class HypothesisViolatedError(SpreadLabError, ValueError):
    """A named hypothesis of a lemma/theorem fails for these inputs."""


class BudgetExceededError(SpreadLabError, RuntimeError):
    """An enumeration or point budget would be exceeded."""


class UnverifiedSpreadError(SpreadLabError, ValueError):
    """Operation requires a spread that has passed verification."""


class IdentityViolationError(SpreadLabError, ArithmeticError):
    """An integer identity that must hold for valid input failed."""


class ConstructionSizeMismatchError(SpreadLabError, RuntimeError):
    """Built object does not have its predicted size (internal bug guard)."""
