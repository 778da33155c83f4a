"""Exception types shared across the package.

Checks that merely *measure* something never raise; failed measurements are
report entries.  Exceptions are reserved for contract violations (bad input,
unreachable vertices, blown budgets).
"""


class HHSKitError(Exception):
    """Base class for all package errors."""


class Disconnected(HHSKitError):
    """An operation required a path that does not exist."""


class UnknownGenerator(HHSKitError):
    """A word uses a generator the group model does not declare."""


class BudgetExceeded(HHSKitError):
    """A size or iteration cap was hit.  Carries partial data when useful."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class Inconclusive(HHSKitError):
    """A radius-limited decision procedure ran out of budget."""


class TruncatedPiece(HHSKitError):
    """A de-electrification piece left the built ball."""


class FactorSystemViolated(HHSKitError):
    """A structure build was asked to proceed from a failing report."""


class EmbeddingViolated(HHSKitError):
    """An augmentation was asked to proceed from a failing embedding verdict."""


class StructureMismatch(HHSKitError):
    """An instance lacks the metadata a check requires (e.g. Cayley tag)."""


class MissingStructure(HHSKitError):
    """A graph-of-groups operation needs an attached instance that is absent."""


class MalformedMove(HHSKitError):
    """A star/edge move record is not well formed."""


class ConfigError(HHSKitError):
    """A scenario config failed to parse or validate.

    ``field`` points at the offending key path when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
