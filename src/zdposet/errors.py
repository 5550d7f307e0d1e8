"""Exception hierarchy shared by all modules.

Every error raised by the library derives from ZdPosetError, so callers
(and the CLI) can distinguish bad input from genuine bugs.
"""


class ZdPosetError(Exception):
    """Base class for all library errors."""


# --- poset parsing / construction -----------------------------------------

class PosetSyntaxError(ZdPosetError):
    """Malformed poset file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class DuplicateElementError(PosetSyntaxError):
    pass


class UnknownNameError(PosetSyntaxError):
    pass


class AntisymmetryViolationError(ZdPosetError):
    """The declared relation has a cycle among distinct elements."""


class NoBottomError(ZdPosetError):
    pass


class NoTopError(ZdPosetError):
    pass


class UnknownCatalogNameError(ZdPosetError):
    pass


class BadParamError(ZdPosetError):
    pass


class TooFewFactorsError(ZdPosetError):
    pass


class UnboundedFactorError(ZdPosetError):
    pass


# --- graphs ----------------------------------------------------------------

class UnknownVertexError(ZdPosetError):
    pass


class NotBooleanError(ZdPosetError):
    pass


class EmptyGraphError(ZdPosetError):
    pass


# --- complexes / homology ---------------------------------------------------

class SizeLimitExceededError(ZdPosetError):
    pass


class EmptyComplexError(ZdPosetError):
    pass


class NoVariablesError(ZdPosetError):
    """Edge-ideal export of a graph with no vertices."""


# --- certificate machinery ---------------------------------------------------

class PairsDontPartitionError(ZdPosetError):
    pass


class FewerThanTwoAtomsError(ZdPosetError):
    pass


# --- products ----------------------------------------------------------------

class FactorHasZeroDivisorsError(ZdPosetError):
    pass


class NotAscendingError(ZdPosetError):
    pass


class IndexOutOfRangeError(ZdPosetError):
    pass


class IndicesNotOrderedError(ZdPosetError):
    """Triple indices must be distinct and strictly increasing."""


class NeedEqualSizesForTripleError(ZdPosetError):
    pass


# --- cross-module consistency trap -------------------------------------------

class TheoremContractError(ZdPosetError):
    """Two verdicts that must agree by theorem disagreed: a library bug."""
