"""The four exception types, one for each way a caller reacts.

- ``ZdPosetError``: bad input or a broken hypothesis of the paper (an
  unbounded factor, Z(P_i) != {0}, n < 3 for the counting formulas, a
  non-Boolean poset for the certificate, ...); the CLI exits 2.
- ``PosetSyntaxError``: a malformed poset file, a duplicate element or an
  unknown element name or id, with its line when known; the CLI exits 2.
- ``SizeLimitExceededError``: a cap was hit; callers skip the step or
  answer ``Inconclusive``.
- ``TheoremContractError``: two verdicts that must agree by theorem
  disagreed, a library bug; the CLI exits 1.
"""


class ZdPosetError(Exception):
    """Base class for all library errors."""


class PosetSyntaxError(ZdPosetError):
    """Malformed poset file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SizeLimitExceededError(ZdPosetError):
    pass


class TheoremContractError(ZdPosetError):
    pass
