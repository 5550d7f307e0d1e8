"""The four exception types, one for each way a caller reacts.

- ``ZdPosetError``: bad input or a broken hypothesis of the paper; the
  CLI exits 2.
- ``PosetSyntaxError``: a malformed poset file, with its line when
  known; the CLI exits 2.
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
