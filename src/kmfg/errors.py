"""Exception types shared across the package."""


class KmfgError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(KmfgError):
    """Malformed matrix input; carries the offending position when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class InvariantViolationError(KmfgError):
    """A square integer matrix that fails a generalized-Cartan-matrix invariant.

    ``invariant`` is one of ``"diagonal"``, ``"sign"``, ``"zero-symmetry"``;
    ``entry`` is the offending (row, column) pair, 1-based for reporting;
    for ``"zero-symmetry"`` it is the nonzero entry whose mirror is 0.
    """

    def __init__(self, invariant, entry, message):
        super().__init__(message)
        self.invariant = invariant
        self.entry = entry


class UnknownNameError(KmfgError):
    """A diagram name outside the supported grammar or rank range."""


class HypothesisError(KmfgError):
    """Input refused because the closed forms' one hypothesis fails: the
    matrix is neither symmetrizable nor two-spherical, so the Bruhat
    decomposition is not known to be a CW decomposition.

    ``reason`` is ``"hypotheses"``, its only value.
    """

    reason = "hypotheses"


class ResourceLimitError(KmfgError):
    """An enumeration exceeded its configured element cap."""

    def __init__(self, message, limit):
        super().__init__(message)
        self.limit = limit


class InputError(KmfgError, ValueError):
    """An input value the package cannot accept, such as an index above the
    rank or a closure element that is not a minimal coset representative.
    Also a ValueError, so callers that catch ValueError keep working."""


class InadmissibleKappaError(KmfgError):
    """A colouring that violates an admissibility constraint."""


class InternalError(KmfgError):
    """Two of the package's own computations contradict each other: a bug,
    not a problem with the input."""
