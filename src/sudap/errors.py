"""Exception hierarchy shared by all sudap modules.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class SudapError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SudapError):
    """Band/shape counts of two operands disagree."""

    def __init__(self, n_bands_e, n_bands_x):
        self.n_bands_e = n_bands_e
        self.n_bands_x = n_bands_x
        super().__init__(
            f"dimension mismatch: operands have sizes {n_bands_e} and "
            f"{n_bands_x} where equal sizes are required"
        )


class ShapeMismatch(SudapError):
    """Two matrices that must share a shape do not."""


class RankDeficient(SudapError):
    """The endmember Gram matrix is numerically singular."""


class DegenerateProblem(SudapError):
    """Single-endmember problem: the feasible set is one point."""


class IndexOutOfRange(SudapError):
    """Half-space index outside 0..m-1."""


class NonFinite(SudapError, ValueError):
    """Input data or an iterate contains NaN or infinity."""


class TooManyEndmembers(SudapError):
    """Active-set enumeration refused (m too large for 2^m subsets)."""


class NoKKTPoint(SudapError):
    """No active set produced a primal- and dual-feasible candidate."""


class InsufficientCandidates(SudapError):
    """Angle-filtered greedy selection could not reach the requested count."""

    def __init__(self, requested, found):
        self.requested = requested
        self.found = found
        super().__init__(
            f"could only select {found} of {requested} signatures with the "
            f"requested pairwise angle"
        )


class ZeroReference(SudapError):
    """Relative error against an all-zero reference matrix."""


class ParseError(SudapError):
    """Malformed cell in a CSV input."""

    def __init__(self, line, col, detail=""):
        self.line = line
        self.col = col
        msg = f"parse error at line {line}, column {col}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class EmptyFile(SudapError):
    """Input file holds no usable rows."""


class BadMagic(SudapError):
    """Binary file does not start with the expected magic bytes."""


class TruncatedFile(SudapError):
    """Binary file length disagrees with its header."""


class VersionUnsupported(SudapError):
    """Binary container version not understood by this reader."""


class NotConverged(SudapError):
    """A run stopped at its sweep cap with pixels still uncertified."""
