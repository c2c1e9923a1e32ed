"""Core domain types of the linear mixing model X = EA + N.

Pixels are columns throughout: an image cube is an n_bands x n_pixels
matrix plus (rows, cols) metadata, abundances are m x n_pixels. All types
are immutable after construction and safe to share across workers.

One finiteness check, finite_sum_of_squares, serves every matrix here
and every tile io streams; its pass is the sum of squares, |X|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite

# Feasibility tolerances. A certified sudap output is the certificate's
# own abundances, exact to rounding: its column sums and its zeros are
# off by rounding alone, far inside both slacks unless E is badly
# conditioned. EPS_NEG now serves runs that stop uncertified at
# max_sweeps, whose sweeps reach the feasible set only asymptotically,
# so it is looser than the sum slack.
EPS_SUM = 1e-9
EPS_NEG = 1e-7


def sum_of_squares(arr: np.ndarray) -> float:
    """One BLAS dot of arr's entries, in memory order: ravel(order="K")
    copies no C- or Fortran-ordered array. NaN and infinity propagate."""
    flat = arr.ravel(order="K")
    return float(flat @ flat)


def finite_sum_of_squares(arr: np.ndarray, name: str) -> float:
    """arr's sum of squares, or NonFinite naming it on a NaN or infinity.

    A finite sum proves every entry finite in one pass. Only a sum that
    is not finite reads the extremes, which tell an overflow of finite
    entries (the sum is then inf, and no error) from a NaN or infinity.
    """
    with np.errstate(over="ignore"):
        sq = sum_of_squares(arr)
    if not math.isfinite(sq) and not (
        np.isfinite(arr.min()) and np.isfinite(arr.max())
    ):
        raise NonFinite(f"{name} contains non-finite entries")
    return sq


def _as_matrix(data, name: str) -> tuple[np.ndarray, float]:
    """data as a float64 matrix, checked finite, and its sum of squares."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr, finite_sum_of_squares(arr, name)


@dataclass(frozen=True)
class EndmemberMatrix:
    """Spectral signatures, one endmember per column (n_bands x m).

    Columns must be linearly independent; that is not checked here but
    surfaces as RankDeficient when the subspace transform is built.
    """

    data: np.ndarray
    wavelengths: np.ndarray | None = None

    def __post_init__(self):
        arr, _ = _as_matrix(self.data, "endmember matrix")
        object.__setattr__(self, "data", arr)
        n_bands, m = arr.shape
        if m < 1:
            raise ValueError("need at least one endmember")
        if n_bands < m:
            raise ValueError(
                f"need at least as many bands as endmembers ({n_bands} < {m})"
            )
        if self.wavelengths is not None:
            wl = np.asarray(self.wavelengths, dtype=np.float64)
            if wl.shape != (n_bands,):
                raise ValueError("wavelengths must have one entry per band")
            object.__setattr__(self, "wavelengths", wl)

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ImageCube:
    """Observed spectra as an n_bands x n_pixels matrix with spatial shape.

    The (rows, cols) shape is metadata only; all math treats the cube as a
    flat pixel list. data need not be C-contiguous: io.read_cube hands
    out the Fortran-ordered transpose of the pixel-major file payload.
    sum_sq is |X|_F^2, from the finiteness check on construction, as
    io.ContainerReader.sum_sq is for a streamed cube.
    """

    data: np.ndarray
    shape: tuple[int, int]
    wavelengths: np.ndarray | None = None
    sum_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr, sum_sq = _as_matrix(self.data, "image cube")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "sum_sq", sum_sq)
        rows, cols = self.shape
        object.__setattr__(self, "shape", (int(rows), int(cols)))
        if rows < 1 or cols < 1 or rows * cols != arr.shape[1]:
            raise ValueError(
                f"spatial shape {rows}x{cols} does not match {arr.shape[1]} pixels"
            )
        if self.wavelengths is not None:
            wl = np.asarray(self.wavelengths, dtype=np.float64)
            if wl.shape != (arr.shape[0],):
                raise ValueError("wavelengths must have one entry per band")
            object.__setattr__(self, "wavelengths", wl)

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AbundanceMatrix:
    """Fractional abundances, one pixel per column (m x n_pixels).

    ``feasible`` is a producer-set claim that every column lies on the
    simplex within EPS_SUM and EPS_NEG; setting it triggers a check.
    """

    data: np.ndarray
    shape: tuple[int, int]
    feasible: bool = False

    def __post_init__(self):
        arr, _ = _as_matrix(self.data, "abundance matrix")
        object.__setattr__(self, "data", arr)
        rows, cols = self.shape
        object.__setattr__(self, "shape", (int(rows), int(cols)))
        if rows * cols != arr.shape[1]:
            raise ValueError(
                f"spatial shape {rows}x{cols} does not match {arr.shape[1]} pixels"
            )
        if self.feasible:
            report = column_feasibility(self)
            if not report.feasible:
                raise ValueError(
                    "matrix flagged feasible violates simplex constraints: "
                    f"max sum violation {report.max_sum_violation:.3e}, "
                    f"min entry {report.min_entry:.3e}"
                )

    @property
    def n_endmembers(self) -> int:
        return self.data.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FeasibilityReport:
    max_sum_violation: float
    min_entry: float
    feasible: bool


def validate_dimensions(e: EndmemberMatrix, x: ImageCube) -> None:
    """Raise DimensionMismatch unless E and X share a band count."""
    if e.n_bands != x.n_bands:
        raise DimensionMismatch(e.n_bands, x.n_bands)


def column_feasibility(a: AbundanceMatrix) -> FeasibilityReport:
    """Check every column of A against the simplex constraints.

    Feasible means each column sum is within EPS_SUM of 1 and no entry
    is below -EPS_NEG.
    """
    data = a.data
    max_sum_violation = float(np.max(np.abs(data.sum(axis=0) - 1.0)))
    min_entry = float(data.min())
    feasible = max_sum_violation <= EPS_SUM and min_entry >= -EPS_NEG
    return FeasibilityReport(max_sum_violation, min_entry, feasible)
