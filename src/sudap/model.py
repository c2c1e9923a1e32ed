"""Core domain types of the linear mixing model X = EA + N.

Pixels are columns throughout: an image cube is an n_bands x n_pixels
matrix plus (rows, cols) metadata, abundances are m x n_pixels. All types
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite

# Feasibility tolerances. Dykstra reaches the feasible set only
# asymptotically, so the non-negativity slack is looser than the
# structurally enforced sum constraint.
EPS_SUM = 1e-9
EPS_NEG = 1e-7


def _as_matrix(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    # NaN propagates through min and max, and an infinity is an extreme,
    # so this is exact without an isfinite temporary of the matrix's size.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFinite(f"{name} contains non-finite entries")
    return arr


def sum_of_squares(arr: np.ndarray) -> float:
    """The sum of the squares of every entry of arr.

    One BLAS dot of the entries in memory order, which ravel(order="K")
    views without a copy for a C- or Fortran-ordered array. NaN and
    infinity propagate into the sum.
    """
    flat = arr.ravel(order="K")
    return float(flat @ flat)


@dataclass(frozen=True)
class EndmemberMatrix:
    """Spectral signatures, one endmember per column (n_bands x m).

    Columns must be linearly independent; that is not checked here but
    surfaces as RankDeficient when the subspace transform is built.
    """

    data: np.ndarray
    wavelengths: np.ndarray | None = None

    def __post_init__(self):
        arr = _as_matrix(self.data, "endmember matrix")
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
    """

    data: np.ndarray
    shape: tuple[int, int]
    wavelengths: np.ndarray | None = None

    def __post_init__(self):
        arr = _as_matrix(self.data, "image cube")
        object.__setattr__(self, "data", arr)
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
        arr = _as_matrix(self.data, "abundance matrix")
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
