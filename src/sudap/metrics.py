"""Evaluation metrics and the recorder of convergence curves.

Errors are computed linearly and converted to decibels only at the
edge; an exact match maps to the -inf sentinel rather than raising.
"""

from __future__ import annotations

import numpy as np

from .dykstra import TILE, DykstraTrace
from .errors import DimensionMismatch, ShapeMismatch, ZeroReference
from .io import ConvergenceCurve, _tile_width
from .model import AbundanceMatrix, EndmemberMatrix, validate_dimensions
from .subspace import (
    ForwardMap,
    build_transform,
    forward_transform,
    inverse_transform,
)


def _data(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x), dtype=np.float64)


def _ratio_db(a_hat, reference, what: str) -> float:
    a_hat = _data(a_hat)
    reference = _data(reference)
    if a_hat.shape != reference.shape:
        raise ShapeMismatch(
            f"{what}: shapes {a_hat.shape} and {reference.shape} differ"
        )
    ref_power = float(np.linalg.norm(reference) ** 2)
    if ref_power == 0.0:
        raise ZeroReference(f"{what}: reference matrix is zero")
    err_power = float(np.linalg.norm(a_hat - reference) ** 2)
    if err_power == 0.0:
        return -np.inf
    return 10.0 * np.log10(err_power / ref_power)


def relative_error_db(a_hat, a_star) -> float:
    """10 log10(|A_hat - A*|_F^2 / |A*|_F^2), -inf on exact match.

    A* is the exact optimizer from a reference solver; this measures
    optimization progress, not estimation quality. Not symmetric in its
    arguments unless the two norms agree.
    """
    return _ratio_db(a_hat, a_star, "relative error")


def nmse_db(a_hat, a_true) -> float:
    """Same ratio as relative_error_db but against ground truth."""
    return _ratio_db(a_hat, a_true, "NMSE")


def _column_blocks(x, width: int):
    """x's columns in order, in blocks of width: a source's tiles(width)
    (io.open_cube), or views of a matrix or of an ImageCube's data."""
    if hasattr(x, "tiles"):
        return x.tiles(width)
    data = _data(x)
    return (data[:, lo:lo + width] for lo in range(0, data.shape[1], width))


def _block_residual(d: np.ndarray, z: np.ndarray, a: np.ndarray) -> float:
    """|z - D a|_F^2, whose one temporary, D a, is freed on return."""
    r = d @ a
    r -= z
    return float(np.einsum("ij,ij->", r, r))


def _tiled_residual(d: np.ndarray, blocks, a: np.ndarray) -> float:
    """|Z - D A|_F^2 for Z given by its column blocks in order
    (_column_blocks), so the only temporary is one block of D A."""
    total, lo = 0.0, 0
    for z in blocks:
        hi = lo + z.shape[1]
        total += _block_residual(d, z, a[:, lo:hi])
        lo = hi
    return total


def _reduced_objective(d: np.ndarray, y_blocks, a: np.ndarray,
                       x_sq) -> float:
    """|X - E A|_F^2 from Y = D^{-T} E'X, given by its column blocks in
    order, O(m n).

    With E'E = D'D the residual splits as |X|^2 - |Y|^2 + |Y - D A|^2.
    The first two terms are the energy of X outside the span of E,
    clamped at 0 against rounding. |Y|^2 is summed row by row in each
    block, which gives the same bits whether a block is a buffer of its
    own or a view of a held Y. x_sq() is |X|^2, asked for after the
    last block, when a streamed file's sum is complete.
    """
    y_sq, residual, lo = 0.0, 0.0, 0
    for y in y_blocks:
        hi = lo + y.shape[1]
        y_sq += float(np.einsum("ij,ij->i", y, y).sum())
        residual += _block_residual(d, y, a[:, lo:hi])
        lo = hi
    return max(x_sq() - y_sq, 0.0) + residual


def objective(e: EndmemberMatrix, x, a_hat) -> float:
    """Residual |X - E A_hat|_F^2, by the reduced identity.

    x is an ImageCube or a cube file opened with io.open_cube. Its
    pixels are mapped into the subspace block by block
    (subspace.ForwardMap) and each block of Y adds its share, so neither
    the cube nor Y is held, and no temporary larger than m x
    dykstra.TILE is formed; a file is read once more, in its tiles.
    With one endmember there is no subspace to reduce to: |X - E A|^2
    is summed directly, one read tile of pixels at a time.
    """
    a_data = _data(a_hat)
    if a_data.ndim != 2:
        raise ShapeMismatch(f"abundances must be 2-D, got shape "
                            f"{a_data.shape}")
    expected = (e.n_endmembers, x.n_pixels)
    if a_data.shape != expected:
        k = int(a_data.shape[0] == expected[0])  # the count that differs
        raise DimensionMismatch(expected[k], a_data.shape[k])
    validate_dimensions(e, x)
    if e.n_endmembers == 1:
        width = _tile_width(e.n_bands)
        return _tiled_residual(e.data, _column_blocks(x, width), a_data)
    t = build_transform(e)
    return _reduced_objective(t.d, ForwardMap(t, e, x).tiles(TILE), a_data,
                              lambda: x.sum_sq)


class CurveRecorder:
    """An on_sweep observer that builds the convergence curve of a run.

    Made for the endmembers e and the cube x (an ImageCube, or a cube
    file opened with io.open_cube), it forms and holds its own Y =
    D^{-T} E'X (forward_transform, reading x once) and |X|^2 on
    construction. Pass it as on_sweep to solve_sudap(e, x), or to
    dykstra_project on build_transform(e). Every `every` sweeps, and
    for the run's last sweep, it records one row: the objective, RE
    against a_star and NMSE against a_true when given (nan cells
    otherwise). curve(trace) then adds the solver-only elapsed times
    and the uncertified-pixel counts from the run's trace. The
    objective is metrics.objective's sum over views of the held Y, so
    a row costs O(m n), not O(bands n), and the recorder's memory is
    one m x n Y however long the run.
    """

    def __init__(self, e: EndmemberMatrix, x, every: int = 1,
                 a_star: AbundanceMatrix | None = None,
                 a_true: AbundanceMatrix | None = None):
        if every < 1:
            raise ValueError("every must be at least 1")
        validate_dimensions(e, x)
        self._t, self._every = build_transform(e), every
        self._y = forward_transform(self._t, e, x)
        self._x_sq = x.sum_sq
        self._a_star, self._a_true = a_star, a_true
        self._rows: list = []
        self._sweep, self._u = 0, None

    def __call__(self, sweep: int, u: np.ndarray) -> None:
        # u is the driver's live iterate: after the run it holds the
        # final one, which curve() reads for the last row.
        self._sweep, self._u = sweep, u
        if sweep % self._every == 0:
            self._rows.append(self._row())

    def _row(self) -> tuple:
        a_k = inverse_transform(self._t, self._u)
        return (
            self._sweep,
            _reduced_objective(self._t.d, _column_blocks(self._y, TILE), a_k,
                               lambda: self._x_sq),
            np.nan if self._a_star is None
            else relative_error_db(a_k, self._a_star),
            np.nan if self._a_true is None else nmse_db(a_k, self._a_true),
        )

    def curve(self, trace: DykstraTrace) -> ConvergenceCurve:
        """The recorded rows, timed and counted by the observed run's trace."""
        if trace.n_sweeps != self._sweep:
            raise ValueError(f"trace has {trace.n_sweeps} sweeps, the "
                             f"recorder saw {self._sweep}")
        rows = list(self._rows)
        if self._sweep and (not rows or rows[-1][0] != self._sweep):
            rows.append(self._row())
        cols = np.array(rows, dtype=np.float64).reshape(-1, 4).T
        sweep = cols[0].astype(np.int64)
        return ConvergenceCurve(
            sweep=sweep,
            time_s=trace.elapsed_s[sweep - 1],
            objective=cols[1],
            re_db=cols[2],
            nmse_db=cols[3],
            unconverged=trace.uncertified[sweep - 1],
        )
