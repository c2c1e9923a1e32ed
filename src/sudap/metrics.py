"""Evaluation metrics and convergence curves.

Errors are computed linearly and converted to decibels only at the
edge; an exact match maps to the -inf sentinel rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dykstra import REL_CHANGE_EPS, DykstraTrace
from .errors import DimensionMismatch, ShapeMismatch, ZeroReference
from .model import AbundanceMatrix, EndmemberMatrix, ImageCube
from .projectors import project_hyperplane
from .subspace import SubspaceTransform, forward_transform, inverse_transform

# A pixel counts as still moving while its own squared relative change
# over one sweep exceeds this level, in dB: -100 dB is a relative change
# above 1e-5.
PIXEL_TOL_DB = -100.0
_PIXEL_TOL = 10.0 ** (PIXEL_TOL_DB / 10.0)


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


def objective(e: EndmemberMatrix, x: ImageCube, a_hat) -> float:
    """Residual |X - E A_hat|_F^2."""
    e_data = _data(e)
    x_data = _data(x)
    a_data = _data(a_hat)
    if e_data.shape[0] != x_data.shape[0]:
        raise DimensionMismatch(e_data.shape[0], x_data.shape[0])
    if e_data.shape[1] != a_data.shape[0] or x_data.shape[1] != a_data.shape[1]:
        raise DimensionMismatch(e_data.shape[1], a_data.shape[0])
    return float(np.linalg.norm(x_data - e_data @ a_data) ** 2)


@dataclass(frozen=True)
class ConvergenceCurve:
    """Metric rows of one solver run, one row per recorded sweep.

    re_db and nmse_db hold nan where the matching reference was not
    supplied.
    """

    sweep: np.ndarray
    time_s: np.ndarray
    objective: np.ndarray
    re_db: np.ndarray
    nmse_db: np.ndarray
    unconverged: np.ndarray

    def __post_init__(self):
        for name in ("time_s", "objective", "re_db", "nmse_db",
                     "unconverged"):
            if len(getattr(self, name)) != len(self.sweep):
                raise ValueError(f"column {name} has wrong length")
        if np.any(np.diff(self.time_s) < 0):
            raise ValueError("time_s must be nondecreasing")

    @property
    def n_rows(self) -> int:
        return len(self.sweep)


class CurveRecorder:
    """An on_sweep observer that builds the convergence curve of a run.

    Pass it as on_sweep to solve_sudap (or dykstra_project on the same
    transform and data). Every `every` sweeps, and for the run's last
    sweep, it records one row: the residual objective, RE against a_star
    and NMSE against a_true when given (nan cells otherwise), and the
    number of pixels whose squared relative change over that sweep
    exceeds PIXEL_TOL_DB. curve(trace) then adds the solver-only elapsed
    times from the run's trace. The recorder holds one m x n buffer,
    however long the run.
    """

    def __init__(self, t: SubspaceTransform, e: EndmemberMatrix,
                 x: ImageCube, every: int = 1,
                 a_star: AbundanceMatrix | None = None,
                 a_true: AbundanceMatrix | None = None):
        if every < 1:
            raise ValueError("every must be at least 1")
        self._t, self._e, self._x, self._every = t, e, x, every
        self._a_star, self._a_true = a_star, a_true
        # The iterate before sweep 1, computed as the driver computes it.
        self._prev = project_hyperplane(t, forward_transform(t, e, x))
        self._rows: list = []
        self._sweep, self._u, self._moving = 0, None, 0

    def __call__(self, sweep: int, u: np.ndarray) -> None:
        diff = u - self._prev
        num = np.einsum("ij,ij->j", diff, diff)
        den = np.maximum(np.einsum("ij,ij->j", u, u), REL_CHANGE_EPS)
        self._moving = int(np.count_nonzero(num > _PIXEL_TOL * den))
        self._prev[:] = u
        # u is the driver's live iterate: after the run it holds the
        # final one, which curve() reads for the last row.
        self._sweep, self._u = sweep, u
        if sweep % self._every == 0:
            self._rows.append(self._row())

    def _row(self) -> tuple:
        a_k = inverse_transform(self._t, self._u)
        return (
            self._sweep,
            objective(self._e, self._x, a_k),
            np.nan if self._a_star is None
            else relative_error_db(a_k, self._a_star),
            np.nan if self._a_true is None else nmse_db(a_k, self._a_true),
            self._moving,
        )

    def curve(self, trace: DykstraTrace) -> ConvergenceCurve:
        """The recorded rows, timed by the observed run's trace."""
        if trace.n_sweeps != self._sweep:
            raise ValueError(f"trace has {trace.n_sweeps} sweeps, the "
                             f"recorder saw {self._sweep}")
        rows = list(self._rows)
        if self._sweep and (not rows or rows[-1][0] != self._sweep):
            rows.append(self._row())
        cols = np.array(rows, dtype=np.float64).reshape(-1, 5).T
        sweep = cols[0].astype(np.int64)
        return ConvergenceCurve(
            sweep=sweep,
            time_s=trace.elapsed_s[sweep - 1],
            objective=cols[1],
            re_db=cols[2],
            nmse_db=cols[3],
            unconverged=cols[4].astype(np.int64),
        )
