"""Evaluation metrics and convergence curves.

Errors are computed linearly and converted to decibels only at the
edge; an exact match maps to the -inf sentinel rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dykstra import DykstraTrace
from .errors import DimensionMismatch, ShapeMismatch, ZeroReference
from .model import AbundanceMatrix, EndmemberMatrix, ImageCube
from .subspace import SubspaceTransform, inverse_transform


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
    """Per-snapshot metric rows of one solver run.

    re_db and nmse_db hold nan where the matching reference was not
    supplied; unconverged is None when per-pixel telemetry was off.
    """

    sweep: np.ndarray
    time_s: np.ndarray
    objective: np.ndarray
    re_db: np.ndarray
    nmse_db: np.ndarray
    unconverged: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.sweep)
        for name in ("time_s", "objective", "re_db", "nmse_db"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if self.unconverged is not None and len(self.unconverged) != n:
            raise ValueError("column unconverged has wrong length")
        if np.any(np.diff(self.time_s) < 0):
            raise ValueError("time_s must be nondecreasing")

    @property
    def n_rows(self) -> int:
        return len(self.sweep)


def build_curve(
    trace: DykstraTrace,
    t: SubspaceTransform,
    e: EndmemberMatrix,
    x: ImageCube,
    a_star: AbundanceMatrix | None = None,
    a_true: AbundanceMatrix | None = None,
) -> ConvergenceCurve:
    """Turn trace snapshots into metric rows.

    One row per snapshot: solver-only elapsed time, residual objective,
    RE against a_star and NMSE against a_true when given (nan cells
    otherwise), and the per-pixel unconverged count when the trace
    carries one.
    """
    n = len(trace.snapshots)
    sweeps = np.zeros(n, dtype=np.int64)
    times = np.zeros(n)
    objectives = np.zeros(n)
    res = np.full(n, np.nan)
    nmses = np.full(n, np.nan)
    counts = (
        np.zeros(n, dtype=np.int64) if trace.unconverged is not None else None
    )
    for row, (sweep, u) in enumerate(trace.snapshots):
        a_k = inverse_transform(t, u)
        idx = sweep - 1
        sweeps[row] = sweep
        times[row] = trace.elapsed_s[idx]
        objectives[row] = objective(e, x, a_k)
        if a_star is not None:
            res[row] = _ratio_db(a_k, a_star, "relative error")
        if a_true is not None:
            nmses[row] = _ratio_db(a_k, a_true, "NMSE")
        if counts is not None:
            counts[row] = trace.unconverged[idx]
    return ConvergenceCurve(
        sweep=sweeps,
        time_s=times,
        objective=objectives,
        re_db=res,
        nmse_db=nmses,
        unconverged=counts,
    )
