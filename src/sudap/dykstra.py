"""Alternating projection driver with Dykstra's correction terms.

Projects transformed observations Y onto the intersection of the sum
hyperplane S with all m half spaces N_i by cycling through the m
closed-form projectors onto S meet N_i. Plain cyclic projection would
converge to some point of the intersection; carrying a correction
matrix per set (Dykstra's scheme) makes the limit the orthogonal
projection of Y itself.

One sweep, given iterate U and corrections Q_1..Q_m:

    for i = 1..m:
        Z   <- U + Q_i
        U   <- project_intersection(i, Z)
        Q_i <- Z - U

Before the first sweep Y is replaced by its hyperplane projection.
The limit is unchanged (the feasible set lies inside S, and projecting
onto a subset of an affine set through the set's own projection is
exact), every iterate and every Z above then stays on S, and each
correction is a difference of points on S. That is what licenses the
z_on_s fast path inside project_intersection for every call after the
very first.

Columns never interact: each pixel's trajectory depends only on the
transform, so the sweep kernel may be run on disjoint column blocks in
any order, or in parallel, without changing a single bit of the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .projectors import project_hyperplane, project_intersection_geometric
from .subspace import SubspaceTransform

# Guard against a zero-norm iterate in the relative-change denominator.
REL_CHANGE_EPS = 1e-300


@dataclass
class DykstraConfig:
    """Run controls for dykstra_project.

    The run stops after max_sweeps sweeps, or earlier once the
    iterate's relative change over one sweep, |U_k - U_{k-1}|_F /
    |U_k|_F, is at most rel_tol. rel_tol = 0 turns that test off in
    practice (it only fires on an exact fixed point), giving a
    fixed-sweep run of max_sweeps for benchmarking. threads splits the
    columns into that many blocks per sweep; the result is the same to
    the bit at any count. To watch a run, use dykstra_project's on_sweep.
    """

    max_sweeps: int = 2000
    rel_tol: float = 1e-10
    threads: int = 1

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError("rel_tol must be finite and non-negative")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class DykstraTrace:
    """Per-sweep records of one run; row k belongs to sweep k + 1.

    elapsed_s is the cumulative time spent in the sweep kernel and the
    stop and sum bookkeeping only; the on_sweep observer runs off the
    clock, so observed runs time like plain ones. rel_change is the
    iterate's relative change over each sweep (the stopping test's
    quantity) and max_sum_violation the largest |b'U - 1| after it.
    The state the driver keeps is O(m n) whatever the sweep count.
    """

    elapsed_s: np.ndarray
    rel_change: np.ndarray
    max_sum_violation: np.ndarray
    converged: bool = False

    @property
    def n_sweeps(self) -> int:
        return len(self.elapsed_s)


def _sweep_block(
    t: SubspaceTransform,
    u: np.ndarray,
    q: list,
    lo: int,
    hi: int,
    first_sweep: bool,
) -> None:
    """Run one full sweep on columns [lo, hi) in place."""
    uv = u[:, lo:hi]
    for i in range(t.n_endmembers):
        qv = q[i][:, lo:hi]
        zin = uv + qv
        out = project_intersection_geometric(
            t, i, zin, z_on_s=not (first_sweep and i == 0)
        )
        np.subtract(zin, out, out=qv)
        uv[:] = out


def dykstra_project(
    t: SubspaceTransform,
    y: np.ndarray,
    cfg: DykstraConfig | None = None,
    on_sweep=None,
) -> tuple[np.ndarray, DykstraTrace]:
    """Project every column of Y onto the transformed feasible set.

    Parameters
    ----------
    t : SubspaceTransform
    y : np.ndarray
        Transformed observations, m x n.
    cfg : DykstraConfig, optional
    on_sweep : callable, optional
        Called as on_sweep(sweep, u) after each of sweeps 1..n, off the
        trace clock. u is a read-only view of the live iterate, the same
        array on every call: it changes as the run goes on, so copy it
        to keep an iterate, and writing into it raises ValueError. An
        exception from on_sweep ends the run and propagates.

    Returns
    -------
    (u_hat, trace)
        u_hat is m x n with every column on the sum hyperplane to
        roundoff; negative half-space slack shrinks with rel_tol.

    Raises
    ------
    ShapeMismatch
        If y is not m x n with m matching the transform.
    NonFinite
        If an iterate stops being finite, which indicates a broken
        transform or pathological input.
    """
    if cfg is None:
        cfg = DykstraConfig()
    y = np.ascontiguousarray(y, dtype=np.float64)
    m = t.n_endmembers
    if y.ndim != 2 or y.shape[0] != m:
        raise ShapeMismatch(
            f"expected a {m} x n coefficient block, got shape {y.shape}"
        )
    n = y.shape[1]
    if n < 1:
        raise ShapeMismatch("need at least one column to project")

    u = project_hyperplane(t, y)
    q = [np.zeros((m, n)) for _ in range(m)]
    u_prev = np.empty_like(u)
    u_seen = u.view()
    u_seen.flags.writeable = False

    n_workers = min(cfg.threads, n)
    executor = ThreadPoolExecutor(n_workers) if n_workers > 1 else None
    if executor is not None:
        step = -(-n // n_workers)
        bounds = [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    elapsed: list[float] = []
    rel_changes: list[float] = []
    sum_violations: list[float] = []

    clock = 0.0
    converged = False
    try:
        for sweep in range(1, cfg.max_sweeps + 1):
            tic = time.perf_counter()
            u_prev[:] = u
            if executor is None:
                _sweep_block(t, u, q, 0, n, sweep == 1)
            else:
                futures = [
                    executor.submit(
                        _sweep_block, t, u, q, lo, hi, sweep == 1
                    )
                    for lo, hi in bounds
                ]
                for fut in futures:
                    fut.result()

            if not np.all(np.isfinite(u)):
                raise NonFinite(f"iterate became non-finite at sweep {sweep}")

            rel = float(
                np.linalg.norm(u - u_prev)
                / max(np.linalg.norm(u), REL_CHANGE_EPS)
            )
            violation = float(np.max(np.abs(t.b @ u - 1.0)))
            clock += time.perf_counter() - tic

            elapsed.append(clock)
            rel_changes.append(rel)
            sum_violations.append(violation)
            if on_sweep is not None:
                on_sweep(sweep, u_seen)

            if rel <= cfg.rel_tol:
                converged = True
                break
    finally:
        if executor is not None:
            executor.shutdown()

    trace = DykstraTrace(
        elapsed_s=np.asarray(elapsed),
        rel_change=np.asarray(rel_changes),
        max_sum_violation=np.asarray(sum_violations),
        converged=converged,
    )
    return u, trace

