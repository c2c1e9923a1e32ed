"""Dykstra's projection driver, run as Hildreth's method.

Projects transformed observations Y onto the intersection of the sum
hyperplane S with all m half spaces N_i by cycling through the m
closed-form projectors onto S meet N_i. Plain cyclic projection would
converge to some point of the intersection; Dykstra's scheme carries a
correction per set, which makes the limit the orthogonal projection of
Y itself:

    for i = 1..m:
        Z   <- U + Q_i
        U   <- P_i(Z)
        Q_i <- Z - U

Y is first dropped onto S once. The limit is unchanged (the feasible
set lies inside S, and projecting onto a subset of an affine set
through the set's own projection is exact), and every U and Z after
that lies on S. On S, P_i(Z) only slides Z along the unit in-plane
normal s_i of N_i, by tau = max(0, f_i - s_i'Z) per column, so every
correction is Q_i = Z - P_i(Z) = -s_i tau_i: one scalar per
constraint per pixel. Carrying tau instead of Q turns the sweep into
Hildreth's dual coordinate ascent,

    for i = 1..m:
        tau_new = max(0, f_i - s_i'U + tau_i)
        U      <- U + s_i (tau_new - tau_i)
        tau_i  <- tau_new

and the driver's whole state is the m x n iterate U and the m x n
multiplier block tau, whatever m.

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


def _norm(x: np.ndarray) -> float:
    """Frobenius norm of x, by einsum in the calling thread.

    np.linalg.norm, and b @ u on wide blocks, wake BLAS's thread pool;
    doing that every sweep stalled sweeps by 3-15 ms on a 2-CPU host,
    so the per-sweep bookkeeping uses einsum instead.
    """
    return math.sqrt(np.einsum("ij,ij->", x, x))


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
    t: SubspaceTransform, u: np.ndarray, tau: np.ndarray, lo: int, hi: int
) -> None:
    """Run one full sweep on columns [lo, hi) in place."""
    uv, tv = u[:, lo:hi], tau[:, lo:hi]
    for i in range(t.n_endmembers):
        project_intersection_geometric(t, i, uv, tv)


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
    tau = np.zeros((m, n))
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
                _sweep_block(t, u, tau, 0, n)
            else:
                futures = [
                    executor.submit(_sweep_block, t, u, tau, lo, hi)
                    for lo, hi in bounds
                ]
                for fut in futures:
                    fut.result()

            if not np.all(np.isfinite(u)):
                raise NonFinite(f"iterate became non-finite at sweep {sweep}")

            u_prev -= u  # the sweep's step, negated
            rel = _norm(u_prev) / max(_norm(u), REL_CHANGE_EPS)
            violation = float(
                np.max(np.abs(np.einsum("i,ij->j", t.b, u) - 1.0))
            )
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

