"""Dykstra's projection driver, run as Hildreth's method, with an exact finish.

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

Y is first dropped onto S once, giving Y0. The limit is unchanged (the
feasible set lies inside S, and projecting onto a subset of an affine
set through the set's own projection is exact), and every U and Z after
that lies on S. On S, P_i(Z) only slides Z along the unit in-plane
normal s_i of N_i, by tau = max(0, f_i - s_i'Z) per column, so every
correction is Q_i = Z - P_i(Z) = -s_i tau_i: one scalar per
constraint per pixel. Carrying tau instead of Q turns the sweep into
Hildreth's dual coordinate ascent,

    for i = 1..m:
        tau_new = max(0, f_i - s_i'U + tau_i)
        U      <- U + s_i (tau_new - tau_i)
        tau_i  <- tau_new

which keeps U = Y0 + S'tau, with S the m x m array of rows s_i.

The sweeps converge only geometrically, but tau names each pixel's
active set A = {i : tau_i > 0} long before U settles. At checkpoint
sweeps (FIRST_CHECKPOINT, then every doubling of it) the driver tries
the exact KKT point of every uncertified pixel: it solves the
equality-constrained projection

    U = Y0 + S_A' lam,   (S_A S_A') lam = f_A - S_A Y0,

and certifies the result when lam >= 0 and every abundance
p_norms_i (s_i'U - f_i) is at least -CERT_TOL. Those two conditions
are the KKT conditions of the projection, so a certified column is the
projection itself, up to rounding. A column that fails gets up to m
drop/add rounds on its active set (the active-set method of FCLS); if it
still fails, it goes back to sweeping with its tau unchanged. Certified
columns leave the sweep: after each checkpoint the rest are gathered
into a dense block, and the sweep and the stop bookkeeping run on that
block only. The run stops when every column is certified, or when the
block's relative change falls to rel_tol.

Columns never interact: each pixel's trajectory, and whether and when it
is certified, depends only on the transform and its own data, so the
sweep kernel may be run on disjoint column blocks in any order, or in
parallel, without changing a single bit of the result.
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

# The exact finish runs after this sweep, and after every doubling of it
# (5, 10, 20, 40, ...).
FIRST_CHECKPOINT = 5

# The finish solves this many columns per batch, whatever the thread
# count, so its memory is bounded by the tile.
FINISH_TILE = 4096

# A finished column is primal feasible when no abundance is below
# -CERT_TOL.
CERT_TOL = 1e-12


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

    The run stops once every column is certified by the exact finish,
    after max_sweeps sweeps, or earlier once the uncertified block's
    relative change over one sweep, |U_k - U_{k-1}|_F / |U_k|_F, is at
    most rel_tol. rel_tol = 0 turns the change test off in practice (it
    only fires on an exact fixed point), but a run still stops at the
    checkpoint where its last column is certified, so it no longer gives
    a fixed-sweep run. threads splits the swept columns into that many
    blocks per sweep; the result is the same to the bit at any count. To
    watch a run, use dykstra_project's on_sweep.
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

    elapsed_s is the cumulative time spent in the sweep kernel, the
    finish and the stop and sum bookkeeping only; the on_sweep observer
    runs off the clock, so observed runs time like plain ones.
    rel_change is the relative change over each sweep of the columns
    still being swept (the change test's quantity), max_sum_violation
    the largest |b'U - 1| over all columns after it, and uncertified the
    number of columns not yet certified after it, which is the width of
    the block the next sweep runs on. The state the driver keeps is
    O(m n) whatever the sweep count.
    """

    elapsed_s: np.ndarray
    rel_change: np.ndarray
    max_sum_violation: np.ndarray
    uncertified: np.ndarray
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


def _solve_active(
    t: SubspaceTransform, gram: np.ndarray, y0: np.ndarray, act: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The projection of each column of y0 with its active set held tight.

    act is m x k, True where constraint i is active for column j. Each
    column's multipliers come from one m x m system: S S' on A x A and
    identity rows elsewhere, so lam is 0 off A. Returns (lam, u) with
    u = y0 + S' lam. Products go through einsum, which never wakes the
    BLAS thread pool.
    """
    m, k = act.shape
    lam = np.zeros((m, k))
    need = np.flatnonzero(act.any(axis=0))
    if need.size:
        a = act[:, need].T
        mat = np.where(a[:, :, None] & a[:, None, :], gram, 0.0)
        mat[:, np.arange(m), np.arange(m)] += ~a
        rhs = t.f - np.einsum("ir,rj->ji", t.s, y0[:, need])
        rhs[~a] = 0.0
        lam[:, need] = np.linalg.solve(mat, rhs[:, :, None])[:, :, 0].T
    return lam, y0 + np.einsum("ir,ij->rj", t.s, lam)


def _finish_tile(
    t: SubspaceTransform, y0: np.ndarray, u: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Certify what columns it can; see _finish."""
    m, k = u.shape
    gram = np.einsum("ir,jr->ij", t.s, t.s)
    todo = np.arange(k)
    act = tau > 0
    certified = np.zeros(k, dtype=bool)
    for _ in range(m + 1):
        # With all m constraints active the system is singular (the
        # abundances cannot all be 0); such a column stays uncertified.
        todo = todo[act[:, todo].sum(axis=0) < m]
        if todo.size == 0:
            break
        try:
            lam, cand = _solve_active(t, gram, y0[:, todo], act[:, todo])
        except np.linalg.LinAlgError:
            break
        with np.errstate(invalid="ignore"):
            abund = t.p_norms[:, None] * (
                np.einsum("ir,rj->ij", t.s, cand) - t.f[:, None]
            )
            good = (lam.min(axis=0) >= 0.0) & (
                abund.min(axis=0) >= -CERT_TOL
            )
        done = todo[good]
        u[:, done] = cand[:, good]
        tau[:, done] = lam[:, good]
        certified[done] = True
        # Failing columns drop their most negative multiplier or, when
        # every multiplier is non-negative, add their most violated
        # inactive constraint, then are solved again. A column with
        # neither (it fails on an active constraint's rounding) stops.
        bad = ~good
        todo, lam = todo[bad], lam[:, bad]
        viol = np.where(act[:, todo], np.inf, abund[:, bad])
        drop = lam.min(axis=0) < 0.0
        add = ~drop & (viol.min(axis=0) < -CERT_TOL)
        act[lam.argmin(axis=0)[drop], todo[drop]] = False
        act[viol.argmin(axis=0)[add], todo[add]] = True
        todo = todo[drop | add]
    return certified


def _finish(
    t: SubspaceTransform, y0: np.ndarray, u: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Replace each column by its exact projection where that certifies.

    Works in place on the m x k blocks u and tau, with y0 the columns'
    points on the sum hyperplane. The seed active set of a column is
    {i : tau_i > 0}. A certified column gets its KKT point in u and its
    multipliers in tau; any other column is left untouched. Returns the
    k-vector of certified flags.
    """
    k = u.shape[1]
    certified = np.zeros(k, dtype=bool)
    for lo in range(0, k, FINISH_TILE):
        hi = min(lo + FINISH_TILE, k)
        certified[lo:hi] = _finish_tile(
            t, y0[:, lo:hi], u[:, lo:hi], tau[:, lo:hi]
        )
    return certified


def _bounds(width: int, n_workers: int) -> list[tuple[int, int]]:
    """Split [0, width) into at most n_workers contiguous blocks."""
    step = max(-(-width // n_workers), 1)
    return [(lo, min(lo + step, width)) for lo in range(0, width, step)]


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
        trace clock. u is a read-only view of the live m x n iterate,
        certified columns included, the same array on every call: it
        changes as the run goes on, so copy it to keep an iterate, and
        writing into it raises ValueError. An exception from on_sweep
        ends the run and propagates.

    Returns
    -------
    (u_hat, trace)
        u_hat is m x n with every column on the sum hyperplane to
        roundoff. Certified columns are the exact projection to
        rounding; on any other column, negative half-space slack
        shrinks with rel_tol.

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
    u_seen = u.view()
    u_seen.flags.writeable = False
    # The swept block: its iterate, multipliers and points on S. Until
    # the first checkpoint it is every column, and ub is u itself; after
    # it, cols lists the block's columns in u.
    cols = None
    ub, tb, yb = u, np.zeros((m, n)), u.copy()
    ub_prev = np.empty_like(ub)
    # Largest |b'U - 1| over the columns that have left the sweep.
    done_violation = 0.0

    n_workers = min(cfg.threads, n)
    executor = ThreadPoolExecutor(n_workers) if n_workers > 1 else None
    bounds = _bounds(n, n_workers)

    elapsed: list[float] = []
    rel_changes: list[float] = []
    sum_violations: list[float] = []
    uncertified: list[int] = []

    clock = 0.0
    checkpoint = FIRST_CHECKPOINT
    converged = False
    try:
        for sweep in range(1, cfg.max_sweeps + 1):
            tic = time.perf_counter()
            ub_prev[:] = ub
            if executor is None:
                _sweep_block(t, ub, tb, 0, ub.shape[1])
            else:
                futures = [
                    executor.submit(_sweep_block, t, ub, tb, lo, hi)
                    for lo, hi in bounds
                ]
                for fut in futures:
                    fut.result()

            if not np.all(np.isfinite(ub)):
                raise NonFinite(f"iterate became non-finite at sweep {sweep}")

            ub_prev -= ub  # the sweep's step, negated
            rel = _norm(ub_prev) / max(_norm(ub), REL_CHANGE_EPS)

            certified = None
            if sweep == checkpoint:
                checkpoint *= 2
                certified = _finish(t, yb, ub, tb)
            if cols is not None:
                u[:, cols] = ub
            col_violation = np.abs(np.einsum("i,ij->j", t.b, ub) - 1.0)
            violation = max(done_violation, float(np.max(col_violation)))

            if certified is not None and certified.any():
                done_violation = max(
                    done_violation, float(np.max(col_violation[certified]))
                )
                keep = np.flatnonzero(~certified)
                cols = keep if cols is None else cols[keep]
                ub, tb, yb = ub[:, keep], tb[:, keep], yb[:, keep]
                ub_prev = np.empty_like(ub)
                bounds = _bounds(len(keep), n_workers)
            clock += time.perf_counter() - tic

            elapsed.append(clock)
            rel_changes.append(rel)
            sum_violations.append(violation)
            uncertified.append(ub.shape[1])
            if on_sweep is not None:
                on_sweep(sweep, u_seen)

            if ub.shape[1] == 0 or rel <= cfg.rel_tol:
                converged = True
                break
    finally:
        if executor is not None:
            executor.shutdown()

    trace = DykstraTrace(
        elapsed_s=np.asarray(elapsed),
        rel_change=np.asarray(rel_changes),
        max_sum_violation=np.asarray(sum_violations),
        uncertified=np.asarray(uncertified, dtype=np.int64),
        converged=converged,
    )
    return u, trace
