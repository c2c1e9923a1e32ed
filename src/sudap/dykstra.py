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
sweeps (FIRST_CHECKPOINT, then every doubling of it), and on the sweep
that ends the run, the driver tries the exact KKT point of every
uncertified pixel: it solves the equality-constrained projection

    U = Y0 + S_A' lam,   (S_A S_A') lam = f_A - S_A Y0,

and certifies the result when lam >= 0 and every abundance
p_norms_i (s_i'U - f_i) is at least -CERT_TOL. Those two conditions
are the KKT conditions of the projection, so a certified column is the
projection itself, up to rounding. A column that fails gets up to m
drop/add rounds on its active set (the active-set method of FCLS); if it
still fails, it goes back to sweeping with its tau unchanged. Certified
columns leave the sweep: after each finish the rest are gathered into a
dense block, and the sweep and the stop bookkeeping run on that block
only. The run stops when every column is certified, when the block's
relative change falls to rel_tol, or after max_sweeps sweeps.

Columns never interact: each pixel's trajectory, and whether and when it
is certified, depends only on the transform and its own data. So the
driver cuts the block into tiles of TILE columns, whatever the thread
count, and runs the sweep, its bookkeeping and the finish tile by tile,
on as many tiles at once as there are threads. The per-tile sums of the
change test are added in tile order, so the result and the trace are the
same to the bit at every thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .projectors import project_hyperplane, project_intersection_geometric
from .subspace import SubspaceTransform

# Guard against a zero-norm iterate in the relative-change denominator.
REL_CHANGE_EPS = 1e-300

# The exact finish runs after this sweep, and after every doubling of it
# (5, 10, 20, 40, ...).
FIRST_CHECKPOINT = 5

# The sweep, its bookkeeping and the finish run on tiles of this many
# columns, whatever the thread count, so the result does not depend on
# the count and their temporaries are bounded by the tile. Wider tiles
# make fewer kernel calls and sweep faster (m=10: 4.6 ms per 40 000
# columns at 8192 against 5.7 ms here), but the finish's batched solve
# holds about 17 m^2 bytes per column of a tile.
TILE = 4096

# A finished column is primal feasible when no abundance is below
# -CERT_TOL.
CERT_TOL = 1e-12


@dataclass
class DykstraConfig:
    """Run controls for dykstra_project.

    The run stops once every column is certified by the exact finish,
    after max_sweeps sweeps, or earlier once the uncertified block's
    relative change over one sweep, |U_k - U_{k-1}|_F / |U_k|_F, is at
    most rel_tol. rel_tol = 0 turns the change test off in practice (it
    only fires on an exact fixed point), but a run still stops at the
    checkpoint where its last column is certified, so it no longer gives
    a fixed-sweep run. threads is how many tiles of TILE columns run at
    once; it never changes how the columns are cut, and the result is
    the same to the bit at any count. To watch a run, use
    dykstra_project's on_sweep.
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
    finish and the stop bookkeeping only; the on_sweep observer runs off
    the clock, so observed runs time like plain ones. rel_change is the
    relative change over each sweep of the columns still being swept
    (the change test's quantity), and uncertified the number of columns
    not yet certified after it, which is the width of the block the next
    sweep runs on. uncertified falls only at checkpoints and on the last
    sweep, where the finish runs, so its last entry counts the columns
    the finish could not certify. The state the driver keeps is O(m n)
    whatever the sweep count.
    """

    elapsed_s: np.ndarray
    rel_change: np.ndarray
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


def _sweep_tile(
    t: SubspaceTransform,
    u: np.ndarray,
    tau: np.ndarray,
    sweep: int,
    tile: slice,
) -> tuple[float, float]:
    """Run one sweep, in place, on the columns of u and tau in tile.

    Returns the tile's sums of |step|^2 and |U|^2 for the change test.
    They use einsum: np.linalg.norm, and b @ u on wide blocks, wake
    BLAS's thread pool, which stalled sweeps by 3-15 ms on a 2-CPU host.
    """
    step = u[:, tile].copy()
    _sweep_block(t, u, tau, tile.start, tile.stop)
    after = u[:, tile]
    if not np.all(np.isfinite(after)):
        raise NonFinite(f"iterate became non-finite at sweep {sweep}")
    step -= after  # the sweep's step, negated
    return (
        np.einsum("ij,ij->", step, step),
        np.einsum("ij,ij->", after, after),
    )


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
    t: SubspaceTransform,
    y0: np.ndarray,
    u: np.ndarray,
    tau: np.ndarray,
    tile: slice,
) -> np.ndarray:
    """Replace each column by its exact projection where that certifies.

    Works in place on the columns of the blocks u and tau in tile, with
    y0 the columns' points on the sum hyperplane. The seed active set of a
    column is {i : tau_i > 0}. A certified column gets its KKT point in
    u and its multipliers in tau; any other column is left untouched.
    Returns the tile's certified flags.
    """
    y0, u, tau = y0[:, tile], u[:, tile], tau[:, tile]
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
    # the first finish certifies a column it is every column, and ub is
    # u itself; after that, cols lists the block's columns in u.
    cols = None
    ub, tb, yb = u, np.zeros((m, n)), u.copy()

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    run = map if executor is None else executor.map

    elapsed: list[float] = []
    rel_changes: list[float] = []
    uncertified: list[int] = []

    clock = 0.0
    checkpoint = FIRST_CHECKPOINT
    converged = False
    try:
        for sweep in range(1, cfg.max_sweeps + 1):
            tic = time.perf_counter()
            tiles = [
                slice(lo, lo + TILE) for lo in range(0, ub.shape[1], TILE)
            ]
            sums = list(run(partial(_sweep_tile, t, ub, tb, sweep), tiles))
            step_sq, u_sq = (sum(col) for col in zip(*sums))
            rel = math.sqrt(step_sq) / max(math.sqrt(u_sq), REL_CHANGE_EPS)
            last = rel <= cfg.rel_tol or sweep == cfg.max_sweeps

            certified = None
            if sweep == checkpoint or last:
                checkpoint *= 2
                certified = np.concatenate(
                    list(run(partial(_finish_tile, t, yb, ub, tb), tiles))
                )
            if cols is not None:
                u[:, cols] = ub
            if certified is not None and certified.any():
                keep = np.flatnonzero(~certified)
                cols = keep if cols is None else cols[keep]
                ub, tb, yb = ub[:, keep], tb[:, keep], yb[:, keep]
            clock += time.perf_counter() - tic

            elapsed.append(clock)
            rel_changes.append(rel)
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
        uncertified=np.asarray(uncertified, dtype=np.int64),
        converged=converged,
    )
    return u, trace
