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

with one |A| x |A| system per pixel, the pixels of one |A| solved as a
batch (as FC-NNLS groups them). It certifies the result when lam >= 0
and every abundance p_norms_i (s_i'U - f_i) is at least -CERT_TOL times
its rounding scale max(1, p_norms_i (|U| + |f_i|)). Those two conditions
are the KKT conditions of the projection, so a certified column is the
projection itself, up to rounding. A column that fails gets up to 3m
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
same to the bit at every thread count. The sweep and the finish do each
column's arithmetic on its own, so a column's result does not depend on
the tile either.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .projectors import (
    _row_dot,
    project_hyperplane,
    project_intersection_geometric,
)
from .subspace import SubspaceTransform

# Guard against a zero-norm iterate in the relative-change denominator.
REL_CHANGE_EPS = 1e-300

# The exact finish runs after this sweep, and after every doubling of it
# (2, 4, 8, 16, ...). Two sweeps seed it well enough to certify every
# pixel of the benchmark scenes and of the ill-conditioned m=20 ones.
# Not after sweep 1: on a scene that one sweep already brings to about
# -100 dB RE of the projection, a finish there would delay that iterate
# by the finish's whole cost.
FIRST_CHECKPOINT = 2

# The sweep, its bookkeeping and the finish run on tiles of this many
# columns, whatever the thread count, so the result does not depend on
# the count and their temporaries are bounded by the tile. Wider tiles
# make fewer kernel calls and sweep faster (m=10: 4.6 ms per 40 000
# columns at 8192 against 5.7 ms here), but the finish holds about
# 17 |A|^2 bytes per column of a tile for its batched solves, besides
# about ten m x TILE blocks.
TILE = 4096

# A finished column is primal feasible when no abundance a_i is below
# -CERT_TOL times its rounding scale max(1, p_norms_i (|u| + |f_i|)):
# a_i = p_norms_i (s_i'u - f_i) with s_i a unit vector, so its rounding
# error grows with |u| and |f_i|, which an ill-conditioned E makes large.
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

    Under compaction a sweep runs only on the columns still uncertified
    when it starts: all n for the first sweep, uncertified[k - 1] for
    sweep k + 1. Row k describes that sweep over that block. elapsed_s
    is the cumulative time spent in the sweep kernel, the finish and the
    stop bookkeeping only; the on_sweep observer runs off the clock, so
    observed runs time like plain ones. rel_change is the block's
    relative change over the sweep (the change test's quantity), and
    uncertified the number of columns not yet certified after the sweep
    and its finish, if one ran, which is the width of the block the
    next sweep runs on. uncertified falls only at checkpoints and on the
    last sweep, where the finish runs, so its last entry counts the
    columns the finish could not certify. Whatever the sweep count, the
    driver's state is U and tau, two m x n blocks.
    """

    elapsed_s: np.ndarray
    rel_change: np.ndarray
    uncertified: np.ndarray
    converged: bool = False

    @property
    def n_sweeps(self) -> int:
        return len(self.elapsed_s)


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
    uv, tv = u[:, tile], tau[:, tile]
    step = uv.copy()
    for i in range(t.n_endmembers):
        project_intersection_geometric(t, i, uv, tv)
    if not np.all(np.isfinite(uv)):
        raise NonFinite(f"iterate became non-finite at sweep {sweep}")
    step -= uv  # the sweep's step, negated
    return (
        np.einsum("ij,ij->", step, step),
        np.einsum("ij,ij->", uv, uv),
    )


def _solve_active(
    gram: np.ndarray, rhs: np.ndarray, act: np.ndarray
) -> np.ndarray:
    """Multipliers of each column's projection with its active set tight.

    act is m x k, True where constraint i is active for column j, and
    rhs holds the columns' f - S y0. lam_A solves G[A, A] lam_A = rhs_A,
    with G = S S', and lam is 0 off A. Columns are grouped by |A| (as
    FC-NNLS groups them), and each group is one batched solve of its
    gathered |A| x |A| blocks; |A| = 1 is a division. A group whose
    solve fails gets NaN multipliers, which no certificate accepts; so
    does |A| = m, whose system is singular (the abundances cannot all be
    0). Each column's arithmetic is its own, whatever columns share the
    call.
    """
    m, k = act.shape
    lam = np.zeros((m, k))
    size = act.sum(axis=0)
    order = np.argsort(size, kind="stable")
    edges = np.searchsorted(size[order], np.arange(m + 2))
    lam[:, order[edges[m]:]] = np.nan
    for p in range(1, m):
        cols = order[edges[p]:edges[p + 1]]
        if cols.size == 0:
            continue
        rows = np.nonzero(act.T[cols])[1].reshape(-1, p)
        b = rhs[rows, cols[:, None]]
        if p == 1:
            lam[rows, cols[:, None]] = b / np.diagonal(gram)[rows]
            continue
        try:
            lam[rows, cols[:, None]] = np.linalg.solve(
                gram[rows[:, :, None], rows[:, None, :]], b[:, :, None]
            )[:, :, 0]
        except np.linalg.LinAlgError:
            lam[rows, cols[:, None]] = np.nan
    return lam


def _finish_tile(
    t: SubspaceTransform,
    y: np.ndarray,
    u: np.ndarray,
    tau: np.ndarray,
    tile: slice,
) -> np.ndarray:
    """Replace each column by its exact projection where that certifies.

    Works in place on the columns of the blocks u and tau in tile, with
    y the columns' data, which it drops onto S itself. The seed active
    set of a column is {i : tau_i > 0}. A certified column gets its KKT
    point in u and its multipliers in tau; any other column is left
    untouched. Returns the tile's certified flags. Products accumulate
    in a fixed order, so each column's result is its own, whatever the
    tile.
    """
    y0, u, tau = project_hyperplane(t, y[:, tile]), u[:, tile], tau[:, tile]
    m, k = u.shape
    gram = np.einsum("ir,jr->ij", t.s, t.s)
    rhs = t.f[:, None] - _row_dot(t.s.T[:, :, None], y0)
    act = tau > 0
    certified = np.zeros(k, dtype=bool)
    # The first round solves the whole tile on views of its blocks;
    # later ones solve the columns left, by index.
    todo = slice(None)
    for _ in range(3 * m):
        lam = _solve_active(gram, rhs[:, todo], act[:, todo])
        cand = _row_dot(t.s[:, :, None], lam)
        cand += y0[:, todo]
        with np.errstate(invalid="ignore"):
            # Each abundance plus its certificate bound, negative where
            # the abundance fails the bound. The bound is never below
            # CERT_TOL, so its scale is needed only in columns that
            # fail that floor.
            abund = _row_dot(t.s.T[:, :, None], cand)
            abund -= t.f[:, None]
            abund *= t.p_norms[:, None]
            slack = abund + CERT_TOL
            low = np.flatnonzero(slack.min(axis=0) < 0.0)
            u_norm = np.sqrt(_row_dot(cand[:, low], cand[:, low]))
            slack[:, low] = abund[:, low] + CERT_TOL * np.maximum(
                1.0, t.p_norms[:, None] * (u_norm + np.abs(t.f)[:, None])
            )
            good = (lam.min(axis=0) >= 0.0) & (slack.min(axis=0) >= 0.0)
        # Failing columns drop their most negative multiplier or, when
        # every multiplier is non-negative, add their most violated
        # inactive constraint, then are solved again. A column with
        # neither (it fails on an active constraint's rounding, or its
        # solve failed) stops.
        bad = ~good
        cols, lam_bad = np.arange(k)[todo][bad], lam[:, bad]
        viol = np.where(act[:, cols], np.inf, slack[:, bad])
        drop = lam_bad.min(axis=0) < 0.0
        add = ~drop & (viol.min(axis=0) < 0.0)
        act[lam_bad.argmin(axis=0)[drop], cols[drop]] = False
        act[viol.argmin(axis=0)[add], cols[add]] = True
        # Certified columns take their point and multipliers; the others
        # are written back as they were.
        np.copyto(cand, u[:, todo], where=bad)
        np.copyto(lam, tau[:, todo], where=bad)
        u[:, todo], tau[:, todo] = cand, lam
        certified[todo] = good
        todo = cols[drop | add]
        if todo.size == 0:
            break
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
        Transformed observations, m x n, in any layout; never copied.
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
    y = np.asarray(y, dtype=np.float64)
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
    # The swept block: its iterate, multipliers and data, u, tau and y
    # themselves until the first finish certifies a column. After that,
    # cols lists the block's columns in u, and the block is gathered.
    cols = None
    ub, tb, yb = u, np.zeros((m, n)), y

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
