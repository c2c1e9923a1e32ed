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

Many pixels need no sweep at all: when every abundance of Y0 is
non-negative, Y0 is already the projection (the first step of FCLS,
Heinz & Chang 2001). Before sweep 1 the driver checks every column of
Y0 against the finish's certificate, below, with no constraint active
(lam = 0). If at least half of the columns pass, they are final, with
the bits the finish would give them, and the rest are gathered into the
block that is swept; otherwise the check certifies none, and the whole
of U is swept. The half keeps the gathered U and tau no larger than the
full-width tau they replace.

The sweeps converge only geometrically, but tau names each pixel's
active set A = {i : tau_i > 0} long before U settles. At checkpoint
sweeps (FIRST_CHECKPOINT, then every doubling of it), and on the sweep
that ends the run, the driver tries the exact KKT point of every
uncertified pixel: it solves the equality-constrained projection

    U = Y0 + S_A' lam,   (S_A S_A') lam = f_A - S_A Y0,

with one |A| x |A| system per pixel, the pixels of one |A| solved as a
batch (as FC-NNLS groups them). The certificate reads the abundances off
the multipliers, a = p_norms o (G lam - rhs) with G = S S' and
rhs = f - S Y0. A column passes when lam >= 0 and no a_i is below
-CERT_TOL max(1, p_norms_i (|rhs_i| + sum_j lam_j)), the rounding bound
of a_i's inner product (Higham 2002, sec. 3.1), as |G_ij| <= 1 for unit
s_i. These are the projection's KKT conditions, so a passing column's
U = Y0 + S'lam, the only U formed, is the projection up to rounding. A
column that fails gets up to 3m drop/add rounds on its active set (the
active-set method of FCLS); if it still fails, it goes back to sweeping
with its tau unchanged. Certified columns leave the sweep: after each
finish the rest are gathered into a dense block, and the sweep runs on
that block only. The finish reads the block's data in place, through
the list of its columns, so Y is never gathered.
The run stops when every column is certified, or after max_sweeps
sweeps; only the first counts as converged. A run is never stopped
because its iterate stopped changing: that says nothing of how far the
iterate is from the projection.

Columns never interact: each pixel's trajectory, and whether and when it
is certified, depends only on the transform and its own data. So the
driver cuts the block into tiles of TILE columns, whatever the thread
count, and runs the interior check, the sweep with its finiteness scan
and the finish tile by tile, on as many tiles at once as there are
threads. The check, the sweep and the finish do each column's
arithmetic on its own, and the tiles' flags are joined in tile order,
so the result and the trace are the same to the bit at every thread
count, and a column's result does not depend on its tile.
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

# The exact finish runs after this sweep, and after every doubling of it
# (2, 4, 8, 16, ...). Two sweeps seed it well enough to certify every
# pixel of the benchmark scenes and of the ill-conditioned m=20 ones.
# Not after sweep 1: on a scene that one sweep already brings to about
# -100 dB RE of the projection, a finish there would delay that iterate
# by the finish's whole cost.
FIRST_CHECKPOINT = 2

# The interior check, the sweep and the finish run on tiles of this many
# columns, whatever the thread count, so the result does not depend on
# the count and their temporaries are bounded by the tile. Wider tiles
# make fewer kernel calls and sweep faster (m=10: 4.6 ms per 40 000
# columns at 8192 against 5.7 ms here), but the finish holds about
# 17 |A|^2 bytes per column of a tile for its batched solves, besides
# about ten m x TILE blocks.
TILE = 4096

# A certified column has no abundance p_norms_i ((G lam)_i - rhs_i) below
# -CERT_TOL max(1, p_norms_i (|rhs_i| + sum_j lam_j)): the forward-error
# bound of that inner product, with |G_ij| <= 1 for unit s_i, so it grows
# with the multipliers, which points far from the simplex make large.
CERT_TOL = 1e-12


@dataclass
class DykstraConfig:
    """Run controls for dykstra_project.

    The run stops once every column is certified by the exact finish,
    or after max_sweeps sweeps. rel_tol is ignored; the certificate
    decides the stop. It is kept, with its check, so that callers that
    still pass it, and the unmix option of the same name, keep working.
    threads is how many tiles of TILE columns run at once; it never
    changes how the columns are cut, and the result is the same to the
    bit at any count. To watch a run, use dykstra_project's on_sweep.
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
    when it starts: for the first sweep, all n or those the interior
    check left, and uncertified[k - 1] for sweep k + 1. Row k describes
    that sweep over that block. elapsed_s is the cumulative time spent
    in the interior check (on sweep 1's row), the sweep kernel, the
    finish and the compaction only; the on_sweep observer runs off
    the clock, so observed runs time like plain ones. finish_s is the
    part of elapsed_s[-1] spent in the interior check and the finishes.
    uncertified is the number of columns not yet certified after the
    sweep and its finish, if one ran, which is the width of the block
    the next sweep runs on. uncertified falls at sweep 1, where the
    interior check runs, at checkpoints and on the last sweep, where the
    finish runs, so its last entry counts the columns the finish could
    not certify. When the check certifies every column, sweep 1 has
    nothing to sweep: its row reads uncertified 0. The run converged
    when no column is left uncertified (a trace with no rows has none).
    """

    elapsed_s: np.ndarray
    uncertified: np.ndarray
    finish_s: float = 0.0

    @property
    def n_sweeps(self) -> int:
        return len(self.elapsed_s)

    @property
    def converged(self) -> bool:
        return bool(self.uncertified.size == 0 or self.uncertified[-1] == 0)


def _tiles(width: int) -> list[slice]:
    return [slice(lo, lo + TILE) for lo in range(0, width, TILE)]


def _sweep_tile(
    t: SubspaceTransform,
    u: np.ndarray,
    tau: np.ndarray,
    sweep: int,
    tile: slice,
) -> None:
    """Run one sweep, in place, on the columns of u and tau in tile."""
    uv, tv = u[:, tile], tau[:, tile]
    for i in range(t.n_endmembers):
        project_intersection_geometric(t, i, uv, tv)
    if not np.all(np.isfinite(uv)):
        raise NonFinite(f"iterate became non-finite at sweep {sweep}")


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


def _rhs(t: SubspaceTransform, y0: np.ndarray) -> np.ndarray:
    """f - S y0 for the points y0 on S, in a fixed order."""
    return t.f[:, None] - _row_dot(t.s.T[:, :, None], y0)


def _cert_slack(t: SubspaceTransform, rhs: np.ndarray, gram=None, lam=None):
    """Each abundance of the multipliers lam (0 when None) plus its bound.

    rhs holds the columns' f - S y0 and gram is G = S S'. The abundances
    of y0 + S'lam are p_norms (G lam - rhs), bounded as CERT_TOL says.
    """
    slack, scale = -rhs, np.abs(rhs)
    if lam is not None:
        slack += _row_dot(gram[:, :, None], lam)
        scale += _row_dot(np.ones(len(lam)), lam)
    scale *= t.p_norms[:, None]
    np.maximum(scale, 1.0, out=scale)
    scale *= CERT_TOL
    slack *= t.p_norms[:, None]
    slack += scale
    return slack


def _interior_tile(t: SubspaceTransform, y0: np.ndarray, tile: slice):
    """Flags of the columns of y0 in tile that are their own projection.

    y0 holds points on S. A column that passes the certificate at lam = 0
    is the finish's KKT point for the empty active set.
    """
    return _cert_slack(t, _rhs(t, y0[:, tile])).min(axis=0) >= 0.0


def _finish_tile(
    t: SubspaceTransform,
    y: np.ndarray,
    u: np.ndarray,
    tau: np.ndarray,
    tile: slice,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Replace each column by its exact projection where that certifies.

    Works in place on the columns of the blocks u and tau in tile. Their
    data are the columns cols[tile] of y (tile itself when cols is
    None), which it drops onto S itself. The seed active set of a column
    is {i : tau_i > 0}, less its smallest tau_i when that is all m
    constraints. A certified column gets its KKT point in u and its
    multipliers in tau; any other column is left untouched. Returns the
    tile's certified flags. Products accumulate in a fixed order, so
    each column's result is its own, whatever the tile.
    """
    y0 = project_hyperplane(t, y[:, tile if cols is None else cols[tile]])
    u, tau = u[:, tile], tau[:, tile]
    m, k = u.shape
    gram = np.einsum("ir,jr->ij", t.s, t.s)
    rhs = _rhs(t, y0)
    act = tau > 0
    # All m constraints tight is no point of the simplex; such a seed
    # starts from its m - 1 largest multipliers instead.
    full = np.flatnonzero(act.all(axis=0))
    act[tau[:, full].argmin(axis=0), full] = False
    certified = np.zeros(k, dtype=bool)
    # The first round solves the whole tile on views of its blocks;
    # later ones solve the columns left, by index.
    todo = slice(None)
    for _ in range(3 * m):
        lam = _solve_active(gram, rhs[:, todo], act[:, todo])
        with np.errstate(invalid="ignore"):
            slack = _cert_slack(t, rhs[:, todo], gram, lam)
            good = (lam.min(axis=0) >= 0.0) & (slack.min(axis=0) >= 0.0)
        cols = np.arange(k)[todo]
        done = cols[good]
        u[:, done] = _row_dot(t.s[:, :, None], lam[:, good]) + y0[:, done]
        tau[:, done] = lam[:, good]
        certified[done] = True
        # Failing columns drop their most negative multiplier or, when
        # every multiplier is non-negative, add their most violated
        # inactive constraint, then are solved again. A column with
        # neither (it fails on an active constraint's rounding, or its
        # solve failed) stops.
        bad = ~good
        cols, lam_bad = cols[bad], lam[:, bad]
        viol = np.where(act[:, cols], np.inf, slack[:, bad])
        drop = lam_bad.min(axis=0) < 0.0
        add = ~drop & (viol.min(axis=0) < 0.0)
        act[lam_bad.argmin(axis=0)[drop], cols[drop]] = False
        act[viol.argmin(axis=0)[add], cols[add]] = True
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
        rounding; any other column is the last sweep's iterate, whose
        negative half-space slack shrinks as the sweeps go on.

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

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    run = map if executor is None else executor.map

    elapsed: list[float] = []
    uncertified: list[int] = []

    checkpoint = FIRST_CHECKPOINT
    try:
        # The interior check runs on sweep 1's clock. Until it or a
        # finish certifies a column, the swept block is u itself with a
        # full-width tau; after that it is gathered, and cols lists its
        # columns in u.
        tic = time.perf_counter()
        cols = None
        interior = np.concatenate(
            list(run(partial(_interior_tile, t, u), _tiles(n)))
        )
        if 2 * np.count_nonzero(interior) >= n:
            cols = np.flatnonzero(~interior)
        ub = u if cols is None else u[:, cols]
        tb = np.zeros_like(ub)
        clock = finish = time.perf_counter() - tic

        for sweep in range(1, cfg.max_sweeps + 1):
            tic = time.perf_counter()
            tiles = _tiles(ub.shape[1])
            certified = None
            if tiles:
                list(run(partial(_sweep_tile, t, ub, tb, sweep), tiles))
                if sweep == checkpoint or sweep == cfg.max_sweeps:
                    checkpoint *= 2
                    mid = time.perf_counter()
                    certified = np.concatenate(list(run(
                        partial(_finish_tile, t, y, ub, tb, cols=cols), tiles
                    )))
                    finish += time.perf_counter() - mid
            if cols is not None:
                u[:, cols] = ub
            if certified is not None and certified.any():
                keep = np.flatnonzero(~certified)
                cols = keep if cols is None else cols[keep]
                # One block at a time, so that only one gathered copy
                # lives beside the blocks it replaces.
                ub = ub[:, keep]
                tb = tb[:, keep]
            clock += time.perf_counter() - tic

            elapsed.append(clock)
            uncertified.append(ub.shape[1])
            if on_sweep is not None:
                on_sweep(sweep, u_seen)

            if ub.shape[1] == 0:
                break
    finally:
        if executor is not None:
            executor.shutdown()

    trace = DykstraTrace(
        elapsed_s=np.asarray(elapsed),
        uncertified=np.asarray(uncertified, dtype=np.int64),
        finish_s=finish,
    )
    return u, trace
