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
Hildreth's dual coordinate ascent, which keeps U = Y0 + S'tau, with S
the m x m array of rows s_i. With G = S S' and rhs = f - S Y0, the
step on N_i reads s_i'U = f_i - rhs_i + (G tau)_i, so the sweep needs
only tau and rhs:

    for i = 1..m:
        tau_i <- max(0, rhs_i + tau_i - (G tau)_i)

which is m row operations per constraint where carrying U makes 2m.

Many pixels need no sweep at all: when every abundance of Y0 is
non-negative, Y0 is already the projection (the first step of FCLS,
Heinz & Chang 2001). Before sweep 1 the driver checks every column of
Y0 against the finish's certificate, below, with no constraint active
(lam = 0). If at least half of the columns pass, they are final, with
the bits the finish would give them, and the rest are gathered into the
block that is swept; otherwise the check certifies none, and every
column is swept. The half keeps the gathered rhs and tau no larger than
the full-width tau they replace.

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
U = Y0 + S'lam is the projection up to rounding. A column that fails
gets up to 3m drop/add rounds on its active set (the active-set method
of FCLS); if it still fails, it goes back to sweeping with its tau
unchanged. Certified columns leave the sweep: after each finish the
rest are gathered into a dense block, and the sweep runs on that block
only. The run stops when every column is certified, or after
max_sweeps sweeps; only the first counts as converged. A run is never
stopped because its iterate stopped changing: that says nothing of how
far the iterate is from the projection.

The driver's m x n state is tau and one block, which holds Y0 at
first, then rhs for the columns still swept and U for the others.
U = Y0 + S'tau is formed only for the columns the finish certifies,
for the columns it did not once the sweep budget is spent, and after
every sweep of a watched run; it drops the columns of Y onto S again,
read in place through the list of the block's columns, so Y is never
copied and no Y0 is kept beside rhs. The m x m products (S Y0, G lam and
S'tau) go through projectors._block_product; the sweep's row products
keep _row_dot's fixed order.

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
    _block_product,
    _row_dot,
    project_hyperplane,
    project_intersection_dual,
)
from .subspace import SubspaceTransform

# The sweep's kernel, bound to the name of the step on U that it
# replaced: perfbench's tracer times the sweep kernel at
# sudap.dykstra.project_intersection_geometric.
project_intersection_geometric = project_intersection_dual

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
# make fewer kernel calls and sweep faster (m=10: 4.3 ms per 40 000
# columns at 8192 against 5.4 ms here), but the finish holds about
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
    in the interior check with the drop onto S that it reads (on sweep
    1's row), the sweep kernel, the finish and the compaction only.
    Forming U of the columns still uncertified, after every sweep of a
    watched run and at the sweep budget, and the on_sweep observer run
    off the clock, so watched runs time like plain ones. finish_s is the
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
    rhs: np.ndarray,
    tau: np.ndarray,
    sweep: int,
    tile: slice,
) -> None:
    """Run one sweep, in place, on the multipliers tau in tile.

    rhs holds the same columns' f - S y0. Each step is Hildreth's on the
    multipliers alone, tau_i <- max(0, rhs_i + tau_i - (G tau)_i), so
    the iterate y0 + S'tau is never formed; a non-finite tau means a
    non-finite iterate.
    """
    rv, tv = rhs[:, tile], tau[:, tile]
    for i in range(t.n_endmembers):
        project_intersection_geometric(t, i, rv, tv)
    if not np.all(np.isfinite(tv)):
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
    """f - S y0 for the points y0 on S."""
    return t.f[:, None] - _block_product(t.s, y0)


def _to_rhs(t: SubspaceTransform, y0: np.ndarray, tile: slice) -> None:
    """Overwrite the points y0 on S in tile with their f - S y0."""
    y0[:, tile] = _rhs(t, y0[:, tile])


def _form_u(t: SubspaceTransform, y: np.ndarray, tau: np.ndarray):
    """U = Y0 + S'tau for the data y and their multipliers tau."""
    u = project_hyperplane(t, y)
    u += _block_product(t.s.T, tau)
    return u


def _form_tile(t, y, u, tau, tile, cols=None):
    """Write U of the block's columns in tile into their columns of u.

    tau is the block's multipliers; the block's columns are cols[tile]
    of y and u (tile itself when cols is None).
    """
    where = tile if cols is None else cols[tile]
    u[:, where] = _form_u(t, y[:, where], tau[:, tile])


def _cert_slack(t: SubspaceTransform, rhs: np.ndarray, lam=None):
    """Each abundance of the multipliers lam (0 when None) plus its bound.

    rhs holds the columns' f - S y0. The abundances of y0 + S'lam are
    p_norms (G lam - rhs), bounded as CERT_TOL says.
    """
    slack, scale = -rhs, np.abs(rhs)
    if lam is not None:
        slack += _block_product(t.gram, lam)
        scale += _row_dot(np.ones(len(lam)), lam)
    scale *= t.p_norms[:, None]
    np.maximum(scale, 1.0, out=scale)
    scale *= CERT_TOL
    slack *= t.p_norms[:, None]
    slack += scale
    return slack


def _interior_tile(
    t: SubspaceTransform, y: np.ndarray, u: np.ndarray, tile: slice
):
    """Write Y0 = P(Y) of the columns in tile into u and flag those that
    are their own projection.

    A column whose Y0 passes the certificate at lam = 0 is the finish's
    KKT point for the empty active set.
    """
    u[:, tile] = project_hyperplane(t, y[:, tile])
    return _cert_slack(t, _rhs(t, u[:, tile])).min(axis=0) >= 0.0


def _finish_tile(
    t: SubspaceTransform,
    y: np.ndarray,
    u: np.ndarray,
    rhs: np.ndarray,
    tau: np.ndarray,
    tile: slice,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Certify what columns of the block it can, with their exact projection.

    Works on the columns in tile of the block's rhs (f - S y0) and
    multipliers tau, whose data are the columns cols[tile] of y (tile
    itself when cols is None). The seed active set of a column is
    {i : tau_i > 0}, less its smallest tau_i when that is all m
    constraints. A certified column gets its multipliers in tau and its
    KKT point y0 + S'lam in its column of u; any other column is left
    untouched, and rhs is only read. Returns the tile's certified flags.
    Each column's result is its own, whatever the tile.
    """
    rhs, tau = rhs[:, tile], tau[:, tile]
    m, k = tau.shape
    act = tau > 0
    # All m constraints tight is no point of the simplex; such a seed
    # starts from its m - 1 largest multipliers instead.
    full = np.flatnonzero(act.all(axis=0))
    act[tau[:, full].argmin(axis=0), full] = False
    certified = np.zeros(k, dtype=bool)
    # The first round solves the whole tile on views of its blocks;
    # later ones solve the columns left, by index.
    whole = todo = slice(None)
    for _ in range(3 * m):
        lam = _solve_active(t.gram, rhs[:, todo], act[:, todo])
        with np.errstate(invalid="ignore"):
            slack = _cert_slack(t, rhs[:, todo], lam)
            good = (lam.min(axis=0) >= 0.0) & (slack.min(axis=0) >= 0.0)
        if todo is whole and good.all():
            tau[...] = lam
            certified[...] = True
            break
        idx = np.arange(k)[todo]
        done = idx[good]
        tau[:, done] = lam[:, good]
        certified[done] = True
        # Failing columns drop their most negative multiplier or, when
        # every multiplier is non-negative, add their most violated
        # inactive constraint, then are solved again. A column with
        # neither (it fails on an active constraint's rounding, or its
        # solve failed) stops.
        bad = ~good
        idx, lam_bad = idx[bad], lam[:, bad]
        viol = np.where(act[:, idx], np.inf, slack[:, bad])
        drop = lam_bad.min(axis=0) < 0.0
        add = ~drop & (viol.min(axis=0) < 0.0)
        act[lam_bad.argmin(axis=0)[drop], idx[drop]] = False
        act[viol.argmin(axis=0)[add], idx[add]] = True
        todo = idx[drop | add]
        if todo.size == 0:
            break
    # A tile certified whole is written by slice when it can be.
    where = tile if cols is None else cols[tile]
    if not certified.all():
        where = np.arange(u.shape[1])[where][certified]
        tau = tau[:, certified]
    if certified.any():
        u[:, where] = _form_u(t, y[:, where], tau)
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

    u = np.empty((m, n))
    u_seen = u.view()
    u_seen.flags.writeable = False

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    run = map if executor is None else executor.map

    elapsed: list[float] = []
    uncertified: list[int] = []

    checkpoint = FIRST_CHECKPOINT
    try:
        # The interior check, with the drop onto S that it reads, runs
        # on sweep 1's clock. Until it or a finish certifies a column,
        # the swept block's rhs is u itself (a copy of it in a watched
        # run, whose u shows every sweep's iterate), with a full-width
        # tau; after that it is gathered, and cols lists its columns in u.
        tic = time.perf_counter()
        cols = None
        interior = np.concatenate(
            list(run(partial(_interior_tile, t, y, u), _tiles(n)))
        )
        if 2 * np.count_nonzero(interior) >= n:
            cols = np.flatnonzero(~interior)
        finish = time.perf_counter() - tic
        if cols is not None:
            rb = u.take(cols, axis=1)
        else:
            rb = u if on_sweep is None else u.copy()
        list(run(partial(_to_rhs, t, rb), _tiles(rb.shape[1])))
        tb = np.zeros_like(rb)
        clock = time.perf_counter() - tic

        for sweep in range(1, cfg.max_sweeps + 1):
            tic = time.perf_counter()
            tiles = _tiles(rb.shape[1])
            certified = None
            if tiles:
                list(run(partial(_sweep_tile, t, rb, tb, sweep), tiles))
                if sweep == checkpoint or sweep == cfg.max_sweeps:
                    checkpoint *= 2
                    mid = time.perf_counter()
                    certified = np.concatenate(list(run(partial(
                        _finish_tile, t, y, u, rb, tb, cols=cols
                    ), tiles)))
                    finish += time.perf_counter() - mid
            if certified is not None and certified.any():
                keep = np.flatnonzero(~certified)
                cols = keep if cols is None else cols[keep]
                # One block at a time, so that only one gathered copy
                # lives beside the blocks it replaces. take, unlike
                # rb[:, keep], gathers into C order, whose rows the
                # sweep reads without a stride.
                rb = rb.take(keep, axis=1)
                tb = tb.take(keep, axis=1)
            clock += time.perf_counter() - tic
            if on_sweep is not None or sweep == cfg.max_sweeps:
                # The columns still uncertified get U = Y0 + S'tau in u.
                list(run(partial(_form_tile, t, y, u, tb, cols=cols),
                         _tiles(rb.shape[1])))

            elapsed.append(clock)
            uncertified.append(rb.shape[1])
            if on_sweep is not None:
                on_sweep(sweep, u_seen)

            if rb.shape[1] == 0:
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
