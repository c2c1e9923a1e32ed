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

Y is first dropped onto S, giving Y0. The limit is unchanged (the
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
Heinz & Chang 2001). Before sweep 1 the driver forms rhs = f - S Y0 in
one pass over Y, as f - S Y (each s_i is orthogonal to b), and checks
the abundances a0 = p_norms o (-rhs) of Y0 against the finish's
certificate at lam = 0, below, which passes a column iff no a0_i is
below -CERT_TOL. If at least half of the columns pass, a0 is final for
them, with the finish's bits, and the rest are gathered into the block
that is swept; otherwise every column is swept. The half keeps the
gathered rhs and tau no larger than the full-width tau.

The sweeps converge only geometrically, but tau names each pixel's
active set A = {i : tau_i > 0} long before U settles. At checkpoint
sweeps (FIRST_CHECKPOINT, then every doubling of it), and on the sweep
that ends the run, the driver tries the exact KKT point of every
uncertified pixel: it solves the equality-constrained projection

    U = Y0 + S_A' lam,   (S_A S_A') lam = f_A - S_A Y0,

with one |A| x |A| system per pixel, the pixels of one |A| solved as a
batch (as FC-NNLS groups them). The certificate reads the abundances off
the multipliers, a = p_norms o (G lam - rhs) with G = S S' and
rhs = f - S Y0: abundance i is d_i'U = p_norms_i (s_i'U - f_i). A column
passes when lam >= 0 and no a_i is below
-CERT_TOL max(1, p_norms_i (|rhs_i| + sum_j lam_j)), the rounding bound
of a_i's inner product (Higham 2002, sec. 3.1), as |G_ij| <= 1 for unit
s_i. These are the projection's KKT conditions, so a passing column's
a is the projection's abundances up to rounding. A column that fails
gets up to 3m drop/add rounds on its active set (the active-set method
of FCLS); if it still fails, it goes back to sweeping with its tau
unchanged. Certified columns leave the sweep: after each finish the
rest are gathered into a dense block, and the sweep runs on that block
only. The run stops when every column is certified, or after
max_sweeps sweeps; only the first counts as converged. A run is never
stopped because its iterate stopped changing: that says nothing of how
far the iterate is from the projection.

dykstra_project returns abundances, not points of the subspace, and a
certified column's output is bit for bit what its certificate passed:
_abundances of the multipliers of the columns each finish certifies
(and, at the sweep budget, of the rest), or its bits at lam = 0 from
_at_lam_zero for the interior check's. There is no second pass over Y
and no map back through D^{-1}, whose condition number would amplify
the rounding of a point that is exact in the subspace.

dykstra_project's m x n state is the output a and tau. The interior
check writes rhs into a, in the only read of Y in a run. That is the
swept block, unless the check certified at least half of the columns:
then the rest are gathered first, and one pass turns all of a into
abundances at lam = 0, which later writes replace for the gathered
columns. cols maps block columns to columns of a. A watched run also
holds the observer's U = D a: from a0 in the interior check, and after
each sweep, off the trace clock, from the block's rhs and multipliers.
The m x m products (S Y, G lam and D a) go through
subspace._block_product; the sweep's row products keep _row_dot's order.

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
from .projectors import project_intersection_dual
# perfbench's tracer records its projectors.hyperplane span at this name,
# which no step of the driver calls any more: the span reads 0.
from .projectors import project_hyperplane  # noqa: F401
from .subspace import SubspaceTransform, _block_product

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
    in the interior check (on sweep 1's row), the sweep kernel, the
    finish (with the abundances of the columns it certifies) and the
    compaction only. The sweep budget's write of the uncertified
    columns, a watched run's U (but for its interior check's D a0) and
    the on_sweep observer are off the clock.
    finish_s is the part of elapsed_s[-1] spent in the interior check
    and the finishes.
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


def _rhs(t: SubspaceTransform, y: np.ndarray, out=None) -> np.ndarray:
    """f - S y0 for y0 the drop of y onto S, as f - S y, into out if given."""
    return np.subtract(t.f[:, None], _block_product(t.s, y), out=out)


def _at_lam_zero(t: SubspaceTransform, rhs: np.ndarray, out=None):
    """_abundances' bits at lam = 0, p_norms o (-rhs), into out if given."""
    return np.multiply(rhs, -t.p_norms[:, None], out=out)


def _abundances(t: SubspaceTransform, rhs: np.ndarray, lam: np.ndarray):
    """The abundances p_norms o (G lam - rhs) of y0 + S'lam.

    rhs holds the columns' f - S y0. The certificate checks these values
    and dykstra_project outputs them, so they are computed here alone.
    """
    a = _block_product(t.gram, lam)
    a -= rhs
    a *= t.p_norms[:, None]
    return a


def _cert_slack(t: SubspaceTransform, rhs: np.ndarray, lam: np.ndarray):
    """Each abundance of the multipliers lam plus its bound, as CERT_TOL
    says; rhs holds the columns' f - S y0, and lam is summed in row order.
    """
    total = lam[0].copy()
    for row in lam[1:]:
        total += row
    scale = np.abs(rhs)
    scale += total
    scale *= t.p_norms[:, None]
    np.maximum(scale, 1.0, out=scale)
    scale *= CERT_TOL
    slack = _abundances(t, rhs, lam)
    slack += scale
    return slack


def _write_tile(t, a, rhs, lam, cols, pick, tile):
    """Write the abundances of the block columns pick[tile] into a, or of
    those in tile when pick is None.

    rhs and lam hold the block's f - S y0 and multipliers; block column
    j is column cols[j] of a. Gathers one tile, so its temporaries are
    bounded by it.
    """
    where = tile if pick is None else pick[tile]
    a[:, cols[where]] = _abundances(t, rhs[:, where], lam[:, where])


def _observe_tile(t: SubspaceTransform, rhs, lam, u, cols, tile) -> None:
    """Write U = D a of the block columns in tile into u's columns."""
    a = _abundances(t, rhs[:, tile], lam[:, tile])
    u[:, cols[tile]] = _block_product(t.d, a)


def _interior_tile(t: SubspaceTransform, y, a, u, tile: slice):
    """Write f - S Y0 of the columns in tile into a, and flag those whose
    abundances a0 pass at lam = 0; U = D a0 goes into u, unless u is None."""
    a0 = _at_lam_zero(t, _rhs(t, y[:, tile], out=a[:, tile]))
    if u is not None:
        _block_product(t.d, a0, out=u[:, tile])
    return a0.min(axis=0) >= -CERT_TOL


def _write_interior_tile(t: SubspaceTransform, a, tile) -> None:
    """Turn f - S Y0 in a's tile into abundances at lam = 0, final for the
    columns the interior check certified (module docstring)."""
    _at_lam_zero(t, a[:, tile], out=a[:, tile])


def _finish_tile(
    t: SubspaceTransform, rhs: np.ndarray, tau: np.ndarray, tile: slice
) -> np.ndarray:
    """Certify what columns of the block it can, by their exact multipliers.

    Works on the columns in tile of the block's rhs (f - S y0) and
    multipliers tau. The seed active set of a column is {i : tau_i > 0},
    less its smallest tau_i when that is all m constraints. A certified
    column gets its KKT multipliers lam in tau, and the driver then
    writes its abundances with _write_tile; any other column is left
    untouched, and rhs is only read. Returns the tile's certified flags. Each
    column's result is its own, whatever the tile.
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
    return certified


def dykstra_project(
    t: SubspaceTransform,
    y: np.ndarray,
    cfg: DykstraConfig | None = None,
    on_sweep=None,
) -> tuple[np.ndarray, DykstraTrace]:
    """Project every column of Y onto the transformed feasible set, and
    return the projections' abundances.

    Parameters
    ----------
    t : SubspaceTransform
    y : np.ndarray
        Transformed observations, m x n, in any layout; read once and
        never copied.
    cfg : DykstraConfig, optional
    on_sweep : callable, optional
        Called as on_sweep(sweep, u) after each of sweeps 1..n, off the
        trace clock. u is a read-only view of the live m x n iterate in
        the subspace, certified columns included, the same array on
        every call: it changes as the run goes on, so copy it to keep an
        iterate, and writing into it raises ValueError. A column's u is
        D a: of the a0 of the interior check if that made it final,
        else of the abundances of its multipliers after the last sweep
        it was in.
        An exception from on_sweep ends the run and propagates.

    Returns
    -------
    (a_hat, trace)
        a_hat is m x n, each column a = p_norms o (G lam - rhs) of its
        multipliers, so its sum is 1 to rounding. A certified column is
        what its certificate passed: the abundances of the exact
        projection to rounding. Any other column is that of the last
        sweep's multipliers, whose negative abundances shrink as the
        sweeps go on.

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

    a = np.empty((m, n))
    u = None
    if on_sweep is not None:
        u = np.empty((m, n))
        u_seen = u.view()
        u_seen.flags.writeable = False

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    run = map if executor is None else executor.map

    elapsed: list[float] = []
    uncertified: list[int] = []

    checkpoint = FIRST_CHECKPOINT
    try:
        # The interior check runs on sweep 1's clock and leaves f - S Y0
        # in a, the swept block's rhs until it or a finish certifies a
        # column; after that the block is gathered.
        tic = time.perf_counter()
        interior = np.concatenate(
            list(run(partial(_interior_tile, t, y, a, u), _tiles(n)))
        )
        if 2 * np.count_nonzero(interior) >= n:
            cols = np.flatnonzero(~interior)
            rb = a.take(cols, axis=1)
            list(run(partial(_write_interior_tile, t, a), _tiles(n)))
        else:
            cols = np.arange(n)
            rb = a
        finish = time.perf_counter() - tic
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
                    certified = np.concatenate(list(run(
                        partial(_finish_tile, t, rb, tb), tiles
                    )))
                    finish += time.perf_counter() - mid
            clock += time.perf_counter() - tic
            if u is not None:
                # The observer's U, off the clock, before the certified
                # writes, which overwrite their rhs when rb is a.
                list(run(partial(_observe_tile, t, rb, tb, u, cols), tiles))
            tic = time.perf_counter()
            if certified is not None and certified.any():
                done = np.flatnonzero(certified)
                list(run(partial(_write_tile, t, a, rb, tb, cols, done),
                         _tiles(done.size)))
                finish += time.perf_counter() - tic
                keep = np.flatnonzero(~certified)
                cols = cols[keep]
                # One block at a time, so that only one gathered copy
                # lives beside the blocks it replaces. take, unlike
                # rb[:, keep], gathers into C order, whose rows the
                # sweep reads without a stride.
                rb = rb.take(keep, axis=1)
                tb = tb.take(keep, axis=1)
            clock += time.perf_counter() - tic
            if sweep == cfg.max_sweeps:
                # The uncertified columns get the abundances of their tau.
                list(run(partial(_write_tile, t, a, rb, tb, cols, None),
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
    return a, trace
