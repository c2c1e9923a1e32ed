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
below -CERT_TOL. a0 is final for the columns that pass. If at least
half of them pass, the rest are gathered into the block that is swept;
otherwise every column is swept, and the first finish certifies the
passed ones at lam = 0. The half keeps the gathered rhs and tau no
larger than the full-width tau.

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
(the last finish writes the rest from their tau), or its bits at
lam = 0 from _at_lam_zero for the interior check's. There is no second
pass over Y and no map back through D^{-1}, whose condition number
would amplify the rounding of a point that is exact in the subspace.

dykstra_project works through the columns in chunks, one chunk after
another, and each chunk runs the interior check, the sweeps and the
finishes on its own columns (_project_chunk), so its state is a chunk's
and not n's. A chunk is as many whole tiles as CHUNK_BYTES holds of its
m x c abundances, so its state is bounded in bytes whatever m is. All
chunks take their blocks of Y from one stream, and the transform is
built once, by the caller.
A chunk's state is its output a and tau; Y itself need not be held. The
interior check reads the chunk's columns of Y once, block by block of
TILE columns, as the forward map forms them (subspace.ForwardMap) or as
views of a held Y, and writes each block's rhs into its columns of a:
no other step reads Y. a is the swept block, unless the check
certified at least half of the chunk's columns: then the rest are
gathered first, and one pass turns all of a into abundances at
lam = 0, which later writes replace for the gathered columns. cols
maps block columns to columns of a. The chunk's abundances then go to
the caller's sink, if it gave one, before the next chunk's columns of
Y are read, and the next chunk reuses a's buffer; without a sink, each
chunk's a is a view of the m x n output. A watched run is one chunk,
and also holds the observer's U = D a: from a0 in that pass, and after
each sweep, off the trace clock, from the block's rhs and multipliers,
which are 0 for the columns the check passed on either route.
Every product with a block of columns (S Y, G lam, D a, the sweep's
rows of G tau, the certificate's sum of lam) goes through
subspace._block_product, on blocks with contiguous rows.

The objective needs no held Y either. A column's output is the
abundances of U = Y0 + S'lam (lam = 0 for the interior check's
columns), and Y - Y0 lies along b while S'lam lies in S, so

    |Y - U|^2 = (b'y - 1)^2 / |b|^2 + lam'G lam.

The interior check adds |Y|^2 and the first term block by block, and
each finish's write (with lam = tau for the columns the last one does
not certify) adds the second; the trace carries both sums, and
|X - EA|^2 = max(|X|^2 - |Y|^2, 0) + |Y - U|^2 (solver.solve_sudap).

Columns never interact: each pixel's trajectory, and whether and when it
is certified, depends only on the transform and its own data. So the
driver cuts the block into tiles of TILE columns, whatever the thread
count. The interior check runs on them in order, as Y's blocks arrive;
the sweep with its finiteness scan, the finish and the writes run on as
many tiles at once as there are threads. Each of them does each
column's arithmetic on its own, and the tiles' flags and partial sums
are joined in tile order, and the chunks' traces in chunk order
(_join), so the result, the trace and its sums are the same to the bit
at every thread count, and a column's result depends on neither its
tile nor its chunk, nor on which route its chunk takes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import islice

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

# dykstra_project solves the columns in chunks, one chunk after another,
# so that its state is bounded by a chunk and not by n. A chunk is the
# most whole tiles whose m x c block of abundances, 8 m c bytes, fits in
# CHUNK_BYTES, and at least one tile: 9 tiles at m = 5, 4 at m = 10, 3 at
# m = 14 and 2 at m = 20. So a chunk's state does not grow with m. Each
# chunk pays for sweeping and finishing its own narrow block of swept
# columns, mostly in the per-call cost of the sweep's row products and of
# the finish's rounds. Solving a 40 000-pixel m = 10 cube file (a Xeon,
# OpenBLAS at one thread, one pinned CPU, medians of 30-40 alternated
# runs) took 27.9 ms in one chunk, 29.5 in three (this bound) and 31.3
# in five, and a 102 400-pixel m = 5 one 46.7, 48.1 in three and 50.4 in
# seven: 0.5-0.9 ms a chunk. unmix peaked at 5.6 and 5.7 MB in one chunk,
# and at 3.8 and 3.0 MB in chunks of this bound (tracemalloc).
CHUNK_BYTES = 3 << 19  # 1.5 MiB

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
    finish (with every abundance it writes, on the last sweep too) and
    the compaction only. A watched run's U (but for the interior check's
    final D a0) and the on_sweep observer are off the clock.
    finish_s is the part of elapsed_s[-1] spent in the interior check
    and the finishes. source_s is the time spent waiting for Y's
    blocks, which is not in elapsed_s: the forward map (with the read of
    the cube's file) when Y comes as a source, next to nothing for an
    array. sink_s is the time dykstra_project's sink took with the
    chunks' abundances, which is not in elapsed_s either. y_sq is
    |Y|_F^2 and residual_sq is |Y - D A|_F^2 for the output A, each
    summed in tile order within a chunk and in chunk order
    (dykstra_project).
    uncertified is the number of columns not yet certified after the
    sweep and its finish, if one ran, which is the width of the block
    the next sweep runs on. uncertified falls at sweep 1, where the
    interior check runs, at checkpoints and on the last sweep, where the
    finish runs, so its last entry counts the columns the finish could
    not certify. When the check certifies every column, sweep 1 has
    nothing to sweep: its row reads uncertified 0. The run converged
    when no column is left uncertified (a trace with no rows has none).
    In a run of several chunks, row k sums the chunks' rows k, and
    elapsed_s and uncertified keep that reading (_join).
    """

    elapsed_s: np.ndarray
    uncertified: np.ndarray
    finish_s: float = 0.0
    source_s: float = 0.0
    y_sq: float = 0.0
    residual_sq: float = 0.0
    sink_s: float = 0.0

    @property
    def n_sweeps(self) -> int:
        return len(self.elapsed_s)

    @property
    def converged(self) -> bool:
        return bool(self.uncertified.size == 0 or self.uncertified[-1] == 0)


def _tiles(width: int) -> list[slice]:
    return [slice(lo, lo + TILE) for lo in range(0, width, TILE)]


def _gather(block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """block[:, cols] as a new C-ordered block, whose rows the sweep reads
    without a stride. Row by row: take along axis 1 would first copy a
    block that is not C-contiguous, such as a chunk's view of the output,
    whole. The indices are in range, and mode "clip" writes each row in
    place."""
    out = np.empty((block.shape[0], cols.size))
    for row, dst in zip(block, out):
        row.take(cols, out=dst, mode="clip")
    return out


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
    # The step leaves every tau_i in [0, inf] or NaN, and the max keeps
    # a NaN, so a finite max is a finite tau.
    if not np.isfinite(tv.max()):
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
    """_abundances' bits at lam = 0, p_norms o (0 - rhs), into out if
    given: G 0 - rhs is +0, not -0, where rhs is 0."""
    a = np.subtract(0.0, rhs, out=out)
    return np.multiply(a, t.p_norms[:, None], out=a)


def _abundances(t: SubspaceTransform, rhs: np.ndarray, glam: np.ndarray):
    """The abundances p_norms o (G lam - rhs) of y0 + S'lam, written over
    glam, which holds _block_product(t.gram, lam).

    rhs holds the columns' f - S y0. The certificate checks these values
    and dykstra_project outputs them, so they are computed here alone.
    """
    glam -= rhs
    glam *= t.p_norms[:, None]
    return glam


def _cert_slack(t: SubspaceTransform, rhs: np.ndarray, lam: np.ndarray):
    """Each abundance of the multipliers lam plus its bound, as CERT_TOL
    says; rhs holds the columns' f - S y0. sum_j lam_j is a one-row
    _block_product, so each column's bits are its own on C-ordered lam.
    """
    scale = np.abs(rhs)
    scale += _block_product(np.ones((1, t.n_endmembers)), lam)[0]
    scale *= t.p_norms[:, None]
    np.maximum(scale, 1.0, out=scale)
    scale *= CERT_TOL
    slack = _abundances(t, rhs, _block_product(t.gram, lam))
    slack += scale
    return slack


def _write_tile(t, a, rhs, lam, cols, pick, tile) -> float:
    """Write the abundances of the block columns pick[tile] into a, and
    return their sum of lam'G lam.

    rhs and lam hold the block's f - S y0 and multipliers; block column
    j is column cols[j] of a. Gathers one tile, so its temporaries are
    bounded by it. lam'G lam = |S'lam|^2 is |U - Y0|^2 for the column's
    point U = Y0 + S'lam (dykstra_project). G lam is formed once, for
    both.
    """
    where = pick[tile]
    lam = lam[:, where]
    glam = _block_product(t.gram, lam)
    lam_g_lam = float(np.einsum("ij,ij->", lam, glam))
    a[:, cols[where]] = _abundances(t, rhs[:, where], glam)
    return lam_g_lam


def _observe_tile(t, rhs, lam, u, cols, passed, tile) -> None:
    """Write U = D a of the block columns in tile into u's columns, from
    lam = 0 for those flagged in passed."""
    lam = np.where(passed[tile], 0.0, lam[:, tile])
    a = _abundances(t, rhs[:, tile], _block_product(t.gram, lam))
    u[:, cols[tile]] = _block_product(t.d, a)


def _interior_tile(t: SubspaceTransform, y, a):
    """Write f - S Y0 of the Y columns y into a, and flag those whose
    abundances a0 = -(p_norms o rhs) pass at lam = 0.

    Also returns the columns' |Y|^2 and sum of (b'y - 1)^2, which is
    |b|^2 |Y - Y0|^2, for the objective (dykstra_project).
    """
    rhs = _rhs(t, y, out=a)
    off = t.b @ y
    off -= 1.0
    return (np.multiply(rhs, t.p_norms[:, None]).max(axis=0) <= CERT_TOL,
            float(np.einsum("ij,ij->", y, y)), float(off @ off))


def _write_interior_tile(t: SubspaceTransform, a, u, tile) -> None:
    """Turn f - S Y0 in a's tile into abundances at lam = 0, final for the
    columns the interior check certified (module docstring), and a
    watched run's U = D a0 into u."""
    a0 = _at_lam_zero(t, a[:, tile], out=a[:, tile])
    if u is not None:
        _block_product(t.d, a0, out=u[:, tile])


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
        idx = np.arange(k)[todo]
        if todo is whole:
            # Most columns pass in the first round, and a masked copy
            # writes them several times faster than a scatter by index.
            np.copyto(tau, lam, where=good)
            certified[...] = good
            if good.all():
                break
        else:
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


def _project_chunk(t, blocks, a, cfg, run, u, watch) -> DykstraTrace:
    """Project the columns of Y in the blocks of the iterator blocks, as
    many as a has, and leave their abundances in a; return the chunk's
    trace.

    u is a watched run's U, whose columns are the chunk's, and watch(sweep)
    calls its observer; both are None in an unwatched run.
    """
    n = a.shape[1]
    elapsed: list[float] = []
    uncertified: list[int] = []
    source = 0.0

    checkpoint = FIRST_CHECKPOINT
    # The interior check runs on sweep 1's clock, less the wait for Y's
    # blocks, and leaves f - S Y0 in a, the swept block's rhs until it or
    # a finish certifies a column; after that the block is gathered.
    tic = time.perf_counter()
    flags, y_sq, off_sq, lo = [], 0.0, 0.0, 0
    while True:
        mark = time.perf_counter()
        block = next(blocks, None)
        source += time.perf_counter() - mark
        if block is None:
            break
        hi = lo + block.shape[1]
        ok, sq, off = _interior_tile(t, block, a[:, lo:hi])
        flags.append(ok)
        y_sq += sq
        off_sq += off
        lo = hi
    interior = np.concatenate(flags)
    residual_sq = off_sq / float(t.b @ t.b)
    if 2 * np.count_nonzero(interior) >= n:
        cols = np.flatnonzero(~interior)
        rb = _gather(a, cols)
        list(run(partial(_write_interior_tile, t, a, u), _tiles(n)))
    else:
        cols = np.arange(n)
        rb = a
    finish = time.perf_counter() - tic - source
    tb = np.zeros_like(rb)
    clock = time.perf_counter() - tic - source

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
                if rb is a:
                    # Every column was swept; those the check passed
                    # output a0 all the same, from lam = 0.
                    certified |= interior
                    tb[:, interior] = 0.0
                finish += time.perf_counter() - mid
        clock += time.perf_counter() - tic
        if u is not None:
            # The observer's U, off the clock, before the certified
            # writes, which overwrite their rhs when rb is a. Every
            # column the check passed shows its a0, as when gathered.
            list(run(partial(_observe_tile, t, rb, tb, u, cols,
                             interior[cols]), tiles))
        tic = time.perf_counter()
        if certified is not None:
            # The certified columns get the abundances of their lam
            # and, on the last sweep, the rest those of their tau.
            pick = (np.arange(certified.size) if sweep == cfg.max_sweeps
                    else np.flatnonzero(certified))
            residual_sq += sum(run(
                partial(_write_tile, t, a, rb, tb, cols, pick),
                _tiles(pick.size),
            ))
            finish += time.perf_counter() - tic
            if certified.any():
                keep = np.flatnonzero(~certified)
                cols = cols[keep]
                # One block at a time, so that only one gathered copy
                # lives beside the blocks it replaces.
                rb = _gather(rb, keep)
                tb = _gather(tb, keep)
        clock += time.perf_counter() - tic

        elapsed.append(clock)
        uncertified.append(rb.shape[1])
        if watch is not None:
            watch(sweep)

        if rb.shape[1] == 0:
            break

    return DykstraTrace(
        elapsed_s=np.asarray(elapsed),
        uncertified=np.asarray(uncertified, dtype=np.int64),
        finish_s=finish,
        source_s=source,
        y_sq=y_sq,
        residual_sq=residual_sq,
    )


def _join(traces: list, sink_s: float) -> DykstraTrace:
    """The trace of chunks run one after another, from theirs.

    Row k sums the chunks' rows k. A chunk stops early only when it has
    no column left uncertified, so it adds its last elapsed_s and no
    uncertified column to the rows after its last. The times and sums
    are summed in chunk order. One chunk's trace is returned as it is,
    to the bit, with sink_s.
    """
    rows = max(trace.n_sweeps for trace in traces)
    elapsed = np.zeros(rows)
    uncertified = np.zeros(rows, dtype=np.int64)
    for trace in traces:
        k = trace.n_sweeps
        elapsed[:k] += trace.elapsed_s
        elapsed[k:] += trace.elapsed_s[-1]
        uncertified[:k] += trace.uncertified
    return DykstraTrace(
        elapsed_s=elapsed,
        uncertified=uncertified,
        finish_s=sum(trace.finish_s for trace in traces),
        source_s=sum(trace.source_s for trace in traces),
        y_sq=sum(trace.y_sq for trace in traces),
        residual_sq=sum(trace.residual_sq for trace in traces),
        sink_s=sink_s,
    )


def dykstra_project(
    t: SubspaceTransform,
    y,
    cfg: DykstraConfig | None = None,
    on_sweep=None,
    sink=None,
) -> tuple[np.ndarray | None, DykstraTrace]:
    """Project every column of Y onto the transformed feasible set, and
    return the projections' abundances.

    The columns are projected in chunks of whole tiles, as many as
    CHUNK_BYTES holds of their m x c abundances, one chunk after
    another, and a watched run in one chunk (module docstring).

    Parameters
    ----------
    t : SubspaceTransform
    y : np.ndarray or source
        Transformed observations, m x n: an array in any layout, read
        once, by views of TILE columns, and never copied; or a source
        of them with n_pixels and tiles(width), as subspace.ForwardMap
        gives, which is asked for blocks of TILE columns and read once.
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
    sink : callable, optional
        Called as sink(a) with each chunk's abundances, m x c, in column
        order, before the next chunk's columns of Y are read. a is
        valid only during the call: the next chunk is written into the
        same buffer. An exception from sink ends the run and propagates.

    Returns
    -------
    (a_hat, trace)
        a_hat is m x n, or None when a sink took the chunks. Each
        column is a = p_norms o (G lam - rhs) of its multipliers, so
        its sum is 1 to rounding. A certified column is what its
        certificate passed: the abundances of the exact projection to
        rounding. Any other column is that of the last sweep's
        multipliers, whose negative abundances shrink as the sweeps go
        on. trace.y_sq and trace.residual_sq are |Y|^2 and
        |Y - D a_hat|^2, summed in tile order (module docstring).

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
    m = t.n_endmembers
    if hasattr(y, "tiles"):
        n, blocks = y.n_pixels, y.tiles(TILE)
    else:
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[0] != m:
            raise ShapeMismatch(
                f"expected a {m} x n coefficient block, got shape {y.shape}"
            )
        n = y.shape[1]
        blocks = (y[:, tile] for tile in _tiles(n))
    if n < 1:
        raise ShapeMismatch("need at least one column to project")

    chunk_tiles = max(1, CHUNK_BYTES // (8 * m * TILE))
    width = n if on_sweep is not None else chunk_tiles * TILE
    a_hat = u = watch = None
    if sink is None:
        a_hat = np.empty((m, n))
    else:
        buf = np.empty((m, min(width, n)))
    if on_sweep is not None:
        u = np.empty((m, n))
        u_seen = u.view()
        u_seen.flags.writeable = False

        def watch(sweep):
            on_sweep(sweep, u_seen)

    executor = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    run = map if executor is None else executor.map
    traces, sink_s = [], 0.0
    try:
        blocks = iter(blocks)
        for lo in range(0, n, width):
            hi = min(lo + width, n)
            a = buf[:, :hi - lo] if a_hat is None else a_hat[:, lo:hi]
            # The last chunk reads Y to its end, which frees the source's
            # buffers before the chunk's sweeps.
            take = blocks if hi == n else islice(blocks, chunk_tiles)
            traces.append(_project_chunk(t, take, a, cfg, run, u, watch))
            if sink is not None:
                tic = time.perf_counter()
                sink(a)
                sink_s += time.perf_counter() - tic
    finally:
        if executor is not None:
            executor.shutdown()
    return a_hat, _join(traces, sink_s)
