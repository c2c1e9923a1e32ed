"""End-to-end unmixing pipelines.

Four solvers share one result type:

* solve_sudap: the subspace route. Transform, then project with
  Dykstra's scheme (dykstra_project), which returns the abundances its
  certificate checked. Handles both constraints. The solver sees the
  cube only through Y = D^{-T} E'X and |X|^2. A cube, in memory or
  streamed from a file, is mapped block by block into dykstra_project's
  interior check (subspace.ForwardMap), so no m x n Y is held, and the
  objective is summed on the way. The pixels are solved in chunks
  (dykstra.CHUNK_TILES), and a sink takes each chunk's abundances
  before the next is read, so that a run with a sink holds no m x n
  block at all. This is the only route in: an observer that reads Y
  again (metrics.CurveRecorder) forms its own, and its run is one
  chunk.
* solve_ls: unconstrained least squares via the normal equations.
* solve_ls_sum1: least squares with only the sum-to-one constraint,
  one bordered solve (_sum_to_one).
* solve_oracle_activeset: exact fully constrained solution by active-set
  enumeration, one stacked _sum_to_one solve per chunk of candidate
  sets of one size. Deliberately built in abundance space directly on
  E, with its own factorizations, so it shares no code path with the
  subspace solver it is used to verify.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dykstra import DykstraConfig, DykstraTrace, dykstra_project
from .errors import NoKKTPoint, RankDeficient, TooManyEndmembers
from .model import (
    EPS_NEG,
    AbundanceMatrix,
    EndmemberMatrix,
    ImageCube,
    validate_dimensions,
)
from .subspace import RANK_TOL, ForwardMap, build_transform
# Not called here, since the forward map runs inside dykstra_project and
# dykstra_project returns abundances: perfbench's tracer wraps
# sudap.solver.forward_transform and sudap.solver.inverse_transform, and
# a missing target would drop its subspace.forward_s metric, or the
# solver's self time.
from .subspace import forward_transform, inverse_transform  # noqa: F401

# Oracle acceptance slacks: a candidate is primal feasible when no free
# abundance is below -PRIMAL_TOL, dual feasible when no multiplier of a
# zeroed abundance is below -DUAL_TOL.
PRIMAL_TOL = 1e-12
DUAL_TOL = 1e-10

# The oracle enumerates up to 2^m - 2 candidate active sets per pixel.
MAX_ORACLE_ENDMEMBERS = 14


@dataclass(frozen=True)
class SolveResult:
    """One solver run.

    wall_time is the run's seconds, less the time solve_sudap's sink
    took, and stages splits solve_sudap's between "transform"
    (build_transform, and the m x bands matrix of the forward map),
    "forward" (the forward map, with the streamed read when the cube
    comes from a file: the time dykstra_project waited for Y's blocks),
    "project" (dykstra_project's sweeps and their bookkeeping, with its
    on_sweep observer) and "finish" (its interior check and exact
    finishes, with all the abundances they write, from its trace); each
    stage is summed over the chunks, and their sum never exceeds
    wall_time. objective is |X - E a_hat|_F^2 as solve_sudap sums it on
    the way, with no held Y (dykstra module docstring), chunk by chunk.
    a_hat is None when solve_sudap's sink took the abundances. The
    other solvers, and solve_sudap with one endmember, leave stages
    empty and objective None.
    """

    a_hat: AbundanceMatrix | None
    trace: DykstraTrace
    solver_id: str
    wall_time: float
    stages: dict = field(default_factory=dict)
    objective: float | None = None


def _empty_trace() -> DykstraTrace:
    return DykstraTrace(np.zeros(0), np.zeros(0, dtype=np.int64))


def _gram_factor(e: EndmemberMatrix):
    """E'E and its Cholesky factor, after a rank check on the pivots.

    Local to this module on purpose: the direct solvers and the oracle
    must not borrow the subspace module's factorization.
    """
    g = e.data.T @ e.data
    try:
        factor = scipy.linalg.cho_factor(g, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficient(
            f"endmember matrix is numerically rank deficient: {exc}"
        ) from None
    m = g.shape[0]
    pivots = np.diag(factor[0]) ** 2
    if np.any(pivots <= RANK_TOL * np.trace(g) / m):
        raise RankDeficient(
            "endmember matrix is numerically rank deficient: "
            f"smallest Cholesky pivot {pivots.min():.3e}"
        )
    return g, factor


def _sum_to_one(g: np.ndarray, h: np.ndarray):
    """Least squares under the sum-to-one constraint alone, per column.

    For G = E'E (f x f) and h = E'X (f x r), the stationarity conditions
    of min |x - Ea| subject to 1'a = 1 are the bordered linear system

        [ G   1 ] [a ]   [h]
        [ 1'  0 ] [mu] = [1],

    whose matrix is inverted once and applied to every column. Returns
    a (f x r) and the multipliers mu (r), each the product of its own
    rows of the inverse, so that a is an array of its own and a caller
    keeping it keeps no multiplier row. g and h may also be stacks,
    (k x f x f) and (k x f x r), of k such systems, each inverted on its
    own; a is then (k x f x r) and mu (k x r).

    With G positive definite the bordered matrix is nonsingular: its
    Schur complement, -1'G^{-1}1, is negative.
    """
    f = g.shape[-1]
    k = np.zeros(g.shape[:-2] + (f + 1, f + 1))
    k[..., :f, :f] = g
    k[..., :f, f] = 1.0
    k[..., f, :f] = 1.0
    ki = np.linalg.inv(k)
    a = ki[..., :f, :f] @ h
    a += ki[..., :f, f:]
    mu = ki[..., f:, :f] @ h
    mu += ki[..., f:, f:]
    return a, mu[..., 0, :]


def _ones_result(x, solver_id: str, t0: float, sink=None) -> SolveResult:
    """Every abundance 1, for a cube or an opened cube file, whose
    n_pixels and shape suffice: no pixel is read. A sink takes them in
    one chunk."""
    a = np.ones((1, x.n_pixels))
    if sink is None:
        a = AbundanceMatrix(a, x.shape, feasible=True)
    else:
        sink(a)
        a = None
    return SolveResult(a, _empty_trace(), solver_id, time.perf_counter() - t0)


def solve_sudap(
    e: EndmemberMatrix,
    x,
    cfg: DykstraConfig | None = None,
    on_sweep=None,
    sink=None,
) -> SolveResult:
    """Fully constrained unmixing through the projected subspace.

    x is an ImageCube or a cube file opened with io.open_cube, whose pixels
    are mapped into the subspace block by block as dykstra_project's
    interior check takes them, so neither the cube nor Y is held whole.
    The pixels are solved in chunks of dykstra.CHUNK_TILES tiles, and a
    run watched by on_sweep in one chunk. With a sink, each chunk's
    abundances go to sink(a) before the next chunk is read, as
    dykstra_project says, and the result's a_hat is None; so the run
    holds no m x n block. Without one, a_hat holds them all. With one
    endmember every abundance is 1. When the trace
    reports converged, every pixel is certified as the unique minimizer
    of |X - EA|_F^2 over the simplex, to rounding. Column sums are exact
    to roundoff in any case; small negative entries can remain when the
    run stops at max_sweeps uncertified and are reported as-is (see
    clip_negatives). The result's objective is the output's
    |X - EA|_F^2, from the trace's sums and x's |X|^2.
    """
    t0 = time.perf_counter()
    validate_dimensions(e, x)
    if e.n_endmembers == 1:
        return _ones_result(x, "sudap", t0, sink)
    t = build_transform(e)
    y = ForwardMap(t, e, x)
    stages = {"transform": time.perf_counter() - t0}
    tic = time.perf_counter()
    a, trace = dykstra_project(t, y, cfg, on_sweep=on_sweep, sink=sink)
    # The forward map ran while dykstra_project waited for Y's blocks; a
    # file's |X|^2 is complete only now.
    stages.update(
        forward=trace.source_s,
        project=(time.perf_counter() - tic - trace.source_s
                 - trace.finish_s - trace.sink_s),
        finish=trace.finish_s,
    )
    if a is not None:
        a = AbundanceMatrix(a, x.shape)
    return SolveResult(
        a, trace, "sudap", time.perf_counter() - t0 - trace.sink_s, stages,
        max(x.sum_sq - trace.y_sq, 0.0) + trace.residual_sq,
    )


def solve_ls(e: EndmemberMatrix, x: ImageCube) -> SolveResult:
    """Unconstrained least squares, A = (E'E)^{-1} E'X."""
    t0 = time.perf_counter()
    validate_dimensions(e, x)
    _, factor = _gram_factor(e)
    a = scipy.linalg.cho_solve(factor, e.data.T @ x.data)
    result = AbundanceMatrix(a, x.shape)
    return SolveResult(result, _empty_trace(), "ls", time.perf_counter() - t0)


def solve_ls_sum1(e: EndmemberMatrix, x: ImageCube) -> SolveResult:
    """Least squares under the sum-to-one constraint alone.

    The oracle's full-set solve (_sum_to_one on E'E and E'X), so its
    columns are the oracle's own wherever the oracle's answer is
    interior.
    """
    t0 = time.perf_counter()
    validate_dimensions(e, x)
    if e.n_endmembers == 1:
        return _ones_result(x, "ls_sum1", t0)
    g, _ = _gram_factor(e)
    a, _ = _sum_to_one(g, e.data.T @ x.data)
    result = AbundanceMatrix(a, x.shape)
    return SolveResult(
        result, _empty_trace(), "ls_sum1", time.perf_counter() - t0
    )


def _oracle_abundances(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact simplex-constrained least squares per pixel.

    For G = E'E (m x m) and h = E'X (m x n), enumerates candidate sets Z
    of abundances pinned to zero, smallest sets first and in
    itertools.combinations order within a size. For each Z the
    stationarity conditions on the free coordinates F are least squares
    under the sum constraint alone, on G_FF and h_F (_sum_to_one), with
    multiplier mu. A candidate wins if a_F >= -PRIMAL_TOL and the
    multipliers of the pinned coordinates, lambda = G_ZF a_F - h_Z + mu,
    all clear -DUAL_TOL. The true solution is unique, so the first
    winner is the answer.

    The sets of one size are solved in chunks, each one stacked
    _sum_to_one call on the r pixels still unresolved. A chunk holds as
    many sets as fit in h.size floats at h_r.size (the unresolved
    columns of h) per set, so its temporaries stay within a few copies
    of h and chunks grow as pixels resolve. Within a chunk each pixel
    takes the first set that accepts it, which is the winner a set-by-set
    loop picks; resolved pixels leave after every chunk. The work thus
    follows the unresolved pixels, as in FC-NNLS (Van Benthem & Keenan
    2004).

    G is positive definite (the caller checks its rank), so each G_FF
    is too, and every bordered system is nonsingular.
    """
    m = g.shape[0]
    # The full-set solve is the answer for every interior pixel; the
    # others' columns are overwritten as their sets are found.
    a_hat, _ = _sum_to_one(g, h)
    remaining = np.flatnonzero(~(a_hat >= -PRIMAL_TOL).all(axis=0))
    h_r = h[:, remaining]

    for size in range(1, m):
        if remaining.size == 0:
            break
        pinned = np.array(list(itertools.combinations(range(m), size)))
        is_free = np.ones((len(pinned), m), dtype=bool)
        np.put_along_axis(is_free, pinned, False, axis=1)
        free = np.nonzero(is_free)[1].reshape(len(pinned), m - size)
        start = 0
        while start < len(pinned) and remaining.size:
            stop = start + max(1, h.size // h_r.size)
            z, fr = pinned[start:stop], free[start:stop]
            start = stop
            a_free, mu = _sum_to_one(
                g[fr[:, :, None], fr[:, None, :]], h_r[fr]
            )
            lam = g[z[:, :, None], fr[:, None, :]] @ a_free
            lam -= h_r[z]
            lam += mu[:, None, :]
            accept = (a_free >= -PRIMAL_TOL).all(axis=1)
            accept &= (lam >= -DUAL_TOL).all(axis=1)
            won = accept.any(axis=0)
            if not won.any():
                continue
            j = np.flatnonzero(won)
            first = accept[:, j].argmax(axis=0)
            cols = remaining[j]
            a_hat[:, cols] = 0.0
            a_hat[fr[first], cols[:, None]] = a_free[first, :, j]
            keep = ~won
            remaining = remaining[keep]
            h_r = h_r[:, keep]

    if remaining.size:
        raise NoKKTPoint(
            f"{remaining.size} pixel(s) admitted no feasible stationary "
            "point; the endmember matrix is likely ill-conditioned"
        )
    return a_hat


def solve_oracle_activeset(e: EndmemberMatrix, x: ImageCube) -> SolveResult:
    """Exact fully constrained solution by active-set enumeration.

    Meant as ground truth at desk scale; cost grows with 2^m, hence the
    hard cap on m.

    Raises
    ------
    TooManyEndmembers
        If m exceeds MAX_ORACLE_ENDMEMBERS.
    NoKKTPoint
        If some pixel passes no candidate's feasibility checks, which
        indicates numerical trouble rather than a modelling error.
    """
    t0 = time.perf_counter()
    validate_dimensions(e, x)
    m = e.n_endmembers
    if m > MAX_ORACLE_ENDMEMBERS:
        raise TooManyEndmembers(
            f"active-set enumeration is capped at "
            f"{MAX_ORACLE_ENDMEMBERS} endmembers, got {m}"
        )
    if m == 1:
        return _ones_result(x, "oracle", t0)
    g, _ = _gram_factor(e)
    a = _oracle_abundances(g, e.data.T @ x.data)
    result = AbundanceMatrix(a, x.shape)
    return SolveResult(
        result, _empty_trace(), "oracle", time.perf_counter() - t0
    )


def clip_negatives(a: AbundanceMatrix) -> AbundanceMatrix:
    """Zero out small negative leakage and renormalize column sums.

    Entries in [-EPS_NEG, 0) become 0; anything more negative is left alone
    since it signals an unconverged run rather than roundoff. Columns
    with a positive sum are then rescaled to sum to one.
    """
    data = a.data.copy()
    mask = (data < 0.0) & (data >= -EPS_NEG)
    data[mask] = 0.0
    sums = data.sum(axis=0)
    # In place, so that clipping holds one copy of a, not two.
    np.divide(data, sums, out=data, where=sums > 0.0)
    return AbundanceMatrix(data, a.shape)
