"""End-to-end unmixing pipelines.

Four solvers share one result type:

* solve_sudap: the subspace route. Transform, then project with
  Dykstra's scheme (dykstra_project), which returns the abundances its
  certificate checked. Handles both constraints. Its first two stages,
  the transform and the forward map, are reduce_cube, which every cube
  enters through, in memory or streamed from a file: the solver sees
  the cube only through its reduced form.
* solve_ls: unconstrained least squares via the normal equations.
* solve_ls_sum1: least squares with only the sum-to-one constraint,
  one bordered solve (_sum_to_one).
* solve_oracle_activeset: exact fully constrained solution by active-set
  enumeration, one _sum_to_one solve per candidate set. Deliberately
  built in abundance space directly on E, with its own factorizations,
  so it shares no code path with the subspace solver it is used to
  verify.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dykstra import DykstraConfig, DykstraTrace, dykstra_project
from .errors import (
    DimensionMismatch,
    NoKKTPoint,
    RankDeficient,
    TooManyEndmembers,
)
from .model import (
    EPS_NEG,
    AbundanceMatrix,
    EndmemberMatrix,
    ImageCube,
    validate_dimensions,
)
from .subspace import (
    RANK_TOL,
    SubspaceTransform,
    build_transform,
    forward_transform,
)
# Not called here since dykstra_project returns abundances: perfbench's
# tracer wraps sudap.solver.inverse_transform, and a missing target
# would drop the solver's self time from its metrics.
from .subspace import inverse_transform  # noqa: F401

SOLVER_IDS = frozenset({"sudap", "ls", "ls_sum1", "oracle"})

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

    wall_time is the run's seconds, and stages splits solve_sudap's
    between "transform" (build_transform), "forward" (the forward map,
    with the streamed read when the cube comes from a file), "project"
    (dykstra_project's sweeps and their bookkeeping, with its on_sweep
    observer) and "finish" (its interior check and exact finishes, with
    the abundances they certify, from its trace); their sum never
    exceeds wall_time. The other solvers, and solve_sudap with one
    endmember, leave stages empty.
    """

    a_hat: AbundanceMatrix
    trace: DykstraTrace
    solver_id: str
    wall_time: float
    stages: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.solver_id not in SOLVER_IDS:
            raise ValueError(f"unknown solver_id {self.solver_id!r}")


def _empty_trace() -> DykstraTrace:
    return DykstraTrace(np.zeros(0), np.zeros(0, dtype=np.int64))


def _gram_factor(e: EndmemberMatrix):
    """Cholesky-factor E'E for the normal-equation solvers.

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
    return factor


def _sum_to_one(g: np.ndarray, h: np.ndarray):
    """Least squares under the sum-to-one constraint alone, per column.

    For G = E'E (f x f) and h = E'X (f x r), the stationarity conditions
    of min |x - Ea| subject to 1'a = 1 are the bordered linear system

        [ G   1 ] [a ]   [h]
        [ 1'  0 ] [mu] = [1],

    factored once by LU and solved for every column. Returns a (f x r)
    and the multipliers mu (r).
    """
    f, r = h.shape
    k = np.zeros((f + 1, f + 1))
    k[:f, :f] = g
    k[:f, f] = 1.0
    k[f, :f] = 1.0
    lu = scipy.linalg.lu_factor(k, check_finite=False)
    # The right-hand side is built in LAPACK's column order, which
    # lu_solve then overwrites with the solution instead of copying.
    # g and h are finite (E and X were checked), so neither call scans
    # its operands again.
    rhs = np.empty((f + 1, r), order="F")
    rhs[:f] = h
    rhs[f] = 1.0
    sol = scipy.linalg.lu_solve(lu, rhs, overwrite_b=True, check_finite=False)
    return sol[:f], sol[f]


def _ones_result(x: ImageCube, solver_id: str, t0: float) -> SolveResult:
    a = AbundanceMatrix(np.ones((1, x.n_pixels)), x.shape, feasible=True)
    return SolveResult(a, _empty_trace(), solver_id, time.perf_counter() - t0)


@dataclass(frozen=True)
class ReducedCube:
    """A cube as the subspace solver sees it.

    The fully constrained problem lives in the m-dimensional subspace:
    |X - EA|_F^2 = x_sq - |Y|^2 + |Y - DA|^2, so X enters only through
    Y = D^{-T} E'X (m x n, for the transform t) and x_sq = |X|_F^2.
    stages holds the seconds reduce_cube spent, by stage.
    """

    t: SubspaceTransform
    y: np.ndarray
    x_sq: float
    shape: tuple[int, int]
    stages: dict

    @property
    def n_pixels(self) -> int:
        return self.y.shape[1]


def reduce_cube(e: EndmemberMatrix, x) -> ReducedCube:
    """Transform and forward map: the cube reduced to the subspace.

    x is an ImageCube, or a cube file opened with io.open_cube, which is
    read here one tile at a time and never held whole. Either source
    carries |X|^2 as sum_sq, from the finiteness check it made (on
    construction, or tile by tile as it is read), so the cube is not
    summed again. Pass the result to solve_sudap, to metrics.objective
    and to metrics.CurveRecorder.

    Raises
    ------
    DimensionMismatch, RankDeficient, DegenerateProblem
        As build_transform; one endmember is degenerate here.
    """
    validate_dimensions(e, x)
    tic = time.perf_counter()
    t = build_transform(e)
    mid = time.perf_counter()
    y = forward_transform(t, e, x)
    stages = {"transform": mid - tic, "forward": time.perf_counter() - mid}
    return ReducedCube(t, y, x.sum_sq, x.shape, stages)


def solve_sudap(
    e: EndmemberMatrix,
    x,
    cfg: DykstraConfig | None = None,
    on_sweep=None,
) -> SolveResult:
    """Fully constrained unmixing through the projected subspace.

    x is a ReducedCube from reduce_cube for the same E, whose stages
    and seconds then count towards the result's, or an ImageCube, which
    is reduced here by reduce_cube (unless E has one endmember, which
    makes every abundance 1). When the trace reports converged, every
    pixel is certified as the unique minimizer of |X - EA|_F^2 over the
    simplex, to rounding. Column sums are exact to roundoff in any case;
    small negative entries can remain when the run stops at max_sweeps
    uncertified and are reported as-is (see clip_negatives).
    """
    t0 = time.perf_counter()
    if isinstance(x, ReducedCube):
        if x.y.shape[0] != e.n_endmembers:
            raise DimensionMismatch(e.n_endmembers, x.y.shape[0])
        t0 -= sum(x.stages.values())
    else:
        validate_dimensions(e, x)
        if e.n_endmembers == 1:
            return _ones_result(x, "sudap", t0)
        x = reduce_cube(e, x)
    t, y, stages = x.t, x.y, dict(x.stages)
    tic = time.perf_counter()
    a, trace = dykstra_project(t, y, cfg, on_sweep=on_sweep)
    stages.update(
        project=time.perf_counter() - tic - trace.finish_s,
        finish=trace.finish_s,
    )
    a = AbundanceMatrix(a, x.shape)
    return SolveResult(a, trace, "sudap", time.perf_counter() - t0, stages)


def solve_ls(e: EndmemberMatrix, x: ImageCube) -> SolveResult:
    """Unconstrained least squares, A = (E'E)^{-1} E'X."""
    t0 = time.perf_counter()
    validate_dimensions(e, x)
    a = scipy.linalg.cho_solve(_gram_factor(e), e.data.T @ x.data)
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
    _gram_factor(e)
    a, _ = _sum_to_one(e.data.T @ e.data, e.data.T @ x.data)
    result = AbundanceMatrix(a, x.shape)
    return SolveResult(
        result, _empty_trace(), "ls_sum1", time.perf_counter() - t0
    )


def _oracle_abundances(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact simplex-constrained least squares per pixel.

    Enumerates candidate sets Z of abundances pinned to zero, smallest
    sets first and in index order within a size. For each Z the
    stationarity conditions on the free coordinates F are least squares
    under the sum constraint alone, on G_FF and h_F (_sum_to_one; G = E'E,
    h = E'x), with multiplier mu. A candidate wins if a_F >= -PRIMAL_TOL
    and the multipliers of the pinned coordinates,
    lambda = G_ZF a_F - h_Z + mu, all clear -DUAL_TOL. The true solution
    is unique, so the first winner is the answer.

    Each candidate system is factored once and solved for the r pixels
    still unresolved. Their columns of h are gathered once and shrink
    with them, so a set costs O(m r) beyond its factorization, not
    O(m n): the work follows the unresolved pixels, as in FC-NNLS (Van
    Benthem & Keenan 2004).

    G is positive definite (the caller checks its rank), so every
    bordered system is nonsingular.
    """
    m = e.shape[1]
    g = e.T @ e
    h = e.T @ x
    # The full-set solve is the answer for every interior pixel; the
    # others' columns are overwritten as their sets are found.
    a0, _ = _sum_to_one(g, h)
    a_hat = np.ascontiguousarray(a0)
    remaining = np.flatnonzero(~(a0 >= -PRIMAL_TOL).all(axis=0))
    h_r = h[:, remaining]

    every = np.arange(m)
    for size in range(1, m):
        if remaining.size == 0:
            break
        for zeroed in itertools.combinations(range(m), size):
            if remaining.size == 0:
                break
            pinned = np.array(zeroed)
            free = np.delete(every, pinned)
            a_free, mu = _sum_to_one(g[free[:, None], free], h_r[free])
            primal = (a_free >= -PRIMAL_TOL).all(axis=0)
            lam = g[pinned[:, None], free] @ a_free - h_r[pinned]
            lam += mu
            accept = primal & (lam >= -DUAL_TOL).all(axis=0)
            if not np.any(accept):
                continue
            cols = remaining[accept]
            a_hat[pinned[:, None], cols] = 0.0
            a_hat[free[:, None], cols] = a_free[:, accept]
            keep = ~accept
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
    _gram_factor(e)
    a = _oracle_abundances(e.data, x.data)
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
    good = sums > 0.0
    data[:, good] /= sums[good]
    return AbundanceMatrix(data, a.shape)
