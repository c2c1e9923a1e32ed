import numpy as np
import pytest

from sudap import DykstraConfig, EndmemberMatrix, ImageCube
from sudap import dykstra
from sudap.dykstra import (
    FIRST_CHECKPOINT,
    _finish_tile,
    _solve_active,
    dykstra_project,
)
from sudap.errors import NonFinite, ShapeMismatch
from sudap.projectors import project_hyperplane, project_intersection_geometric
from sudap.simdata import make_instance
from sudap.solver import solve_oracle_activeset
from sudap.subspace import (
    build_transform,
    forward_transform,
    inverse_transform,
)
from conftest import random_endmembers, traced_peak


def _problem(seed, n_bands=24, m=5, n=60, spread=1.0, with_x=False):
    rng = np.random.default_rng(seed)
    e = random_endmembers(rng, n_bands, m)
    x = rng.standard_normal((n_bands, n)) * spread
    t = build_transform(e)
    y = forward_transform(t, e, x)
    return (e, t, y, x) if with_x else (e, t, y)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        DykstraConfig(max_sweeps=0)
    for rel_tol in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DykstraConfig(rel_tol=rel_tol)
    with pytest.raises(ValueError):
        DykstraConfig(threads=0)


def test_output_stays_on_sum_hyperplane_every_sweep():
    _, t, y = _problem(0)
    cfg = DykstraConfig(max_sweeps=500, rel_tol=1e-12)
    worst = []
    u, trace = dykstra_project(
        t, y, cfg,
        on_sweep=lambda _s, u_k: worst.append(np.abs(t.b @ u_k - 1.0).max()),
    )
    assert np.abs(t.b @ u - 1.0).max() < 1e-11
    assert len(worst) == trace.n_sweeps
    assert max(worst) < 1e-11


def test_limit_is_feasible_in_abundance_space():
    _, t, y = _problem(1)
    u, trace = dykstra_project(
        t, y, DykstraConfig(max_sweeps=3000, rel_tol=1e-13)
    )
    assert trace.converged
    a = inverse_transform(t, u)
    assert np.abs(a.sum(axis=0) - 1.0).max() < 1e-11
    assert a.min() > -1e-9


def test_limit_matches_exact_segment_minimizer_for_two_endmembers():
    # With two endmembers the feasible set is the segment between the
    # columns of E, so the constrained minimizer has the closed form
    # t* = clip(t_unconstrained, 0, 1) per pixel. An independent check
    # of the projection's optimality, not just its feasibility.
    rng = np.random.default_rng(2)
    e = EndmemberMatrix(rng.standard_normal((12, 2)))
    x = rng.standard_normal((12, 80)) * 2.0
    t = build_transform(e)
    y = forward_transform(t, e, x)
    u, _ = dykstra_project(
        t, y, DykstraConfig(max_sweeps=5000, rel_tol=1e-14)
    )
    a_hat = inverse_transform(t, u)
    d = e.data[:, 0] - e.data[:, 1]
    t_star = np.clip((d @ (x - e.data[:, [1]])) / (d @ d), 0.0, 1.0)
    a_star = np.vstack([t_star, 1.0 - t_star])
    assert np.abs(a_hat - a_star).max() < 1e-10


def test_feasible_input_is_a_fixed_point():
    rng = np.random.default_rng(3)
    e = random_endmembers(rng, 20, 4)
    t = build_transform(e)
    a = rng.dirichlet(np.ones(4) * 5.0, size=30).T
    y = t.d @ a
    u, trace = dykstra_project(t, y, DykstraConfig(rel_tol=1e-12))
    assert trace.converged
    assert trace.n_sweeps <= 2
    assert np.abs(u - y).max() < 1e-10


def _finish_sweeps(trace):
    """The sweeps a run's finish may certify on: checkpoints and its last."""
    k = trace.n_sweeps
    sweeps = {k}
    checkpoint = dykstra.FIRST_CHECKPOINT
    while checkpoint < k:
        sweeps.add(checkpoint)
        checkpoint *= 2
    return sweeps


def _check_bookkeeping(trace, cfg, n):
    k = trace.n_sweeps
    assert len(trace.rel_change) == len(trace.uncertified) == k
    assert (np.diff(trace.elapsed_s) >= 0).all()
    # Columns are only certified where the finish runs, and never come
    # back.
    diff = np.diff(trace.uncertified, prepend=n)
    assert (diff <= 0).all()
    drops = np.flatnonzero(diff < 0) + 1
    assert set(drops.tolist()) <= _finish_sweeps(trace)
    # The run converged iff its last sweep certified the last column or
    # brought the change down to rel_tol.
    stop = (trace.uncertified == 0) | (trace.rel_change <= cfg.rel_tol)
    assert trace.converged == stop[-1]
    assert not stop[:-1].any()


def test_trace_bookkeeping_is_consistent():
    _, t, y = _problem(4)
    cfg = DykstraConfig(max_sweeps=400, rel_tol=1e-12)
    u, trace = dykstra_project(t, y, cfg)
    _check_bookkeeping(trace, cfg, y.shape[1])
    assert trace.converged


def test_zero_tolerance_runs_to_the_sweep_budget(monkeypatch):
    # With the checkpoints put off, no column can be certified before
    # the last sweep, and far-from-feasible input cannot hit an exact
    # fixed point, so the run must use the whole budget.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    _, t, y = _problem(5, n=25)
    budget = 4
    cfg = DykstraConfig(max_sweeps=budget, rel_tol=0.0)
    _, trace = dykstra_project(t, y, cfg)
    assert trace.n_sweeps == budget
    assert (trace.uncertified[:-1] == y.shape[1]).all()
    _check_bookkeeping(trace, cfg, y.shape[1])


def test_a_run_stopped_by_the_change_test_is_finished(monkeypatch):
    # Scene 9 of cli.oracle_runs(1000, 50) stops on rel_tol at sweep 2.
    # With the checkpoints put off, that stop comes before the first
    # one, and the finish on its last sweep still certifies every pixel.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    e, _, cube = make_instance(6, (32, 32), 30.0, 1009)
    t = build_transform(e)
    y = forward_transform(t, e, cube)
    cfg = DykstraConfig(rel_tol=1e-12)
    _, trace = dykstra_project(t, y, cfg)
    assert trace.n_sweeps == 2
    assert trace.rel_change[-1] <= cfg.rel_tol
    assert trace.uncertified[-1] == 0
    _check_bookkeeping(trace, cfg, y.shape[1])


def test_thread_count_does_not_change_a_single_bit(monkeypatch):
    # Points far outside the feasible set: some columns survive the
    # first checkpoints, so the compacted block is what the threads
    # split, and tiles of 3 columns leave several tiles on either side
    # of the compaction.
    monkeypatch.setattr(dykstra, "TILE", 3)
    _, t, y = _problem(6, n_bands=5, m=4, n=400, spread=100.0)
    results = []
    for threads in (1, 3, 4):
        cfg = DykstraConfig(max_sweeps=300, rel_tol=1e-11, threads=threads)
        u, trace = dykstra_project(t, y, cfg)
        results.append((u, trace))
    u_ref, trace_ref = results[0]
    width = trace_ref.uncertified[FIRST_CHECKPOINT - 1]
    assert 2 * dykstra.TILE < width < y.shape[1]
    assert trace_ref.n_sweeps > FIRST_CHECKPOINT
    for u, trace in results[1:]:
        assert np.array_equal(u, u_ref)
        assert trace.n_sweeps == trace_ref.n_sweeps
        assert np.array_equal(trace.rel_change, trace_ref.rel_change)
        assert np.array_equal(trace.uncertified, trace_ref.uncertified)


def _exact(seed, m=5, n=60):
    """A problem with its exact projections, from the abundance oracle."""
    e, t, y, x = _problem(seed, m=m, n=n, spread=2.0, with_x=True)
    a_star = solve_oracle_activeset(e, ImageCube(x, (1, n))).a_hat.data
    return t, y, t.d @ a_star, a_star == 0.0


def test_finish_certifies_a_seed_with_one_extra_constraint():
    t, y, u_star, zero = _exact(12)
    m = t.n_endmembers
    j = int(np.flatnonzero((zero.sum(axis=0) >= 1)
                           & (zero.sum(axis=0) <= m - 2))[0])
    extra = int(np.flatnonzero(~zero[:, j])[0])
    tau = zero[:, [j]].astype(float)
    tau[extra] = 1.0
    y0 = project_hyperplane(t, y[:, [j]])
    # The seed's own solve fails on a negative multiplier, so only a
    # drop round can certify the column.
    lam = _solve_active(t.s @ t.s.T, t.f[:, None] - t.s @ y0, tau > 0)
    assert lam.min() < 0.0
    u = y0.copy()
    assert _finish_tile(t, y[:, [j]], u, tau, slice(None)).all()
    assert np.abs(u - u_star[:, [j]]).max() < 1e-10
    assert np.array_equal(tau[:, 0] > 0, zero[:, j])


def _swept(t, y, sweeps):
    """The iterate and multipliers after a few full sweeps."""
    u = project_hyperplane(t, y)
    tau = np.zeros_like(u)
    for _ in range(sweeps):
        for i in range(t.n_endmembers):
            project_intersection_geometric(t, i, u, tau)
    return u, tau


def test_finish_leaves_failing_columns_untouched(monkeypatch):
    t, y, u_star, _ = _exact(13)
    u, tau = _swept(t, y, 3)
    u_before, tau_before = u.copy(), tau.copy()
    # No point can pass a certificate asking for abundances of 1 or more.
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    assert not _finish_tile(t, y, u, tau, slice(None)).any()
    assert np.array_equal(u, u_before)
    assert np.array_equal(tau, tau_before)
    monkeypatch.undo()
    assert _finish_tile(t, y, u, tau, slice(None)).all()
    assert np.abs(u - u_star).max() < 1e-10


def test_sized_solve_matches_a_solve_per_column():
    _, t, y = _problem(14, m=6, n=50)
    m, k = y.shape
    y0 = project_hyperplane(t, y)
    gram = t.s @ t.s.T
    rhs = t.f[:, None] - t.s @ y0
    # Active sets of every size the finish meets, in mixed order.
    rng = np.random.default_rng(14)
    sizes = rng.permutation(np.resize([0, 1, 2, m - 1, m], k))
    act = np.zeros((m, k), dtype=bool)
    for j, p in enumerate(sizes):
        act[rng.choice(m, p, replace=False), j] = True
    lam = _solve_active(gram, rhs, act)
    for j in range(k):
        a = act[:, j]
        if a.all():
            # G = S S' is singular: the abundances cannot all be 0.
            assert np.isnan(lam[:, j]).all()
            continue
        expected = np.zeros(m)
        if a.any():
            expected[a] = np.linalg.solve(gram[np.ix_(a, a)], rhs[a, j])
        assert np.abs(lam[:, j] - expected).max() <= 1e-12 * max(
            1.0, np.abs(expected).max()
        )
        assert (lam[~a, j] == 0.0).all()
        # A column gets the same bits alone as inside the mixed batch.
        alone = _solve_active(gram, rhs[:, [j]], act[:, [j]])[:, 0]
        assert np.array_equal(alone, lam[:, j])
    order = rng.permutation(k)
    assert np.array_equal(
        _solve_active(gram, rhs[:, order], act[:, order]), lam[:, order],
        equal_nan=True,
    )


def test_finish_gives_a_column_the_same_bits_in_any_tile():
    t, y, u_star, _ = _exact(14, m=6, n=80)
    u, tau = _swept(t, y, 2)
    u_all, tau_all = u.copy(), tau.copy()
    certified = _finish_tile(t, y, u_all, tau_all, slice(None))
    assert certified.all()
    assert np.abs(u_all - u_star).max() < 1e-10
    for j in range(y.shape[1]):
        u_j, tau_j = u[:, [j]].copy(), tau[:, [j]].copy()
        assert _finish_tile(t, y[:, [j]], u_j, tau_j, slice(None))[0]
        assert np.array_equal(u_j[:, 0], u_all[:, j])
        assert np.array_equal(tau_j[:, 0], tau_all[:, j])


def test_a_failed_solve_leaves_only_its_group_uncertified(monkeypatch):
    t, y, _, _ = _exact(13)
    u, tau = _swept(t, y, 2)
    u_ref, tau_ref = u.copy(), tau.copy()
    reference = _finish_tile(t, y, u_ref, tau_ref, slice(None))
    solve = np.linalg.solve

    def fail_on_pairs(a, b):
        if a.shape[-1] == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_on_pairs)
    u_new, tau_new = u.copy(), tau.copy()
    certified = _finish_tile(t, y, u_new, tau_new, slice(None))
    # The columns whose seed has two active constraints fail with their
    # group and are left untouched; the other groups still certify,
    # with the bits they get when no solve fails.
    pairs = (tau > 0).sum(axis=0) == 2
    assert pairs.any() and not certified[pairs].any()
    assert reference.all() and certified[~pairs].all()
    assert np.array_equal(u_new[:, ~certified], u[:, ~certified])
    assert np.array_equal(tau_new[:, ~certified], tau[:, ~certified])
    assert np.array_equal(u_new[:, certified], u_ref[:, certified])
    assert np.array_equal(tau_new[:, certified], tau_ref[:, certified])


def test_on_sweep_sees_every_live_iterate():
    _, t, y = _problem(7, n=20)
    seen = []
    cfg = DykstraConfig(max_sweeps=50, rel_tol=1e-10)
    u, trace = dykstra_project(
        t, y, cfg, on_sweep=lambda s, v: seen.append((s, v.copy()))
    )
    assert [s for s, _ in seen] == list(range(1, trace.n_sweeps + 1))
    assert np.array_equal(seen[-1][1], u)


def test_on_sweep_cannot_write_the_iterate():
    _, t, y = _problem(7, n=20)
    cfg = DykstraConfig(max_sweeps=50, rel_tol=1e-10)

    def meddle(_sweep, u):
        u[0, 0] = 0.0

    with pytest.raises(ValueError):
        dykstra_project(t, y, cfg, on_sweep=meddle)


def test_wrong_shape_and_nonfinite_inputs_are_rejected():
    _, t, y = _problem(8)
    with pytest.raises(ShapeMismatch):
        dykstra_project(t, y[:-1])
    with pytest.raises(ShapeMismatch):
        dykstra_project(t, y[:, :0])
    poisoned = y.copy()
    poisoned[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFinite):
            dykstra_project(t, poisoned)


def test_corrections_make_the_limit_the_nearest_point():
    # Plain cyclic projection also lands in the feasible set but at the
    # wrong point; Dykstra's corrections are what make the limit the
    # projection of Y. Compare distance to Y: the Dykstra limit must not
    # be farther than the cyclic-projection limit, and on instances with
    # several active constraints it is strictly closer.
    _, t, y = _problem(10, n=30, spread=3.0)
    u_dyk, _ = dykstra_project(
        t, y, DykstraConfig(max_sweeps=5000, rel_tol=1e-14)
    )
    # Plain cyclic projection is the same step with tau reset to 0.
    v = project_hyperplane(t, y)
    for _ in range(5000):
        for i in range(t.n_endmembers):
            project_intersection_geometric(t, i, v, np.zeros_like(v))
    d_dyk = np.linalg.norm(y - u_dyk, axis=0)
    d_cyc = np.linalg.norm(y - v, axis=0)
    assert (d_dyk <= d_cyc + 1e-9).all()
    assert (d_cyc - d_dyk).max() > 1e-6


def test_driver_memory_does_not_grow_with_m(monkeypatch):
    # The driver keeps the iterate and one multiplier per constraint and
    # pixel, not one m x n correction matrix per constraint, so its peak
    # is a few m x n blocks whatever m is. Both runs end in the finish;
    # the second also reaches the first checkpoint.
    m, n = 10, 20_000
    _, t, y = _problem(11, m=m, n=n)
    for sweeps in (FIRST_CHECKPOINT - 1, FIRST_CHECKPOINT + 1):
        _, peak = traced_peak(lambda: dykstra_project(
            t, y, DykstraConfig(max_sweeps=sweeps, rel_tol=0.0)
        ))
        assert peak < 8 * m * n * 8, (
            f"{sweeps} sweeps: peak {peak / (m * n * 8):.2f} m*n floats"
        )
    # On tiles of 256 columns the finish's temporaries are small, so the
    # peak shows the state itself: U and tau, with no copy of Y in
    # either layout and no stored Y0.
    monkeypatch.setattr(dykstra, "TILE", 256)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        y_laid = layout(y)
        for sweeps in (FIRST_CHECKPOINT - 1, FIRST_CHECKPOINT + 1):
            _, peak = traced_peak(lambda: dykstra_project(
                t, y_laid, DykstraConfig(max_sweeps=sweeps, rel_tol=0.0)
            ))
            assert peak < 2.5 * m * n * 8, (
                f"{layout.__name__}, {sweeps} sweeps: "
                f"peak {peak / (m * n * 8):.2f} m*n floats"
            )
