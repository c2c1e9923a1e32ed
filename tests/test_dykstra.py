import numpy as np
import pytest

import sudap.cli as cli
from sudap import DykstraConfig, EndmemberMatrix, ImageCube
from sudap import dykstra
from sudap.dykstra import (
    FIRST_CHECKPOINT,
    _finish_tile,
    _solve_active,
    dykstra_project,
)
from sudap.errors import NonFinite, ShapeMismatch
from sudap.io import write_cube, write_library_csv
from sudap.projectors import project_hyperplane, project_intersection_geometric
from sudap.simdata import SpectralLibrary, make_instance
from sudap.solver import _oracle_abundances, solve_oracle_activeset
from sudap.subspace import _block_product, build_transform, forward_transform
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
    cfg = DykstraConfig(max_sweeps=500)
    worst = []
    a, trace = dykstra_project(
        t, y, cfg,
        on_sweep=lambda _s, u_k: worst.append(np.abs(t.b @ u_k - 1.0).max()),
    )
    assert np.abs(t.b @ (t.d @ a) - 1.0).max() < 1e-11
    assert len(worst) == trace.n_sweeps
    assert max(worst) < 1e-11


def test_limit_is_feasible_in_abundance_space():
    _, t, y = _problem(1)
    a, trace = dykstra_project(t, y, DykstraConfig(max_sweeps=3000))
    assert trace.converged
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
    a_hat, _ = dykstra_project(t, y, DykstraConfig(max_sweeps=5000))
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
    a_hat, trace = dykstra_project(t, y)
    assert trace.converged
    assert trace.n_sweeps <= 2
    assert np.abs(t.d @ a_hat - y).max() < 1e-10


def _finish_sweeps(trace):
    """The sweeps a run's finish may certify on: checkpoints and its last."""
    k = trace.n_sweeps
    sweeps = {k}
    checkpoint = dykstra.FIRST_CHECKPOINT
    while checkpoint < k:
        sweeps.add(checkpoint)
        checkpoint *= 2
    return sweeps


def _rhs(t, y):
    """f - S Y0, formed from Y as the interior check forms it."""
    return dykstra._rhs(t, y)


def _at_lam_zero(t, y):
    """The abundances of Y0, formed as the certificate forms them."""
    rhs = _rhs(t, y)
    return dykstra._abundances(t, rhs, np.zeros_like(rhs))


def _interior(t, y):
    """The columns whose Y0 passes the certificate with no active set."""
    rhs = _rhs(t, y)
    return dykstra._cert_slack(t, rhs, np.zeros_like(rhs)).min(axis=0) >= 0.0


def _final_interior(t, y):
    """The columns the interior check makes final: those that pass it,
    when they are at least half of the columns, else none."""
    interior = _interior(t, y)
    if 2 * interior.sum() < y.shape[1]:
        interior[:] = False
    return interior


def _observed(t, a):
    """The U an observer sees once a run has written a: D a, which for
    the columns the interior check made final is D a0."""
    return _block_product(t.d, a)


def test_interior_check_reads_rhs_off_y_with_no_drop():
    # f - S Y is the rhs f - S Y0 that the sweep is defined on, to
    # rounding, as S Y0 = S Y; the check's abundances at lam = 0 are
    # D^{-1} Y0 to rounding and the certificate's to the bit, and it
    # flags the columns that the certificate passes at lam = 0.
    _, t, y = _problem(15, spread=10.0)
    y0 = project_hyperplane(t, y)
    scale = 1e-13 * np.abs(y).max()
    rhs = _rhs(t, y)
    assert np.abs(rhs - (t.f[:, None] - t.s @ y0)).max() <= scale
    a0 = dykstra._at_lam_zero(t, rhs)
    assert np.abs(a0 - t.d_inv @ y0).max() <= scale * np.abs(t.d_inv).max()
    assert np.array_equal(a0, _at_lam_zero(t, y))
    t, y = _mostly_interior(20)
    rhs = _rhs(t, y)
    a = np.empty_like(y)
    flags = dykstra._interior_tile(t, y, a, None, slice(None))
    assert np.array_equal(a, rhs)
    assert 0 < flags.sum() < y.shape[1]
    assert np.array_equal(flags, _interior(t, y))


def _check_bookkeeping(t, y, a, trace, cfg):
    n = y.shape[1]
    k = trace.n_sweeps
    assert len(trace.uncertified) == k
    assert (np.diff(trace.elapsed_s) >= 0).all()
    assert 0.0 <= trace.finish_s <= trace.elapsed_s[-1]
    # Columns are only certified where the finish runs, or at sweep 1 by
    # the interior check, and never come back.
    diff = np.diff(trace.uncertified, prepend=n)
    assert (diff <= 0).all()
    drops = np.flatnonzero(diff[1:] < 0) + 2
    assert set(drops.tolist()) <= _finish_sweeps(trace)
    # The check certifies exactly the columns whose Y0 passes the
    # certificate, and only when they are at least half of them; those
    # columns get the abundances it checked, to the bit.
    interior = _final_interior(t, y)
    if 1 not in _finish_sweeps(trace):
        assert -diff[0] == interior.sum()
    assert np.array_equal(a[:, interior], _at_lam_zero(t, y)[:, interior])
    # The run converged iff its last sweep certified the last column;
    # only that, or the sweep budget, ends it.
    stop = trace.uncertified == 0
    assert trace.converged == stop[-1]
    assert not stop[:-1].any()
    assert trace.converged or k == cfg.max_sweeps


def test_trace_bookkeeping_is_consistent():
    _, t, y = _problem(4)
    cfg = DykstraConfig(max_sweeps=400)
    a, trace = dykstra_project(t, y, cfg)
    _check_bookkeeping(t, y, a, trace, cfg)
    assert trace.converged


def _settled_scene():
    """Scene 9 of cli.oracle_runs(1000, 50): its sweeps settle by sweep 2."""
    e, _, cube = make_instance(6, (32, 32), 30.0, 1009)
    t = build_transform(e)
    return t, forward_transform(t, e, cube)


def test_a_run_without_checkpoints_uses_its_whole_budget(monkeypatch):
    # The sweeps stop changing long before the budget, but only the
    # certificate ends a run early: with the checkpoints put off, no
    # column can be certified before the last sweep, whose finish then
    # certifies every one.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    t, y = _settled_scene()
    cfg = DykstraConfig(max_sweeps=8)
    a, trace = dykstra_project(t, y, cfg)
    assert trace.n_sweeps == cfg.max_sweeps
    assert (trace.uncertified[:-1] == trace.uncertified[0]).all()
    assert trace.uncertified[0] > 0 and trace.converged
    _check_bookkeeping(t, y, a, trace, cfg)


def test_a_settled_uncertified_run_is_not_converged(monkeypatch):
    # A certificate that refuses every point (no abundance can be 1 or
    # more) leaves every column uncertified. The sweeps have stopped
    # changing, yet the run must go on to its budget and report it has
    # not converged.
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    t, y = _settled_scene()
    cfg = DykstraConfig(max_sweeps=50)
    a, trace = dykstra_project(t, y, cfg)
    assert trace.n_sweeps == cfg.max_sweeps
    assert not trace.converged
    assert trace.uncertified[-1] == y.shape[1] == 1024
    _check_bookkeeping(t, y, a, trace, cfg)


def _mostly_interior(seed, m=5, n=200, n_bands=24, noise=0.02):
    """Noisy mixtures of E: most of their Y0 are their own projection."""
    rng = np.random.default_rng(seed)
    e = random_endmembers(rng, n_bands, m)
    a = rng.dirichlet(np.ones(m), size=n).T
    x = e.data @ a + noise * rng.standard_normal((n_bands, n))
    t = build_transform(e)
    return t, forward_transform(t, e, x)


def _swept_widths(monkeypatch):
    """sweep -> width of the block that sweep ran on, as runs go."""
    widths = {}
    sweep_tile = dykstra._sweep_tile

    def recorded(t, rhs, tau, sweep, tile):
        widths[sweep] = rhs.shape[1]
        return sweep_tile(t, rhs, tau, sweep, tile)

    monkeypatch.setattr(dykstra, "_sweep_tile", recorded)
    return widths


def test_interior_columns_are_final_before_the_first_sweep(monkeypatch):
    t, y = _mostly_interior(20)
    n = y.shape[1]
    interior = _interior(t, y)
    assert n / 2 <= interior.sum() < n
    widths = _swept_widths(monkeypatch)
    cfg = DykstraConfig()
    a, trace = dykstra_project(t, y, cfg)
    assert np.array_equal(a[:, interior], _at_lam_zero(t, y)[:, interior])
    assert widths[1] == trace.uncertified[0] == n - interior.sum()
    assert trace.converged and trace.uncertified[-1] == 0
    _check_bookkeeping(t, y, a, trace, cfg)
    # With the check stubbed out, the interior columns are swept and
    # finished with the rest, and every column gets the same bits.
    interior_tile = dykstra._interior_tile
    monkeypatch.setattr(
        dykstra, "_interior_tile",
        lambda t, y, a, u, tile: interior_tile(t, y, a, u, tile) & False,
    )
    a_swept, trace_swept = dykstra_project(t, y, cfg)
    assert trace_swept.uncertified[0] == n
    assert np.array_equal(a_swept, a)


def test_a_mostly_exterior_block_is_swept_whole(monkeypatch):
    # Fewer than half of the columns are interior, so the check
    # certifies none of them, and with the checkpoints put off every
    # sweep runs on all n columns.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    _, t, y = _problem(4)
    n = y.shape[1]
    assert 0 < _interior(t, y).sum() < n / 2
    widths = _swept_widths(monkeypatch)
    cfg = DykstraConfig(max_sweeps=4)
    a, trace = dykstra_project(t, y, cfg)
    assert trace.uncertified[0] == n
    assert (trace.uncertified[:-1] == n).all()
    assert widths == {1: n, 2: n, 3: n, 4: n}
    _check_bookkeeping(t, y, a, trace, cfg)


def test_an_all_interior_cube_records_one_converged_sweep(
    tmp_path, monkeypatch, capsys
):
    rng = np.random.default_rng(21)
    e = random_endmembers(rng, 24, 4)
    a = rng.dirichlet(np.ones(4) * 5.0, size=30).T
    cube = ImageCube(e.data @ a, (5, 6))
    t = build_transform(e)
    y = forward_transform(t, e, cube)
    assert _interior(t, y).all()
    widths = _swept_widths(monkeypatch)
    seen = []
    a_hat, trace = dykstra_project(
        t, y, on_sweep=lambda s, u: seen.append((s, u.copy()))
    )
    assert widths == {} and [s for s, _ in seen] == [1]
    assert trace.n_sweeps == 1 and trace.converged
    assert trace.uncertified[0] == 0
    assert np.array_equal(a_hat, _at_lam_zero(t, y))
    # The observer sees D a0, which the check formed from its a0.
    assert np.array_equal(seen[0][1], _observed(t, a_hat))
    write_cube(tmp_path / "scene.cube", cube)
    write_library_csv(
        tmp_path / "scene.csv", SpectralLibrary(e.data, ("a", "b", "c", "d"))
    )
    rc = cli.main([
        "unmix", "--cube", str(tmp_path / "scene.cube"),
        "--endmembers", str(tmp_path / "scene.csv"),
        "--solver", "sudap", "--out", str(tmp_path / "est.abund"),
    ])
    assert rc == 0
    assert "sweeps: 1 (converged: True)" in capsys.readouterr().out
    assert widths == {}


def _fail_pair_solves(monkeypatch):
    """Make every batched 2 x 2 solve raise, as a singular system does."""
    solve = np.linalg.solve

    def fail_on_pairs(a, b):
        if a.shape[-1] == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_on_pairs)


def test_thread_count_does_not_change_a_single_bit(monkeypatch):
    # Points far outside the feasible set of a nearly square E, with
    # every 2 x 2 solve failing: the columns whose seed has two active
    # constraints survive the first checkpoints, so the compacted block
    # is what the threads split, and tiles of 3 columns leave several
    # tiles on either side of the compaction.
    monkeypatch.setattr(dykstra, "TILE", 3)
    _fail_pair_solves(monkeypatch)
    _, t, y = _problem(1, n_bands=7, m=6, n=400, spread=1000.0)
    results = []
    for threads in (1, 3, 4):
        cfg = DykstraConfig(max_sweeps=60, threads=threads)
        a, trace = dykstra_project(t, y, cfg)
        results.append((a, trace))
    a_ref, trace_ref = results[0]
    width = trace_ref.uncertified[FIRST_CHECKPOINT - 1]
    assert 2 * dykstra.TILE < width < y.shape[1]
    assert trace_ref.n_sweeps > FIRST_CHECKPOINT
    for a, trace in results[1:]:
        assert np.array_equal(a, a_ref)
        assert trace.n_sweeps == trace_ref.n_sweeps
        assert np.array_equal(trace.uncertified, trace_ref.uncertified)


@pytest.mark.parametrize("seed, n_bands, m", [(1, 7, 6), (0, 11, 10)])
def test_points_far_outside_the_simplex_certify_and_match_the_oracle(
    seed, n_bands, m
):
    # Pixels of norm about 1e3 have multipliers up to about 1e4, and
    # their active abundances round in proportion. A bound that grew
    # with |U| and |f_i| only left 22 and 280 of these columns
    # uncertified, the second run at the sweep cap.
    e, t, y, x = _problem(
        seed, n_bands=n_bands, m=m, n=400, spread=1000.0, with_x=True
    )
    a, trace = dykstra_project(t, y)
    assert trace.converged and trace.uncertified[-1] == 0
    a_star = _oracle_abundances(e.data.T @ e.data, e.data.T @ x)
    assert np.abs(a - a_star).max() <= 1e-9


@pytest.mark.parametrize(
    "m, n_bands", [(m, b) for m in (4, 6, 10) for b in (m + 1, 24)]
)
def test_every_spread_certifies_at_the_first_checkpoint(m, n_bands):
    # The certificate's bound follows the multipliers, so pixels near the
    # simplex and pixels a thousand times farther out certify alike. The
    # spreads share E, so the oracle runs once on all their columns.
    spreads = (1.0, 10.0, 100.0, 1000.0)
    xs, estimates = [], []
    for spread in spreads:
        e, t, y, x = _problem(2, n_bands=n_bands, m=m, n=8, spread=spread,
                              with_x=True)
        a, trace = dykstra_project(t, y)
        assert trace.n_sweeps <= FIRST_CHECKPOINT
        assert trace.uncertified[-1] == 0
        xs.append(x)
        estimates.append(a)
    a_star = np.split(
        _oracle_abundances(e.data.T @ e.data, e.data.T @ np.hstack(xs)),
        len(spreads), axis=1,
    )
    for spread, a_hat, a in zip(spreads, estimates, a_star):
        assert np.abs(a_hat - a).max() <= 1e-11 * spread


def _exact(seed, m=5, n=60):
    """A problem with its exact projections, from the abundance oracle."""
    e, t, y, x = _problem(seed, m=m, n=n, spread=2.0, with_x=True)
    a_star = solve_oracle_activeset(e, ImageCube(x, (1, n))).a_hat.data
    return t, y, t.d @ a_star, a_star == 0.0


def _finish(t, rhs, tau):
    """The finish's flags, and the abundances of the columns it certified
    (0 elsewhere), written as dykstra_project writes them."""
    certified = _finish_tile(t, rhs, tau, slice(None))
    a = np.zeros_like(rhs)
    dykstra._write_tile(t, a, rhs, tau, np.arange(rhs.shape[1]),
                        np.flatnonzero(certified), slice(None))
    return certified, a


def test_finish_certifies_a_seed_with_one_extra_constraint():
    t, y, u_star, zero = _exact(12)
    m = t.n_endmembers
    j = int(np.flatnonzero((zero.sum(axis=0) >= 1)
                           & (zero.sum(axis=0) <= m - 2))[0])
    extra = int(np.flatnonzero(~zero[:, j])[0])
    tau = zero[:, [j]].astype(float)
    tau[extra] = 1.0
    rhs = _rhs(t, y[:, [j]])
    # The seed's own solve fails on a negative multiplier, so only a
    # drop round can certify the column.
    lam = _solve_active(t.gram, rhs, tau > 0)
    assert lam.min() < 0.0
    certified, a = _finish(t, rhs, tau)
    assert certified.all()
    assert np.abs(t.d @ a - u_star[:, [j]]).max() < 1e-10
    assert np.array_equal(tau[:, 0] > 0, zero[:, j])


def _swept(t, y, sweeps):
    """The block's rhs and its multipliers after a few full sweeps."""
    rhs = _rhs(t, y)
    tau = np.zeros_like(rhs)
    for sweep in range(1, sweeps + 1):
        dykstra._sweep_tile(t, rhs, tau, sweep, slice(None))
    return rhs, tau


def test_finish_starts_a_seed_with_every_constraint_active():
    # Points far outside the feasible set leave some columns with all m
    # multipliers positive after two sweeps. All m constraints tight is
    # no point of the simplex, so the finish drops the smallest one
    # before its first solve, and certifies every column at the first
    # checkpoint.
    _, t, y = _problem(6, n_bands=5, m=4, n=400, spread=100.0)
    rhs, tau = _swept(t, y, FIRST_CHECKPOINT)
    assert (tau > 0).all(axis=0).sum() >= 10
    assert _finish_tile(t, rhs, tau, slice(None)).all()
    _, trace = dykstra_project(t, y)
    assert trace.n_sweeps == FIRST_CHECKPOINT
    assert trace.uncertified[-1] == 0 and trace.converged


def test_finish_leaves_failing_columns_untouched(monkeypatch):
    t, y, u_star, _ = _exact(13)
    rhs, tau = _swept(t, y, 3)
    rhs_before, tau_before = rhs.copy(), tau.copy()
    # No point can pass a certificate asking for abundances of 1 or more.
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    assert not _finish_tile(t, rhs, tau, slice(None)).any()
    assert np.array_equal(tau, tau_before)
    monkeypatch.undo()
    certified, a = _finish(t, rhs, tau)
    assert certified.all()
    assert np.abs(t.d @ a - u_star).max() < 1e-10
    assert np.array_equal(rhs, rhs_before)


def test_sized_solve_matches_a_solve_per_column():
    _, t, y = _problem(14, m=6, n=50)
    m, k = y.shape
    gram = t.gram
    rhs = _rhs(t, y)
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
    rhs, tau = _swept(t, y, 2)
    tau_all = tau.copy()
    certified, a_all = _finish(t, rhs, tau_all)
    assert certified.all()
    assert np.abs(t.d @ a_all - u_star).max() < 1e-10
    for j in range(y.shape[1]):
        # A column's rhs, taken alone, has the bits it has in the block.
        rhs_j = _rhs(t, y[:, [j]])
        assert np.array_equal(rhs_j, rhs[:, [j]])
        tau_j = tau[:, [j]].copy()
        certified_j, a_j = _finish(t, rhs_j, tau_j)
        assert certified_j[0]
        assert np.array_equal(a_j[:, 0], a_all[:, j])
        assert np.array_equal(tau_j[:, 0], tau_all[:, j])


def test_a_failed_solve_leaves_only_its_group_uncertified(monkeypatch):
    t, y, _, _ = _exact(13)
    rhs, tau = _swept(t, y, 2)
    tau_ref = tau.copy()
    reference, a_ref = _finish(t, rhs, tau_ref)
    _fail_pair_solves(monkeypatch)
    tau_new = tau.copy()
    certified, a_new = _finish(t, rhs, tau_new)
    # The columns whose seed has two active constraints fail with their
    # group and are left untouched; the other groups still certify,
    # with the bits they get when no solve fails.
    pairs = (tau > 0).sum(axis=0) == 2
    assert pairs.any() and not certified[pairs].any()
    assert reference.all() and certified[~pairs].all()
    assert (a_new[:, ~certified] == 0.0).all()
    assert np.array_equal(tau_new[:, ~certified], tau[:, ~certified])
    assert np.array_equal(a_new[:, certified], a_ref[:, certified])
    assert np.array_equal(tau_new[:, certified], tau_ref[:, certified])


def _cyclic_sweeps(t, y, sweeps):
    """Hildreth's sweeps carried on U, as the driver ran them before."""
    u = project_hyperplane(t, y)
    tau = np.zeros_like(u)
    for _ in range(sweeps):
        for i in range(t.n_endmembers):
            project_intersection_geometric(t, i, u, tau)
    return u


def _watched_and_plain(t, y, cfg):
    seen = []
    watched = dykstra_project(
        t, y, cfg, on_sweep=lambda s, v: seen.append(v.copy())
    )
    return watched, dykstra_project(t, y, cfg), seen


def _run_case(monkeypatch, case):
    """A problem and budget for each way a run can end.

    "certified" converges, with the interior check certifying most
    columns; "mixed" stops at its budget with some columns certified and
    the rest in a gathered block; "uncertified" certifies none, so its
    swept block is the output array itself in a plain run.
    """
    if case == "certified":
        t, y = _mostly_interior(22, n=300)
        return t, y, DykstraConfig()
    if case == "mixed":
        monkeypatch.setattr(dykstra, "TILE", 7)
        _fail_pair_solves(monkeypatch)
        _, t, y = _problem(1, n_bands=7, m=6, n=400, spread=1000.0)
        return t, y, DykstraConfig(max_sweeps=3)
    monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    t, y = _settled_scene()
    return t, y, DykstraConfig(max_sweeps=5)


@pytest.mark.parametrize("case", ["certified", "mixed", "uncertified"])
def test_a_watched_run_writes_the_bits_of_a_plain_one(monkeypatch, case):
    # A watched run is a plain run plus, after each sweep, U formed from
    # the swept block's multipliers for the observer. Both give each
    # column the same bits, and the observer's last U is D a, or Y0 for
    # the columns the interior check made final.
    t, y, cfg = _run_case(monkeypatch, case)
    (a_w, trace_w), (a_p, trace_p), seen = _watched_and_plain(t, y, cfg)
    assert np.array_equal(a_w, a_p)
    assert np.array_equal(seen[-1], _observed(t, a_p))
    assert trace_w.n_sweeps == trace_p.n_sweeps == len(seen)
    assert np.array_equal(trace_w.uncertified, trace_p.uncertified)
    _check_bookkeeping(t, y, a_p, trace_p, cfg)
    left = trace_p.uncertified[-1]
    if case == "certified":
        assert left == 0 and trace_p.uncertified[0] < y.shape[1]
        return
    assert trace_p.n_sweeps == cfg.max_sweeps
    assert 0 < left and (case == "uncertified") == (left == y.shape[1])
    # An uncertified column's abundances are formed from its
    # multipliers, and D a is the iterate the same sweeps reach on U.
    # The certified columns are far from that iterate, so exactly the
    # uncertified ones agree with it.
    u_cyc = _cyclic_sweeps(t, y, cfg.max_sweeps)
    off = np.abs(t.d @ a_p - u_cyc).max(axis=0)
    assert (off <= 1e-12 * np.abs(u_cyc).max()).sum() == left
    if case == "uncertified":
        # With nothing certified, every watched sweep shows that iterate.
        for sweep, v in enumerate(seen, 1):
            u_k = _cyclic_sweeps(t, y, sweep)
            assert np.abs(v - u_k).max() <= 1e-12 * np.abs(u_k).max()


@pytest.mark.parametrize("watched", ["plain", "watched"])
@pytest.mark.parametrize("case", ["interior", "budget"])
def test_a_run_writes_each_output_column_once(monkeypatch, case, watched):
    # A run, watched or not, writes each column of its output exactly
    # once: the interior check's columns at lam = 0, the columns each
    # finish certifies and, at the budget, the rest. The observer's U is
    # formed from the swept block, not read back from the output.
    if case == "interior":
        t, y = _mostly_interior(20)
        cfg = DykstraConfig()
    else:
        monkeypatch.setattr(dykstra, "TILE", 7)
        _fail_pair_solves(monkeypatch)
        _, t, y = _problem(1, n_bands=7, m=6, n=400, spread=1000.0)
        cfg = DykstraConfig(max_sweeps=3)
    written = []
    write_tile = dykstra._write_tile
    write_interior_tile = dykstra._write_interior_tile

    def recorded(t, a, rhs, lam, cols, pick, tile):
        written.extend(cols[tile if pick is None else pick[tile]].tolist())
        return write_tile(t, a, rhs, lam, cols, pick, tile)

    def recorded_interior(t, a, tile):
        # The pass covers whole tiles, but is final only for the columns
        # the check certified; _write_tile later writes over the others.
        cols = np.arange(a.shape[1])[tile]
        written.extend(cols[final[tile]].tolist())
        return write_interior_tile(t, a, tile)

    monkeypatch.setattr(dykstra, "_write_tile", recorded)
    monkeypatch.setattr(dykstra, "_write_interior_tile", recorded_interior)
    n = y.shape[1]
    final = _final_interior(t, y)
    interior = final.sum()
    on_sweep = None if watched == "plain" else (lambda s, u: None)
    a, trace = dykstra_project(t, y, cfg, on_sweep)
    if case == "interior":
        assert interior > 0 and trace.converged
        assert trace.n_sweeps == FIRST_CHECKPOINT
    else:
        assert interior == 0 and not trace.converged
        assert 0 < trace.uncertified[-1] < trace.uncertified[0] == n
    assert sorted(written) == list(range(n))
    _check_bookkeeping(t, y, a, trace, cfg)


@pytest.mark.parametrize("case", ["certified", "mixed", "uncertified"])
def test_a_plain_run_reads_y_once(monkeypatch, case):
    # Only the interior check reads Y, once per column, in its one
    # product S Y: the finishes and the budget's last write work from
    # rhs and the multipliers alone.
    t, y, cfg = _run_case(monkeypatch, case)
    read, inside = [], []
    block_product = dykstra._block_product
    interior_tile = dykstra._interior_tile

    def recorded(a, z, *args, **kwargs):
        if np.shares_memory(z, y):
            read.append((z.shape[1], bool(inside)))
        return block_product(a, z, *args, **kwargs)

    def checked(*args):
        inside.append(True)
        try:
            return interior_tile(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(dykstra, "_block_product", recorded)
    monkeypatch.setattr(dykstra, "_interior_tile", checked)
    dykstra_project(t, y, cfg)
    assert all(by_check for _, by_check in read)
    assert sum(width for width, _ in read) == y.shape[1]


def test_on_sweep_sees_every_live_iterate():
    _, t, y = _problem(7, n=20)
    seen = []
    cfg = DykstraConfig(max_sweeps=50)
    a, trace = dykstra_project(
        t, y, cfg, on_sweep=lambda s, v: seen.append((s, v.copy()))
    )
    assert [s for s, _ in seen] == list(range(1, trace.n_sweeps + 1))
    assert np.array_equal(seen[-1][1], _observed(t, a))


def test_on_sweep_cannot_write_the_iterate():
    _, t, y = _problem(7, n=20)
    cfg = DykstraConfig(max_sweeps=50)

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
    a_dyk, _ = dykstra_project(t, y, DykstraConfig(max_sweeps=5000))
    # Plain cyclic projection is the same step with tau reset to 0.
    v = project_hyperplane(t, y)
    for _ in range(5000):
        for i in range(t.n_endmembers):
            project_intersection_geometric(t, i, v, np.zeros_like(v))
    d_dyk = np.linalg.norm(y - t.d @ a_dyk, axis=0)
    d_cyc = np.linalg.norm(y - v, axis=0)
    assert (d_dyk <= d_cyc + 1e-9).all()
    assert (d_cyc - d_dyk).max() > 1e-6


def test_driver_memory_does_not_grow_with_m(monkeypatch):
    # The driver keeps one m x n block and one multiplier per constraint
    # and pixel, not one m x n correction matrix per constraint, so its peak
    # is a few m x n blocks whatever m is. Every run ends in the finish;
    # the longer ones also reach the first checkpoint. Nearly every
    # column of the first problem is outside the simplex, so its interior
    # check gathers nothing; most of the second's are inside, so the
    # check gathers the rest into a narrower block.
    m, n = 10, 20_000
    _, t, y = _problem(11, m=m, n=n)
    t_in, y_in = _mostly_interior(11, m=m, n=n)
    assert _interior(t, y).sum() < n / 2 <= _interior(t_in, y_in).sum()
    problems = (("exterior", t, y), ("interior", t_in, y_in))
    for name, t_k, y_k in problems:
        for sweeps in (FIRST_CHECKPOINT - 1, FIRST_CHECKPOINT + 1):
            _, peak = traced_peak(lambda: dykstra_project(
                t_k, y_k, DykstraConfig(max_sweeps=sweeps)
            ))
            assert peak < 8 * m * n * 8, (
                f"{name}, {sweeps} sweeps: "
                f"peak {peak / (m * n * 8):.2f} m*n floats"
            )
    # On tiles of 256 columns the finish's temporaries are small, so the
    # peak shows the state itself: the output (rhs, then abundances) and
    # tau, or the output and a gathered rhs and tau no wider than half of
    # it, with no copy of Y in either layout and no Y0 kept. A watched
    # run holds one block more, the U it shows, and no copy of the
    # swept block.
    monkeypatch.setattr(dykstra, "TILE", 256)
    watchers = ((None, 2.5), (lambda s, u: None, 2.5 + 1))
    for name, t_k, y_k in problems:
        for layout in (np.ascontiguousarray, np.asfortranarray):
            y_laid = layout(y_k)
            for sweeps in (FIRST_CHECKPOINT - 1, FIRST_CHECKPOINT + 1):
                for on_sweep, bound in watchers:
                    _, peak = traced_peak(lambda: dykstra_project(
                        t_k, y_laid, DykstraConfig(max_sweeps=sweeps),
                        on_sweep,
                    ))
                    assert peak < bound * m * n * 8, (
                        f"{name}, {layout.__name__}, {sweeps} sweeps, "
                        f"watched {on_sweep is not None}: "
                        f"peak {peak / (m * n * 8):.2f} m*n floats"
                    )
