import itertools
import warnings

import numpy as np
import pytest

import sudap.cli as cli
from sudap import dykstra, io, metrics, model, solver
from sudap import (
    DykstraConfig,
    EndmemberMatrix,
    ImageCube,
    relative_error_db,
    solve_oracle_activeset,
    solve_sudap,
)
from sudap.dykstra import FIRST_CHECKPOINT
from sudap.errors import (
    DimensionMismatch,
    NoKKTPoint,
    RankDeficient,
    TooManyEndmembers,
)
from sudap.metrics import objective
from sudap.model import AbundanceMatrix, column_feasibility
from sudap.simdata import (
    NoiseSpec,
    child_seeds,
    make_instance,
    make_scene,
    make_synthetic_library,
    sample_abundances,
    select_endmember_indices,
    synthesize_cube,
)
from sudap.solver import (
    clip_negatives,
    solve_ls,
    solve_ls_sum1,
)
from sudap.subspace import build_transform, forward_transform
from conftest import fail_pair_solves, random_endmembers, traced_peak


def _random_problem(seed, n_bands=32, m=5, n=64, snr_db=25.0):
    return make_instance(m, (1, n), snr_db, seed, n_bands=n_bands)


def test_ls_matches_lstsq():
    rng = np.random.default_rng(30)
    e = random_endmembers(rng, 28, 6)
    x = ImageCube(rng.standard_normal((28, 40)), (1, 40))
    result = solve_ls(e, x)
    expected, *_ = np.linalg.lstsq(e.data, x.data, rcond=None)
    assert np.allclose(result.a_hat.data, expected, atol=1e-10)
    assert result.solver_id == "ls"
    assert result.trace.n_sweeps == 0
    assert result.wall_time >= 0.0


def test_ls_sum1_sums_to_one_and_is_stationary():
    rng = np.random.default_rng(31)
    e = random_endmembers(rng, 30, 5)
    x = ImageCube(rng.standard_normal((30, 50)), (1, 50))
    result = solve_ls_sum1(e, x)
    a = result.a_hat.data
    assert np.abs(a.sum(axis=0) - 1.0).max() < 1e-10
    # Stationarity on the sum hyperplane: the gradient G a - E'x must be
    # a multiple of the all-ones vector for every pixel.
    grad = e.data.T @ e.data @ a - e.data.T @ x.data
    spread = grad.max(axis=0) - grad.min(axis=0)
    assert spread.max() < 1e-9
    # And it can only improve on the fully constrained solution.
    fcls = solve_oracle_activeset(e, x)
    assert objective(e, x, a) <= objective(e, x, fcls.a_hat) + 1e-9


@pytest.mark.parametrize("m", [4, 6, 8])
def test_ls_sum1_is_the_oracle_on_interior_pixels(m):
    # One sum-to-one solve serves both: where every abundance of the
    # answer is positive, ls_sum1's columns are the oracle's, bit for bit.
    e, _, x = make_instance(m, (1, 200), np.inf, 0)
    oracle = solve_oracle_activeset(e, x).a_hat.data
    assert (oracle > 0.0).all()
    assert np.array_equal(solve_ls_sum1(e, x).a_hat.data, oracle)


def test_oracle_output_satisfies_kkt_certificate():
    # Independent verification of the oracle itself: feasibility plus
    # complementary slackness checked directly from G and E'x, with no
    # reference to how the solver found its active sets. The second
    # problem's pixels resolve at six sizes of the pinned set, 0 to 5
    # (7, 56, 127, 141, 61 and 8 pixels), so the unresolved columns
    # shrink at every size the enumeration passes through.
    for e, _, x in (_random_problem(32, m=6, n=120),
                    _random_problem(7, m=8, n=400, snr_db=5.0)):
        result = solve_oracle_activeset(e, x)
        a = result.a_hat.data
        assert a.min() >= -1e-12
        assert np.abs(a.sum(axis=0) - 1.0).max() < 1e-9
        g = e.data.T @ e.data
        r = g @ a - e.data.T @ x.data
        for j in range(a.shape[1]):
            free = a[:, j] > 1e-10
            assert free.any()
            mu = -r[free, j]
            assert mu.max() - mu.min() < 1e-8 * max(1.0, np.abs(mu).max())
            if (~free).any():
                lam = r[~free, j] + mu.mean()
                assert lam.min() > -1e-8


def test_oracle_names_every_pixel_without_a_kkt_point(monkeypatch):
    # A dual slack no multiplier can clear leaves exactly the exterior
    # pixels, the 28 whose full-set solve has a negative abundance,
    # unresolved after every candidate set.
    e, _, x = _random_problem(32, m=6, n=120)
    monkeypatch.setattr(solver, "DUAL_TOL", -1e300)
    with pytest.raises(NoKKTPoint, match=r"^28 pixel\(s\) admitted no"):
        solve_oracle_activeset(e, x)


def _first_kkt_point(g, h):
    """The set-by-set enumeration for one pixel (G = E'E, h = E'x): the
    first candidate set, smallest first and in combinations order, whose
    bordered solve passes the oracle's checks, and its abundances."""
    m = g.shape[0]
    for size in range(m):
        for zeroed in itertools.combinations(range(m), size):
            pinned = np.array(zeroed, dtype=int)
            free = np.setdiff1d(np.arange(m), pinned)
            f = free.size
            k = np.zeros((f + 1, f + 1))
            k[:f, :f] = g[np.ix_(free, free)]
            k[:f, f] = k[f, :f] = 1.0
            sol = np.linalg.solve(k, np.append(h[free], 1.0))
            lam = g[np.ix_(pinned, free)] @ sol[:f] - h[pinned] + sol[f]
            if (sol[:f].min() >= -solver.PRIMAL_TOL
                    and (lam >= -solver.DUAL_TOL).all()):
                a = np.zeros(m)
                a[free] = sol[:f]
                return a
    raise AssertionError("no candidate set passes")


def test_stacked_enumeration_picks_the_set_by_set_winner():
    # Pixels resolve at six pinned-set sizes here, in chunks that grow
    # from one set to dozens as pixels resolve; every pixel must take
    # the set a one-by-one loop accepts first.
    e, _, x = _random_problem(7, m=8, n=400, snr_db=5.0)
    a = solve_oracle_activeset(e, x).a_hat.data
    g, h = e.data.T @ e.data, e.data.T @ x.data
    ref = np.column_stack([_first_kkt_point(g, h[:, j])
                           for j in range(h.shape[1])])
    assert np.array_equal(a == 0.0, ref == 0.0)
    assert np.abs(a - ref).max() <= 1e-12


def test_oracle_stacks_the_candidate_sets_of_a_size(monkeypatch):
    # One _sum_to_one call per candidate set made 215 calls here.
    e, _, x = _random_problem(7, m=8, n=400, snr_db=5.0)
    calls = []
    real = solver._sum_to_one
    monkeypatch.setattr(solver, "_sum_to_one",
                        lambda g, h: calls.append(g.shape) or real(g, h))
    solve_oracle_activeset(e, x)
    assert len(calls) < 100


def test_oracle_beats_every_feasible_competitor():
    e, a_true, x = _random_problem(33, m=5, n=40, snr_db=15.0)
    best = objective(e, x, solve_oracle_activeset(e, x).a_hat)
    rng = np.random.default_rng(34)
    competitors = [a_true.data]
    clamped = solve_ls_sum1(e, x).a_hat.data.clip(min=0.0)
    competitors.append(clamped / clamped.sum(axis=0))
    competitors.extend(
        rng.dirichlet(np.ones(5), size=40).T for _ in range(20)
    )
    for cand in competitors:
        assert best <= objective(e, x, cand) + 1e-9


def test_sudap_agrees_with_oracle():
    for seed, m in ((35, 3), (36, 5), (37, 8)):
        e, _, x = _random_problem(seed, m=m, n=100)
        cfg = DykstraConfig(max_sweeps=5000)
        sudap = solve_sudap(e, x, cfg)
        oracle = solve_oracle_activeset(e, x)
        assert relative_error_db(sudap.a_hat, oracle.a_hat) < -120.0
        report = column_feasibility(sudap.a_hat)
        assert report.max_sum_violation < 1e-9
        assert report.min_entry > -1e-7
        assert sudap.solver_id == "sudap"
        assert sudap.trace.converged


def test_sudap_output_is_exact_on_clean_interior_data():
    # Noiseless mixtures of strictly interior abundances are already
    # feasible, so the projection returns them unchanged.
    rng = np.random.default_rng(38)
    e = random_endmembers(rng, 40, 6)
    a = rng.dirichlet(np.ones(6) * 8.0, size=70).T
    x = ImageCube(e.data @ a, (1, 70))
    result = solve_sudap(e, x)
    assert np.abs(result.a_hat.data - a).max() < 1e-10


def test_stages_split_the_wall_time_and_a_reduced_cube_solves_alike():
    e, _, x = _random_problem(40, m=5, n=300)
    direct = solve_sudap(e, x)
    stages = ("transform", "forward", "project", "finish")
    assert tuple(direct.stages) == stages
    assert min(direct.stages.values()) >= 0.0
    assert sum(direct.stages.values()) <= direct.wall_time
    assert solve_ls(e, x).stages == {}
    with pytest.raises(DimensionMismatch):
        solve_sudap(EndmemberMatrix(e.data[:20]), x)


def test_an_image_cube_streams_into_the_solve(monkeypatch):
    # The finiteness check made on construction gives the cube its
    # |X|^2, so neither the solve nor the objective sums the cube again.
    # (The abundance matrix the solve returns is checked, and summed, as
    # every matrix is.)
    e, _, x = _random_problem(41, m=5, n=300)
    assert x.sum_sq == model.sum_of_squares(x.data)
    summed = []
    for module in (model, solver, io, metrics):
        real = getattr(module, "sum_of_squares", None)
        if real is not None:
            monkeypatch.setattr(
                module, "sum_of_squares",
                lambda arr, real=real: summed.append(arr.shape) or real(arr),
            )
    direct = solve_sudap(e, x)
    assert direct.objective == pytest.approx(
        objective(e, x, direct.a_hat), rel=1e-12)
    assert summed and x.data.shape not in summed
    # Finite entries whose squares overflow: no error and no warning,
    # and |X|^2 is inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = ImageCube(np.full((3, 12), 1e300), (3, 4))
    assert huge.sum_sq == np.inf


def test_an_image_cube_is_solved_without_holding_y(monkeypatch):
    # Y is mapped block by block into the interior check, so the solve
    # holds the abundances a and, for the 7 % of pixels the check leaves,
    # a gathered rhs and tau: 1.28 m x n floats, measured. Beside them
    # it holds only per-tile temporaries, which tiles of 256 columns
    # keep small. A whole Y beside a (2.24 m x n floats) fails the bound.
    monkeypatch.setattr(dykstra, "TILE", 256)
    m, n = 5, 40_000
    e, _, x = make_instance(m, (200, 200), 25.0, 41, n_bands=32)
    result, peak = traced_peak(lambda: solve_sudap(e, x))
    assert result.trace.converged
    assert 0 < result.trace.uncertified[0] < n / 10
    assert peak < 2 * m * n * 8 + 10 * m * dykstra.TILE * 8


def _edge_pixel_scene():
    """A noiseless scene on scene m=4's endmembers, and its count k.

    Pixels 0 to k pass the interior check with abundances at or just
    below 0. Pixel 0 has (-4e-13, 0.3, 0.3, 0.4 + 4e-13). Pixels 1 to k
    lie on edges of the simplex, where f_i - s_i'y came out exactly 0:
    they are those of 60 edge pixels for which it did. The next 20
    pixels lie inside the simplex, and the last 20 have a first
    abundance of -0.05 to -0.15.
    """
    e, _, _ = make_instance(4, (1, 1), 5.0, 15, n_bands=48)
    rng = np.random.default_rng(8)
    edges = np.zeros((4, 60))
    for k, (i, j) in enumerate(itertools.combinations(range(4), 2)):
        edges[i, k::6] = rng.random(10)
        edges[j, k::6] = 1.0 - edges[i, k::6]
    t = build_transform(e)
    rhs = dykstra._rhs(t, forward_transform(t, e, e.data @ edges))
    edges = edges[:, (rhs == 0.0).any(axis=0)]
    outside = np.vstack([-0.05 - 0.1 * rng.random(20), np.zeros((3, 20))])
    outside[1:] = rng.dirichlet(np.ones(3), 20).T * (1.0 - outside[0])
    a = np.hstack([[[-4e-13], [0.3], [0.3], [0.4 + 4e-13]], edges,
                   rng.dirichlet(np.ones(4), 20).T, outside])
    return e, ImageCube(e.data @ a, (1, a.shape[1])), edges.shape[1]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("capped", [False, True])
def test_a_pixels_output_bits_depend_on_that_pixel_alone(
        tmp_path, monkeypatch, capped, threads):
    # The contract that lets the solve cut the cube into tiles and
    # chunks: a permuted cube's output is the permuted output, and any
    # subset of the pixels solved alone gets its columns of the whole
    # cube's output, bit for bit, in memory or from a file. Tiles of 32
    # columns cut the 600-pixel scenes many times over. The interior
    # check makes about 60 % of scene m=4's pixels final and fewer than
    # half of scene m=6's, so it sweeps all of them. The edge scene's
    # first pixels pass the check with abundances at or just below 0:
    # solved with the pixels inside the simplex, the rest are gathered;
    # solved with those outside, every pixel is swept, and each must
    # still output its a0, to the sign of a zero. The capped run's
    # certificate refuses every point, so its 3-sweep budget leaves every
    # pixel uncertified, with the abundances of its last multipliers.
    monkeypatch.setattr(dykstra, "TILE", 32)
    if capped:
        monkeypatch.setattr(dykstra, "CERT_TOL", -1.0)
    cfg = DykstraConfig(max_sweeps=3 if capped else 2000, threads=threads)
    rng = np.random.default_rng(7)
    scenes = []
    for m, snr in ((4, 5.0), (6, 3.0)):
        e, _, x = make_instance(m, (20, 30), snr, 11 + m, n_bands=48)
        n = x.n_pixels
        scenes.append((e, x, (rng.permutation(n),
                              rng.choice(n, n // 3, replace=False))))
    e, x, k = _edge_pixel_scene()
    assert 0 < k < 19
    n = x.n_pixels
    scenes.append((e, x, (rng.permutation(n), np.arange(k + 21),
                          np.r_[0:k + 1, k + 21:n])))
    for e, x, subsets in scenes:
        whole = solve_sudap(e, x, cfg)
        assert whole.trace.converged is not capped
        for idx in subsets:
            part = ImageCube(x.data[:, idx], (1, idx.size))
            io.write_cube(tmp_path / "part.cube", part)
            with io.open_cube(tmp_path / "part.cube") as source:
                from_file = solve_sudap(e, source, cfg)
            expected = whole.a_hat.data[:, idx].tobytes()
            for result in (solve_sudap(e, part, cfg), from_file):
                assert result.a_hat.data.tobytes() == expected
    if not capped:
        # The edge scene, last, kept pixel 0's a0 below 0.
        assert -dykstra.CERT_TOL <= whole.a_hat.data[0, 0] < 0.0


def test_a_watched_pixel_shows_its_a0_on_either_route():
    # The edge scene's first pixels pass the interior check. Solved with
    # the pixels inside the simplex, they are gathered out of the swept
    # block; solved with those outside, every pixel is swept. Either
    # way the observer's U of such a pixel is D a0 from sweep 1 on, to
    # the bit.
    e, x, k = _edge_pixel_scene()
    n = x.n_pixels
    seen = {}
    for route, idx in (("gathered", np.arange(k + 21)),
                       ("swept", np.r_[0:k + 1, k + 21:n])):
        rows = seen[route] = []
        solve_sudap(e, ImageCube(x.data[:, idx], (1, idx.size)),
                    on_sweep=lambda sweep, u: rows.append(u[:, :k + 1].copy()))
    assert len(seen["swept"]) > 1
    first = seen["gathered"][0].tobytes()
    for u in seen["gathered"] + seen["swept"]:
        assert u.tobytes() == first


def test_the_sweep_and_the_certificate_read_rows_contiguous(
        tmp_path, monkeypatch):
    # The sweep's row products of G tau and the certificate's sum of lam
    # are one-row _block_products, whose bits are a column's own only on
    # blocks with contiguous rows. So rhs, tau and lam keep strides[1]
    # == 8 on either route of the interior check (scene m=4 gathers, and
    # scene m=6 sweeps every pixel), for a cube in memory and from a
    # file. Tiles of 64 columns put the 600 pixels in one chunk. With
    # every 2 x 2 solve failing, columns outlive the first checkpoint, so
    # the blocks gathered after a finish are swept too.
    monkeypatch.setattr(dykstra, "TILE", 64)
    fail_pair_solves(monkeypatch)
    strides, swept_all, sweeps = [], set(), set()
    sweep_tile, cert_slack = dykstra._sweep_tile, dykstra._cert_slack

    def sweep_recorded(t, rhs, tau, sweep, tile):
        strides.extend((rhs.strides[1], tau.strides[1]))
        sweeps.add(sweep)
        if sweep == 1:
            swept_all.add(rhs.shape[1] == 600)
        return sweep_tile(t, rhs, tau, sweep, tile)

    def cert_recorded(t, rhs, lam):
        strides.append(lam.strides[1])
        return cert_slack(t, rhs, lam)

    monkeypatch.setattr(dykstra, "_sweep_tile", sweep_recorded)
    monkeypatch.setattr(dykstra, "_cert_slack", cert_recorded)
    cfg = DykstraConfig(max_sweeps=2 * FIRST_CHECKPOINT + 1)
    for m, snr in ((4, 5.0), (6, 3.0)):
        e, _, x = make_instance(m, (20, 30), snr, 11 + m, n_bands=48)
        io.write_cube(tmp_path / "x.cube", x)
        with io.open_cube(tmp_path / "x.cube") as source:
            for cube in (x, source):
                solve_sudap(e, cube, cfg)
    assert swept_all == {False, True}
    assert cfg.max_sweeps in sweeps
    assert strides and set(strides) == {8}


def test_a_sink_takes_the_abundances_chunk_by_chunk(monkeypatch):
    # Chunks of four tiles of 64 columns: the 600 pixels come to the sink
    # in chunks of 256, 256 and 88, with the bits, the trace and the
    # objective of a run that keeps them all; the run keeps none. With
    # one endmember the sink gets the ones in one chunk.
    monkeypatch.setattr(dykstra, "TILE", 64)
    monkeypatch.setattr(dykstra, "CHUNK_TILES", 4)
    e, _, x = make_instance(6, (20, 30), 3.0, 17, n_bands=48)
    kept = solve_sudap(e, x)
    chunks = []
    sunk = solve_sudap(e, x, sink=lambda a: chunks.append(a.copy()))
    assert sunk.a_hat is None
    assert [a.shape[1] for a in chunks] == [256, 256, 88]
    assert np.hstack(chunks).tobytes() == kept.a_hat.data.tobytes()
    assert np.array_equal(sunk.trace.uncertified, kept.trace.uncertified)
    assert sunk.objective == kept.objective
    assert tuple(sunk.stages) == tuple(kept.stages)
    assert sum(sunk.stages.values()) <= sunk.wall_time
    chunks.clear()
    one = EndmemberMatrix(e.data[:, :1])
    assert solve_sudap(one, x, sink=chunks.append).a_hat is None
    assert len(chunks) == 1 and np.array_equal(chunks[0], np.ones((1, 600)))


def test_single_endmember_short_circuits():
    e = EndmemberMatrix(np.linspace(1.0, 2.0, 9).reshape(9, 1))
    x = ImageCube(np.tile(e.data, (1, 7)) * 1.01, (1, 7))
    for solve in (solve_sudap, solve_oracle_activeset, solve_ls_sum1):
        result = solve(e, x)
        assert np.array_equal(result.a_hat.data, np.ones((1, 7)))


def test_oracle_endmember_cap():
    rng = np.random.default_rng(39)
    e = random_endmembers(rng, 20, 15)
    x = ImageCube(rng.standard_normal((20, 4)), (1, 4))
    with pytest.raises(TooManyEndmembers):
        solve_oracle_activeset(e, x)


def test_rank_deficient_endmembers_are_rejected():
    col = np.linspace(0.5, 1.5, 16)
    e = EndmemberMatrix(np.column_stack([col, 2.0 * col, col ** 2]))
    x = ImageCube(np.ones((16, 3)), (1, 3))
    for solve in (solve_ls, solve_ls_sum1, solve_oracle_activeset):
        with pytest.raises(RankDeficient):
            solve(e, x)
    with pytest.raises(RankDeficient):
        objective(e, x, np.full((3, 3), 1.0 / 3.0))


def test_clip_negatives_cleans_roundoff_but_not_real_violations():
    raw = np.array(
        [
            [0.5, -5e-8, 0.2],
            [0.5, 0.6, -0.3],
            [-1e-9, 0.4, 1.1],
        ]
    )
    a = AbundanceMatrix(raw, (1, 3))
    out = clip_negatives(a).data
    # Tiny negatives vanish and the columns renormalize...
    assert out.min(axis=0)[0] == 0.0
    assert out.min(axis=0)[1] == 0.0
    assert np.abs(out[:, :2].sum(axis=0) - 1.0).max() < 1e-12
    # ...but a -0.3 entry signals a real problem and is kept.
    assert out[1, 2] == -0.3


def test_solvers_rank_as_expected_on_noisy_data():
    # Adding constraints can only raise the residual: ls <= ls_sum1 <=
    # fully constrained. On noisy data the inequalities are strict with
    # probability one.
    e, _, x = _random_problem(40, m=6, n=90, snr_db=10.0)
    j_ls = objective(e, x, solve_ls(e, x).a_hat)
    j_sum1 = objective(e, x, solve_ls_sum1(e, x).a_hat)
    j_fcls = objective(e, x, solve_oracle_activeset(e, x).a_hat)
    assert j_ls <= j_sum1 + 1e-9
    assert j_sum1 <= j_fcls + 1e-9


def test_deep_scene_that_used_to_stall_matches_the_oracle():
    # The benchmark's 64 x 64, m = 14, SNR 20 dB recipe at scene seed 0,
    # where plain sweeps stopped at the 2000-sweep cap at -59.8 dB.
    rng = np.random.default_rng(0)
    s_lib, s_sel, s_ab, s_noise = (
        int(s) for s in rng.integers(0, 2**63 - 1, size=4)
    )
    lib = make_synthetic_library(224, 24, seed=s_lib)
    idx = select_endmember_indices(lib, 14, 10.0, s_sel)
    e = EndmemberMatrix(lib.signatures[:, idx].copy())
    a = AbundanceMatrix(
        sample_abundances(14, 64 * 64, s_ab).data, (64, 64), feasible=True
    )
    x = synthesize_cube(e, a, NoiseSpec(20.0, s_noise), (64, 64))
    result = solve_sudap(e, x, DykstraConfig())
    assert result.trace.converged
    assert result.trace.uncertified[-1] == 0
    oracle = solve_oracle_activeset(e, x)
    assert relative_error_db(result.a_hat, oracle.a_hat) <= -120.0


def test_beyond_the_oracle_cap_every_pixel_meets_kkt():
    lib = make_synthetic_library(224, 24, seed=1)
    _, e, _, x = make_scene(lib, 20, 10.0, (16, 16), 20.0, child_seeds(1, 3))
    result = solve_sudap(e, x, DykstraConfig())
    assert result.trace.converged
    assert result.trace.uncertified[-1] == 0
    # KKT of min |x - E a|^2 over the simplex, checked on E directly:
    # with g = E'(E a - x) there is a mu per pixel with g_i + mu = 0
    # where a_i > 0 and g_i + mu >= 0 where a_i = 0.
    a = result.a_hat.data
    g = e.data.T @ (e.data @ a - x.data)
    free = a > 1e-9
    mu = -np.sum(np.where(free, g, 0.0), axis=0) / free.sum(axis=0)
    slack = (g + mu) / np.abs(e.data.T @ e.data).max()
    assert a.min() >= -1e-12
    assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-10
    assert np.abs(slack[free]).max() <= 1e-9
    assert slack[~free].min() >= -1e-9


def test_ill_conditioned_endmembers_certify_within_a_small_budget():
    # cond(E'E) is about 1e7 here, so the abundances of active
    # constraints round to about -1e-12 rather than 0. An absolute
    # -CERT_TOL floor left 8 pixels uncertified until the sweep cap; a
    # bound scaled by each abundance's rounding scale, with 3m drop/add
    # rounds, certifies them all at the first checkpoint.
    lib = make_synthetic_library(224, 24, seed=1)
    for snr in (0.0, 5.0):
        _, e, _, x = make_scene(lib, 20, 5.0, (30, 30), snr,
                                child_seeds(2, 3))
        result = solve_sudap(e, x, DykstraConfig(max_sweeps=200))
        assert result.trace.converged
        assert result.trace.uncertified[-1] == 0
        assert result.trace.n_sweeps == FIRST_CHECKPOINT
        a = result.a_hat.data
        assert a.min() >= -1e-10
        assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-10


def _conditioned(seed, m, cond, spread, smallest=1.0, n=200):
    """E with cond(E'E) = cond, its singular values log-spaced upwards
    from smallest, and n pixels of N(0, spread^2) noise in 24 bands."""
    rng = np.random.default_rng(
        [seed, m, round(np.log10(cond)), round(spread)]
    )
    q1, _ = np.linalg.qr(rng.standard_normal((24, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sv = smallest * np.logspace(0.0, 0.5 * np.log10(cond), m)
    e = EndmemberMatrix(q1 @ np.diag(sv) @ q2.T)
    return e, ImageCube(rng.standard_normal((24, n)) * spread, (1, n))


# The grid of (m, cond, spread) at smallest = 1, seed 0, then the far-out
# pixels of an E whose singular values run from 1e-4 to 1, seeds 0-11.
_CONDITIONING = [
    pytest.param(0, m, cond, spread, 1.0, id=f"{m}-{cond}-{spread}")
    for m in (4, 8) for cond in (1e2, 1e5, 1e8) for spread in (1.0, 100.0)
] + [
    pytest.param(seed, 8, 1e8, 100.0, 1e-4, id=f"smallest1e-4-seed{seed}")
    for seed in range(12)
]


@pytest.mark.parametrize("seed, m, cond, spread, smallest", _CONDITIONING)
def test_a_converged_run_matches_the_oracle_at_any_conditioning(
    seed, m, cond, spread, smallest
):
    # A run may end loud (not converged) on an ill-conditioned E, but a
    # run that reports converged must be the exact answer.
    e, x = _conditioned(seed, m, cond, spread, smallest=smallest)
    result = solve_sudap(e, x, DykstraConfig(max_sweeps=200))
    if result.trace.converged:
        a_star = solve_oracle_activeset(e, x).a_hat
        assert relative_error_db(result.a_hat, a_star) <= cli.ORACLE_RE_DB


@pytest.mark.parametrize("seed, m, cond, spread, smallest", _CONDITIONING)
def test_oracle_columns_sum_to_one_at_any_conditioning(
    seed, m, cond, spread, smallest
):
    # Each bordered system is solved through its explicit inverse, which
    # holds the sum row only to rounding: the worst column is 1.7e-12
    # off 1 (m = 8, cond 1e8, spread 100).
    e, x = _conditioned(seed, m, cond, spread, smallest=smallest)
    a = solve_oracle_activeset(e, x).a_hat.data
    assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-11
    assert a.min() >= 0.0


def test_far_out_pixels_of_an_ill_conditioned_e_certify_on_the_oracle():
    # With E's singular values from 1e-4 to 1, pixels of norm about 500
    # have multipliers up to 3e5, and the certificate's bound on their
    # abundances, CERT_TOL p_norms_i (|rhs_i| + sum_j lam_j), reaches
    # about 1e-3. Mapping the certified point back through D^{-1}, whose
    # condition number is 1e4 here, left a vertex pixel's active
    # abundances near -3e-6 instead of 0, 1e-6 off the oracle (-112 dB).
    # The output is now the certificate's own abundances, and agrees
    # with the oracle (which a 60-digit solve of the same problem
    # confirms to -288 dB).
    e, x = _conditioned(0, 8, 1e8, 100.0, smallest=1e-4)
    result = solve_sudap(e, x, DykstraConfig(max_sweeps=200))
    assert result.trace.converged
    a_star = solve_oracle_activeset(e, x).a_hat
    assert relative_error_db(result.a_hat, a_star) <= cli.ORACLE_RE_DB


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="abundances read off multipliers up to 3e5 round "
                   "outside EPS_SUM and EPS_NEG")
def test_a_converged_run_on_an_ill_conditioned_e_is_feasible():
    # The far-out pixels above, at the seed with the worst rounding: the
    # run is certified and agrees with the oracle, but its column sums
    # are 2.49e-6 off 1 and its smallest abundance is -8.84e-7, where the
    # oracle's are exact. A re-solve of each certified pixel's free set
    # in abundance space would make this pass.
    e, x = _conditioned(4, 8, 1e8, 100.0, smallest=1e-4)
    result = solve_sudap(e, x, DykstraConfig(max_sweeps=200))
    if not result.trace.converged:
        pytest.fail("the run no longer converges, so it shows nothing here")
    assert column_feasibility(result.a_hat).feasible
