import dataclasses

import numpy as np
import pytest

from sudap import (
    CurveRecorder,
    EndmemberMatrix,
    ImageCube,
    relative_error_db,
    solve_oracle_activeset,
)
from sudap import dykstra, metrics
from sudap.dykstra import dykstra_project
from sudap.errors import DimensionMismatch, ShapeMismatch, ZeroReference
from sudap import io as sio
from sudap.io import open_cube, write_cube
from sudap.metrics import nmse_db, objective
from sudap.model import AbundanceMatrix
from sudap.projectors import project_hyperplane
from sudap.simdata import make_instance
from sudap.subspace import (
    build_transform,
    forward_transform,
    inverse_transform,
)
from conftest import traced_peak


def test_relative_error_in_decibels_matches_hand_computation():
    ref = np.full((2, 2), 0.5)
    err = np.zeros((2, 2))
    err[0, 0] = 0.1
    # |err|^2 / |ref|^2 = 0.01 / 1.0 -> -20 dB.
    assert relative_error_db(ref + err, ref) == pytest.approx(-20.0)
    assert nmse_db(ref + err, ref) == pytest.approx(-20.0)


def test_exact_match_maps_to_negative_infinity():
    ref = np.array([[0.3, 0.7], [0.7, 0.3]])
    assert relative_error_db(ref.copy(), ref) == -np.inf


def test_error_metrics_reject_bad_references():
    ref = np.ones((2, 3))
    with pytest.raises(ShapeMismatch):
        relative_error_db(np.ones((2, 4)), ref)
    with pytest.raises(ZeroReference):
        nmse_db(np.ones((2, 3)), np.zeros((2, 3)))


def test_objective_is_the_squared_residual():
    e = EndmemberMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    x = ImageCube(np.array([[1.0], [0.0], [2.0]]), (1, 1))
    a = np.array([[1.0], [0.0]])
    # X - EA = (0, 0, 1).
    assert objective(e, x, a) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        objective(e, ImageCube(np.ones((4, 1)), (1, 1)), a)
    with pytest.raises(DimensionMismatch):
        objective(e, x, np.ones((3, 1)))
    # A wrong pixel count names both counts.
    e, _, cube = make_instance(5, (4, 5), 30.0, 1)
    with pytest.raises(DimensionMismatch, match="sizes 20 and 7"):
        objective(e, cube, np.full((5, 7), 0.2))


@pytest.mark.parametrize("call", [
    lambda e, cube: objective(e, cube, np.full(5, 0.2)),
    lambda e, cube: forward_transform(build_transform(e), e, np.ones(64)),
], ids=["objective", "forward_transform"])
def test_a_vector_for_a_matrix_is_a_shape_mismatch(call):
    e, _, cube = make_instance(5, (4, 5), 30.0, 1)
    with pytest.raises(ShapeMismatch, match="must be 2-D"):
        call(e, cube)


def test_objective_of_one_endmember_is_the_direct_residual():
    rng = np.random.default_rng(62)
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, (9, 1)))
    cube = ImageCube(rng.uniform(0.1, 1.0, (9, 6)), (2, 3))
    a = np.ones((1, 6))
    r = cube.data - e.data @ a
    # One block of dykstra.TILE columns: the same sum, to the bit.
    assert objective(e, cube, a) == np.einsum("ij,ij->", r, r)
    assert objective(e, cube, a) == pytest.approx(np.linalg.norm(r) ** 2)


def test_objective_of_one_endmember_holds_one_tile_at_a_time():
    rng = np.random.default_rng(64)
    bands, n = 16, 4 * dykstra.TILE
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, (bands, 1)))
    cube = ImageCube(rng.uniform(0.1, 1.0, (bands, n)), (4, dykstra.TILE))
    a = np.ones((1, n))
    value, peak = traced_peak(lambda: objective(e, cube, a))
    # Below one bands x n block: the residual is never formed whole.
    assert peak < bands * n * 8
    direct = np.linalg.norm(cube.data - e.data @ a) ** 2
    assert value == pytest.approx(direct, rel=1e-12)


def test_objective_of_a_cube_in_memory_factors_once(cholesky_calls):
    e, a_true, cube = make_instance(5, (4, 5), 30.0, 1)
    objective(e, cube, a_true)
    assert cholesky_calls == [(5, 5)]


def test_objective_matches_the_image_space_residual():
    e, a_true, cube = make_instance(7, (12, 12), 25.0, 61, n_bands=50)
    rng = np.random.default_rng(61)
    for a in (a_true.data, rng.dirichlet(np.ones(7), size=144).T):
        direct = np.linalg.norm(cube.data - e.data @ a) ** 2
        assert objective(e, cube, a) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("n", [1, dykstra.TILE - 1, 2 * dykstra.TILE + 37])
def test_the_blocked_residual_matches_the_image_space_one(n):
    # One pixel, fewer than one block of dykstra.TILE columns, and two
    # whole blocks with a ragged third.
    e, a_true, cube = make_instance(4, (1, n), 25.0, 63, n_bands=24)
    rng = np.random.default_rng(63)
    for a in (a_true.data, rng.dirichlet(np.ones(4), size=n).T):
        direct = np.linalg.norm(cube.data - e.data @ a) ** 2
        assert objective(e, cube, a) == pytest.approx(direct, rel=1e-12)


class _WatchedSource:
    """A cube file source that notes, at each read of sum_sq, whether the
    last block of its tiles had been read."""

    def __init__(self, source):
        self._source, self.reads, self._drained = source, [], False
        self.n_pixels, self.n_bands = source.n_pixels, source.n_bands
        self.shape = source.shape

    def tiles(self, width):
        self._drained = False
        yield from self._source.tiles(width)
        self._drained = True

    @property
    def sum_sq(self):
        self.reads.append(self._drained)
        return self._source.sum_sq


def test_objective_of_a_cube_file_streams_it_without_holding_y(
        tmp_path, monkeypatch):
    # 40 000 pixels of 32 bands, 157 read tiles of 64 KiB: the objective
    # maps each into its block of Y and sums the block's share, so it
    # holds one read tile and a few m x TILE blocks, never an m x n Y.
    # Its |X|^2 is the reader's, read once the whole file has been read.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 1 << 16)
    m, n = 5, 40_000
    e, _, cube = make_instance(m, (200, 200), 20.0, 65, n_bands=32)
    a = np.random.default_rng(65).dirichlet(np.ones(m), size=n).T
    write_cube(tmp_path / "s.cube", cube)
    with open_cube(tmp_path / "s.cube") as source:
        watched = _WatchedSource(source)
        value, peak = traced_peak(lambda: objective(e, watched, a))
    assert peak < m * n * 8 + sio.READ_TILE_BYTES
    assert watched.reads == [True]
    assert value == pytest.approx(objective(e, cube, a), rel=1e-12)


def _recorded_run(every, with_refs=True):
    # Low SNR puts many pixels on the simplex boundary.
    e, a_true, cube = make_instance(6, (6, 8), 5.0, 60, n_bands=40)
    t = build_transform(e)
    y = forward_transform(t, e, cube)
    a_star = solve_oracle_activeset(e, cube).a_hat
    recorder = CurveRecorder(
        e, cube, every,
        a_star=a_star if with_refs else None,
        a_true=a_true if with_refs else None,
    )
    iterates = [project_hyperplane(t, y)]

    def observe(sweep, u):
        iterates.append(u.copy())
        recorder(sweep, u)

    _, trace = dykstra_project(t, y, on_sweep=observe)
    return e, a_true, cube, t, trace, a_star, recorder, iterates


def test_curve_rows_follow_the_stride_and_end_on_the_last_sweep(monkeypatch):
    # The exact finish would end the run at sweep 2, so it is put off
    # past the run to record a curve of many rows.
    monkeypatch.setattr(dykstra, "FIRST_CHECKPOINT", 10**9)
    e, a_true, cube, t, trace, a_star, recorder, _ = _recorded_run(2)
    curve = recorder.curve(trace)
    k = trace.n_sweeps
    assert k > 10
    expected = list(range(2, k + 1, 2))
    if expected[-1] != k:
        expected.append(k)
    assert [int(s) for s in curve.sweep] == expected
    assert np.array_equal(curve.time_s, trace.elapsed_s[curve.sweep - 1])
    assert np.isfinite(curve.objective).all()
    assert np.isfinite(curve.re_db[:-1]).all()
    assert np.isfinite(curve.nmse_db).all()
    assert curve.unconverged[-1] == 0
    # The run converged, so the last RE against the oracle is far below
    # the first.
    assert curve.re_db[-1] < curve.re_db[0] - 30.0


def test_curve_rows_are_the_metrics_of_each_recorded_iterate():
    # Recompute every row from stored copies of the iterates.
    e, a_true, cube, t, trace, a_star, recorder, iterates = _recorded_run(1)
    curve = recorder.curve(trace)
    assert curve.n_rows == trace.n_sweeps == len(iterates) - 1
    for row, sweep in enumerate(curve.sweep):
        a_k = inverse_transform(t, iterates[sweep])
        assert curve.objective[row] == objective(e, cube, a_k)
        assert curve.re_db[row] == relative_error_db(a_k, a_star)
        assert curve.nmse_db[row] == nmse_db(a_k, a_true)
        assert curve.unconverged[row] == trace.uncertified[sweep - 1]


def test_curve_marks_missing_references_as_nan():
    _, _, _, _, trace, _, recorder, _ = _recorded_run(5, with_refs=False)
    curve = recorder.curve(trace)
    assert np.isnan(curve.re_db).all()
    assert np.isnan(curve.nmse_db).all()
    assert np.isfinite(curve.objective).all()


def test_curve_refuses_a_trace_from_another_run():
    e, _, cube, t, trace, _, recorder, _ = _recorded_run(5)
    shorter = dataclasses.replace(trace, elapsed_s=trace.elapsed_s[:-1])
    with pytest.raises(ValueError):
        recorder.curve(shorter)
    with pytest.raises(ValueError):
        CurveRecorder(e, cube, every=0)


def test_error_sums_add_chunk_by_chunk_to_the_whole_matrix_s(tmp_path,
                                                             monkeypatch):
    # Blocks of 8 columns. Chunks that are whole blocks (16, 16 and a
    # last 5) add to the bits of one add of all 37 columns, whether the
    # reference is a matrix or an abundance file read a chunk at a time;
    # chunks of 5 columns add to them within rounding. A chunk wider than
    # what is left of the reference is a shape mismatch.
    monkeypatch.setattr(metrics, "COLUMN_BLOCK", 8)
    rng = np.random.default_rng(97)
    a_star = rng.dirichlet(np.ones(4), size=37).T
    a_hat = a_star + 1e-6 * rng.standard_normal(a_star.shape)
    sio.write_abundance(tmp_path / "ref.abund",
                        AbundanceMatrix(a_star, (1, 37)))
    whole = relative_error_db(a_hat, a_star)
    assert whole == pytest.approx(10 * np.log10(
        np.linalg.norm(a_hat - a_star) ** 2
        / np.linalg.norm(a_star) ** 2), rel=1e-14)
    for cuts, exact in (((16, 32), True), (range(5, 37, 5), False)):
        with sio.open_abundance(tmp_path / "ref.abund") as ref_file:
            for reference in (a_star, ref_file):
                sums = metrics.ErrorSums(reference, "RE")
                for chunk in np.split(a_hat, cuts, axis=1):
                    sums.add(chunk)
                if exact:
                    assert sums.db() == whole
                else:
                    assert sums.db() == pytest.approx(whole, rel=1e-14)
    sums = metrics.ErrorSums(a_star, "RE")
    sums.add(a_hat[:, :30])
    with pytest.raises(ShapeMismatch):
        sums.add(a_hat[:, :30])
