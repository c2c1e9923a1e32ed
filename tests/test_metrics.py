import numpy as np
import pytest

from sudap import (
    DykstraConfig,
    EndmemberMatrix,
    ImageCube,
    build_curve,
    relative_error_db,
    solve_oracle_activeset,
)
from sudap.dykstra import dykstra_project
from sudap.errors import DimensionMismatch, ShapeMismatch, ZeroReference
from sudap.metrics import ConvergenceCurve, nmse_db, objective
from sudap.simdata import make_instance
from sudap.subspace import build_transform, forward_transform


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


def test_curve_columns_must_line_up():
    n = np.arange(3)
    z = np.zeros(3)
    with pytest.raises(ValueError):
        ConvergenceCurve(sweep=n, time_s=np.zeros(2), objective=z,
                         re_db=z, nmse_db=z)
    with pytest.raises(ValueError):
        ConvergenceCurve(sweep=n, time_s=np.array([0.0, 2.0, 1.0]),
                         objective=z, re_db=z, nmse_db=z)
    curve = ConvergenceCurve(sweep=n, time_s=z, objective=z, re_db=z,
                             nmse_db=z)
    assert curve.n_rows == 3


def _curve_fixture():
    # Low SNR puts many pixels on the simplex boundary, giving a run
    # long enough for the curve to have several rows.
    e, a_true, cube = make_instance(6, (6, 8), 5.0, 60, n_bands=40)
    t = build_transform(e)
    y = forward_transform(t, e, cube.data)
    cfg = DykstraConfig(max_sweeps=2000, rel_tol=1e-12, snapshot_every=5)
    _, trace = dykstra_project(t, y, cfg)
    a_star = solve_oracle_activeset(e, cube).a_hat
    return e, a_true, cube, t, trace, a_star


def test_curve_rows_mirror_trace_snapshots():
    e, a_true, cube, t, trace, a_star = _curve_fixture()
    curve = build_curve(trace, t, e, cube, a_star=a_star, a_true=a_true)
    assert curve.n_rows == len(trace.snapshots)
    assert [int(s) for s in curve.sweep] == [s for s, _ in trace.snapshots]
    assert (np.diff(curve.time_s) >= 0).all()
    assert np.isfinite(curve.objective).all()
    assert np.isfinite(curve.re_db[:-1]).all()
    assert np.isfinite(curve.nmse_db).all()
    assert curve.unconverged is not None
    assert curve.unconverged[-1] == 0
    # The run converged, so the last RE against the oracle is far below
    # the first.
    assert curve.re_db[-1] < curve.re_db[0] - 30.0


def test_curve_marks_missing_references_as_nan():
    e, _, cube, t, trace, _ = _curve_fixture()
    curve = build_curve(trace, t, e, cube)
    assert np.isnan(curve.re_db).all()
    assert np.isnan(curve.nmse_db).all()
    assert np.isfinite(curve.objective).all()
