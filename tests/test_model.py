import numpy as np
import pytest

from sudap import EndmemberMatrix, ImageCube
from sudap import model
from sudap.errors import DimensionMismatch, NonFinite
from sudap.model import (
    AbundanceMatrix,
    column_feasibility,
    validate_dimensions,
)
from sudap.simdata import SpectralLibrary


def test_endmember_matrix_coerces_to_float64():
    e = EndmemberMatrix(np.arange(12, dtype=np.int32).reshape(4, 3) + 1)
    assert e.data.dtype == np.float64
    assert e.n_bands == 4
    assert e.n_endmembers == 3


def test_endmember_matrix_rejects_wide_matrix():
    with pytest.raises(ValueError):
        EndmemberMatrix(np.ones((3, 5)))


def test_endmember_matrix_rejects_nan():
    bad = np.ones((6, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        EndmemberMatrix(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [
    lambda d: EndmemberMatrix(d),
    lambda d: ImageCube(d, (2, 3)),
    lambda d: AbundanceMatrix(d, (2, 3)),
])
def test_matrices_reject_non_finite_entries(make, bad):
    # Fortran order too, the layout io.read_cube hands out.
    for data in (np.full((6, 6), 0.5), np.full((6, 6), 0.5, order="F")):
        data[4, 1] = bad
        with pytest.raises(NonFinite):
            make(data)


def test_endmember_matrix_rejects_vector():
    with pytest.raises(ValueError):
        EndmemberMatrix(np.ones(7))


def test_endmember_wavelengths_must_cover_bands():
    with pytest.raises(ValueError):
        EndmemberMatrix(np.ones((6, 2)), wavelengths=np.arange(5.0))


def test_image_cube_pixel_count_must_match_shape():
    data = np.ones((5, 12))
    cube = ImageCube(data, (3, 4))
    assert cube.n_pixels == 12
    assert cube.n_bands == 5
    with pytest.raises(ValueError):
        ImageCube(data, (3, 5))


@pytest.mark.parametrize("make", [ImageCube, AbundanceMatrix])
def test_a_grid_needs_a_row_and_a_column(make):
    # One grid rule for both: rows and cols at least 1, covering n.
    for shape, n in (((0, 5), 0), ((-2, -2), 4), ((3, 0), 0)):
        with pytest.raises(ValueError, match="does not match"):
            make(np.ones((2, n)), shape)
    assert make(np.ones((2, 6)), (2.0, 3)).shape == (2, 3)


@pytest.mark.parametrize("make", [
    lambda wl: ImageCube(np.ones((6, 2)), (1, 2), wavelengths=wl),
    lambda wl: SpectralLibrary(np.ones((6, 2)), ("a", "b"), wavelengths=wl),
])
def test_wavelengths_are_float64_one_per_band(make):
    # As test_endmember_wavelengths_must_cover_bands, for the other two.
    assert make(np.arange(6)).wavelengths.dtype == np.float64
    for wl in (np.arange(5.0), np.ones((6, 1))):
        with pytest.raises(ValueError, match="one entry per band"):
            make(wl)


def test_abundance_matrix_feasibility_enforced_when_flagged():
    good = np.array([[0.25, 0.5], [0.75, 0.5]])
    a = AbundanceMatrix(good, (1, 2), feasible=True)
    assert a.n_endmembers == 2
    bad = np.array([[0.6, 1.4], [0.6, -0.4]])
    with pytest.raises(ValueError):
        AbundanceMatrix(bad, (1, 2), feasible=True)
    # Without the flag the same data is accepted as-is.
    loose = AbundanceMatrix(bad, (1, 2), feasible=False)
    assert loose.data.shape == (2, 2)


def test_validate_dimensions_raises_on_band_mismatch():
    e = EndmemberMatrix(np.ones((8, 3)))
    cube = ImageCube(np.ones((9, 4)), (2, 2))
    with pytest.raises(DimensionMismatch) as info:
        validate_dimensions(e, cube)
    assert info.value.n_bands_e == 8
    assert info.value.n_bands_x == 9
    # Matching bands pass silently.
    validate_dimensions(e, ImageCube(np.ones((8, 4)), (2, 2)))


def _wrap(values):
    arr = np.asarray(values, dtype=float)
    return AbundanceMatrix(arr, (1, arr.shape[1]))


def test_column_feasibility_reports_worst_violations():
    report = column_feasibility(_wrap([[0.5, 0.7], [0.5, 0.301]]))
    assert not report.feasible
    assert report.max_sum_violation == pytest.approx(1e-3, rel=1e-9)
    assert report.min_entry == pytest.approx(0.301)

    clean = column_feasibility(_wrap([[1.0, 0.0], [0.0, 1.0]]))
    assert clean.feasible
    assert clean.max_sum_violation == 0.0


def test_column_feasibility_flags_negative_entries():
    report = column_feasibility(_wrap([[1.1], [-0.1]]))
    assert not report.feasible
    assert report.min_entry == pytest.approx(-0.1)


def test_column_feasibility_is_scale_sensitive():
    a = _wrap([[0.4], [0.6]])
    assert column_feasibility(a).feasible
    doubled = _wrap([[0.8], [1.2]])
    report = column_feasibility(doubled)
    assert not report.feasible
    assert report.max_sum_violation == pytest.approx(1.0)


@pytest.mark.parametrize("side", [1.0, -1.0, 0.0])
def test_column_feasibility_reads_the_sum_violation_off_the_extremes(side):
    # Sums all above 1, all below, and on both sides: the report is the
    # same float as max |s - 1| over every column sum s.
    rng = np.random.default_rng(95)
    a = rng.dirichlet(np.ones(6), size=500).T
    sign = side or rng.choice([-1.0, 1.0], 500)
    shift = rng.uniform(0.0, 1e-8, 500) * sign
    a = _wrap(a * (1.0 + shift))
    old = float(np.max(np.abs(a.data.sum(axis=0) - 1.0)))
    assert column_feasibility(a).max_sum_violation == old


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [3, 12])
def test_column_feasibility_in_blocks_and_joined_is_one_pass(monkeypatch,
                                                             order, m):
    # Blocks of 7 columns cut the 100 columns with a ragged last block,
    # and a report of two parts joined is the report of the whole: the
    # floats of one reduction over every column, in either layout (a
    # layout sums its columns in its own order, the same in any block).
    monkeypatch.setattr(model, "COLUMN_BLOCK", 7)
    rng = np.random.default_rng(96)
    data = np.asarray(rng.dirichlet(np.ones(m), size=100).T, order=order)
    data *= 1.0 + rng.uniform(-1e-8, 1e-8, 100)
    data[1, 40] = -3e-9
    sums = data.sum(axis=0)
    whole = column_feasibility(_wrap(data))
    assert whole.max_sum_violation == float(np.max(np.abs(sums - 1.0)))
    assert whole.min_entry == data.min() == -3e-9
    for cut in (7, 40, 93):
        joined = column_feasibility(data[:, :cut]).join(
            column_feasibility(data[:, cut:]))
        assert joined == whole
