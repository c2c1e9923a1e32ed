import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudap import EndmemberMatrix
from sudap.errors import DimensionMismatch, InsufficientCandidates
from sudap.simdata import (
    NoiseSpec,
    SpectralLibrary,
    make_synthetic_library,
    measured_snr_db,
    sample_abundances,
    select_endmember_indices,
    synthesize_cube,
)


@given(
    m=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sampled_abundances_sit_on_the_simplex(m, n, seed):
    a = sample_abundances(m, n, seed)
    assert a.data.shape == (m, n)
    assert a.data.min() >= 0.0
    assert np.abs(a.data.sum(axis=0) - 1.0).max() <= 4e-15


def test_sampling_is_seed_deterministic_and_covers_the_simplex():
    a1 = sample_abundances(4, 3000, 77)
    a2 = sample_abundances(4, 3000, 77)
    assert np.array_equal(a1.data, a2.data)
    assert not np.array_equal(a1.data, sample_abundances(4, 3000, 78).data)
    # Uniform on the simplex: every coordinate has mean 1/m.
    assert np.abs(a1.data.mean(axis=1) - 0.25).max() < 0.02
    # Vertex regions get visited: some pixel is dominated by each
    # endmember.
    assert (a1.data.max(axis=1) > 0.9).all()


def test_selection_returns_distinct_valid_indices(bump_library):
    for seed in range(5):
        idx = select_endmember_indices(bump_library, 8, 10.0, seed)
        assert len(idx) == 8
        assert len(set(idx)) == 8
        assert all(0 <= i < bump_library.n_signatures for i in idx)


def test_selected_angles_exceed_floor(bump_library):
    for seed in range(5):
        idx = select_endmember_indices(bump_library, 8, 10.0, seed)
        sig = bump_library.signatures[:, idx]
        unit = sig / np.linalg.norm(sig, axis=0)
        cosines = unit.T @ unit
        np.fill_diagonal(cosines, -1.0)
        assert cosines.max() < np.cos(np.radians(10.0))


def test_selection_is_deterministic_per_seed(bump_library):
    a = select_endmember_indices(bump_library, 6, 10.0, 123)
    b = select_endmember_indices(bump_library, 6, 10.0, 123)
    assert a == b


def test_selection_failure_reports_how_many_were_found(bump_library):
    with pytest.raises(InsufficientCandidates) as info:
        select_endmember_indices(bump_library, 8, 85.0, 0)
    assert info.value.requested == 8
    assert info.value.found < 8
    with pytest.raises(InsufficientCandidates):
        select_endmember_indices(bump_library, bump_library.n_signatures + 1,
                                 0.0, 0)


def test_noiseless_cube_is_the_exact_mixture():
    rng = np.random.default_rng(50)
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, (30, 4)))
    a = sample_abundances(4, 25, 51)
    cube = synthesize_cube(e, a, NoiseSpec(np.inf, 0), (5, 5))
    assert np.array_equal(cube.data, e.data @ a.data)
    assert measured_snr_db(cube, e, a) == np.inf


def test_noisy_cube_hits_the_requested_snr():
    rng = np.random.default_rng(52)
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, (64, 5)))
    a = sample_abundances(5, 4096, 53)
    cube = synthesize_cube(e, a, NoiseSpec(20.0, 54), (64, 64))
    assert measured_snr_db(cube, e, a) == pytest.approx(20.0, abs=0.2)
    # Same NoiseSpec, same bits.
    again = synthesize_cube(e, a, NoiseSpec(20.0, 54), (64, 64))
    assert np.array_equal(cube.data, again.data)
    # Different noise seed, different bits.
    other = synthesize_cube(e, a, NoiseSpec(20.0, 55), (64, 64))
    assert not np.array_equal(cube.data, other.data)


def test_cube_generation_rejects_mismatched_endmember_count():
    rng = np.random.default_rng(56)
    e = EndmemberMatrix(rng.uniform(0.1, 1.0, (12, 3)))
    a = sample_abundances(4, 10, 57)
    with pytest.raises(DimensionMismatch):
        synthesize_cube(e, a, NoiseSpec(30.0, 0), (1, 10))


def test_noise_spec_rejects_nan_and_minus_inf():
    for snr_db in (np.nan, -np.inf):
        with pytest.raises(ValueError):
            NoiseSpec(snr_db, 0)
    NoiseSpec(np.inf, 0)


def test_library_rejects_zero_norm_signatures():
    with pytest.raises(ValueError):
        SpectralLibrary(np.array([[0.0, 1.0], [0.0, 2.0]]), ("z", "p"))
    # Entries around 1e-303 square to zero, so the column's norm
    # underflows and it cannot be angle-normalized; reject it too.
    tiny = np.full((3, 1), 5e-303)
    with pytest.raises(ValueError):
        SpectralLibrary(np.hstack([tiny, np.ones((3, 1))]), ("t", "p"))


def test_synthetic_library_is_usable_for_selection():
    lib = make_synthetic_library(n_bands=120, n_signatures=24, seed=9)
    assert lib.signatures.shape == (120, 24)
    assert (lib.signatures > 0.0).all()
    assert len(set(lib.names)) == 24
    assert lib.wavelengths is not None
    assert (np.diff(lib.wavelengths) > 0).all()
    idx = select_endmember_indices(lib, 16, 10.0, 0)
    assert len(idx) == 16
