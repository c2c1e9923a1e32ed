import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sudap import EndmemberMatrix, ImageCube
from sudap import io as sio
from sudap.errors import DegenerateProblem, DimensionMismatch, RankDeficient
from sudap.io import open_cube, write_cube
from sudap.subspace import (
    build_transform,
    forward_transform,
    inverse_transform,
)
from conftest import random_endmembers


def test_factor_reproduces_gram_matrix():
    rng = np.random.default_rng(11)
    e = random_endmembers(rng, 40, 6)
    t = build_transform(e)
    gram = e.data.T @ e.data
    assert np.allclose(t.d.T @ t.d, gram, rtol=0, atol=1e-10 * np.abs(gram).max())
    # Upper triangular with positive diagonal.
    assert np.allclose(t.d, np.triu(t.d))
    assert (np.diag(t.d) > 0).all()


def test_inverse_factor_is_consistent():
    rng = np.random.default_rng(12)
    e = random_endmembers(rng, 25, 5)
    t = build_transform(e)
    assert np.allclose(t.d @ t.d_inv, np.eye(5), atol=1e-12)


def test_normal_vector_is_column_sum_of_inverse():
    rng = np.random.default_rng(13)
    e = random_endmembers(rng, 30, 4)
    t = build_transform(e)
    assert np.allclose(t.b, t.d_inv.sum(axis=0), atol=0)
    assert np.allclose(t.c, t.b / (t.b @ t.b), atol=0)


def test_projected_directions_are_unit_and_orthogonal_to_offset():
    rng = np.random.default_rng(14)
    e = random_endmembers(rng, 50, 7)
    t = build_transform(e)
    norms = np.linalg.norm(t.s, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # Each projected direction lies inside the sum-one hyperplane's
    # direction space, so it is orthogonal to c (and to b).
    assert np.abs(t.s @ t.c).max() < 1e-12


def test_offsets_match_direct_formula():
    rng = np.random.default_rng(15)
    e = random_endmembers(rng, 20, 5)
    t = build_transform(e)
    p = np.eye(5) - np.outer(t.b, t.b) / (t.b @ t.b)
    for i in range(5):
        pd = p @ t.d_inv[i]
        assert np.linalg.norm(pd) == pytest.approx(t.p_norms[i], rel=1e-12)
        assert t.f[i] == pytest.approx(-(t.d_inv[i] @ t.c) / np.linalg.norm(pd), rel=1e-10, abs=1e-14)


def test_forward_transform_maps_mixture_to_scaled_abundance():
    # With X = E A the transformed image equals D A exactly (up to
    # rounding): the defining property of the change of variables.
    rng = np.random.default_rng(16)
    e = random_endmembers(rng, 32, 6)
    a = rng.dirichlet(np.ones(6), size=50).T
    x = e.data @ a
    t = build_transform(e)
    u = forward_transform(t, e, x)
    assert np.allclose(u, t.d @ a, atol=1e-10)
    back = inverse_transform(t, u)
    assert np.allclose(back, a, atol=1e-10)


def test_forward_map_bits_do_not_depend_on_how_the_pixels_are_cut(
        tmp_path, monkeypatch):
    # The file's pixels streamed in read tiles of every width below
    # (2, 4, 12 and 36 leave a one-column tail) give Y to the bit as the
    # same pixels in memory, in either layout; so does a one-pixel cube.
    rng = np.random.default_rng(16)
    bands, n = 30, 37
    e = random_endmembers(rng, bands, 6)
    t = build_transform(e)
    x = rng.standard_normal((bands, n))
    y = forward_transform(t, e, x)
    assert np.array_equal(forward_transform(t, e, np.asfortranarray(x)), y)
    path = tmp_path / "x.cube"
    write_cube(path, ImageCube(x, (1, n)))
    for width in (1, 2, 4, 12, 36, 37):
        monkeypatch.setattr(sio, "READ_TILE_BYTES", width * bands * 8)
        with open_cube(path) as source:
            assert np.array_equal(forward_transform(t, e, source), y), width
    write_cube(path, ImageCube(x[:, 4:5], (1, 1)))
    with open_cube(path) as source:
        assert np.array_equal(forward_transform(t, e, source), y[:, 4:5])
    assert np.array_equal(forward_transform(t, e, x[:, 4:5]), y[:, 4:5])


# Counts the columns whose Y differs between the cube file streamed in
# the reader's own tiles and the same pixels in memory, at deep-m14's
# sizes (14 endmembers, 224 bands); argv: the cube file to write.
_COUNT_STREAMED_MISMATCHES = """
import sys
import numpy as np
from sudap import EndmemberMatrix, ImageCube
from sudap import io as sio
from sudap.io import open_cube, write_cube
from sudap.subspace import build_transform, forward_transform
rng = np.random.default_rng(18)
bands, n = 224, 3 * 585
e = EndmemberMatrix(rng.standard_normal((bands, 14)))
t = build_transform(e)
x = rng.standard_normal((bands, n))
write_cube(sys.argv[1], ImageCube(x, (1, n)))
assert sio.READ_TILE_BYTES // (bands * 8) == 585
with open_cube(sys.argv[1]) as source:
    streamed = forward_transform(t, e, source)
print(int((streamed != forward_transform(t, e, x)).any(axis=0).sum()))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a read tile's width decides which "
                   "BLAS kernel a column takes, and so its bits")
def test_forward_map_bits_do_not_depend_on_how_the_pixels_are_cut_at_m14(
        tmp_path):
    # The case above at deep-m14's sizes, in the reader's own 1 MiB tiles
    # of 585 pixels, at one OpenBLAS thread. 585 mod 8 = 1, and the last
    # column of each full tile takes BLAS's edge kernel, with other bits
    # than the same column in memory (7 of deep-m14's 4096 pixels, by
    # 2.4e-15). At two BLAS threads this cube happens to agree, so the
    # count is fixed in a process of its own.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_STREAMED_MISMATCHES,
         str(tmp_path / "x.cube")],
        env=env, check=True, capture_output=True, text=True,
    )
    assert int(proc.stdout.split()[-1]) == 0


def test_forward_transform_checks_band_count():
    rng = np.random.default_rng(17)
    e = random_endmembers(rng, 12, 3)
    t = build_transform(e)
    with pytest.raises(DimensionMismatch):
        forward_transform(t, e, np.ones((13, 4)))


def test_single_endmember_is_degenerate():
    with pytest.raises(DegenerateProblem):
        build_transform(EndmemberMatrix(np.ones((5, 1))))


def test_duplicate_columns_are_rank_deficient():
    col = np.linspace(1.0, 2.0, 10)
    e = EndmemberMatrix(np.column_stack([col, col, col[::-1]]))
    with pytest.raises(RankDeficient):
        build_transform(e)


def test_nearly_parallel_columns_are_rank_deficient():
    rng = np.random.default_rng(18)
    col = rng.standard_normal(30)
    e = EndmemberMatrix(np.column_stack([col, col * (1.0 + 1e-16), rng.standard_normal(30)]))
    with pytest.raises(RankDeficient):
        build_transform(e)


def test_transform_invariant_under_band_rotation():
    # The geometry depends on E only through its Gram matrix, so any
    # orthogonal mixing of the bands must leave the transform unchanged.
    rng = np.random.default_rng(19)
    e = random_endmembers(rng, 24, 5)
    q, _ = np.linalg.qr(rng.standard_normal((24, 24)))
    t1 = build_transform(e)
    t2 = build_transform(EndmemberMatrix(q @ e.data))
    assert np.allclose(t1.d, t2.d, atol=1e-9 * np.abs(t1.d).max())
    assert np.allclose(t1.b, t2.b, atol=1e-9 * np.abs(t1.b).max())
