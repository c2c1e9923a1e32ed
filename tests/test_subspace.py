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
    BLAS_PAD,
    SMALL_PRODUCT,
    build_transform,
    forward_transform,
    forward_width,
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


class _Cut:
    """A cube file read in tiles of a fixed width, whatever the forward
    map asks for."""

    def __init__(self, source, width):
        self.source, self.width = source, width
        self.n_pixels = source.n_pixels

    def tiles(self, _width):
        return self.source.tiles(self.width)


def test_forward_map_bits_do_not_depend_on_how_the_pixels_are_cut(
        tmp_path, monkeypatch):
    # The file's pixels streamed in read tiles of every width below
    # (each with a tail of width % 8 pixels) give Y to the bit as the
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
    with open_cube(path) as source:
        assert np.array_equal(forward_transform(t, e, source), y)
        for width in (1, 2, 4, 12, 36, 37):
            cut = _Cut(source, width)
            assert np.array_equal(forward_transform(t, e, cut), y), width
    # Tiles of the forward map's own width, with the read tiles small.
    monkeypatch.setattr(sio, "READ_TILE_BYTES", 12 * bands * 8)
    assert forward_width(6, bands) == 8
    with open_cube(path) as source:
        assert np.array_equal(forward_transform(t, e, source), y)
    assert np.array_equal(
        forward_transform(t, e, np.asfortranarray(x)), y
    )
    write_cube(path, ImageCube(x[:, 4:5], (1, 1)))
    with open_cube(path) as source:
        assert np.array_equal(forward_transform(t, e, source), y[:, 4:5])
    assert np.array_equal(forward_transform(t, e, x[:, 4:5]), y[:, 4:5])


def _widths_at(n: int, width: int) -> list:
    """The widths a product over n pixels in tiles of width hands BLAS:
    each tile's multiple of BLAS_PAD, then the cube's padded tail."""
    last = n % width
    widths = [width] * (n // width) + [last - last % BLAS_PAD]
    return [w for w in widths if w] + [BLAS_PAD] * bool(n % BLAS_PAD)


@pytest.mark.parametrize("m, width", [(5, 584), (10, 440), (14, 312),
                                      (20, 216)])
def test_forward_map_multiplies_pixel_major_cubes_in_small_products(
        tmp_path, monkeypatch, m, width):
    # The tile width is the largest multiple of BLAS_PAD whose tile fits
    # in a read tile and whose product stays within SMALL_PRODUCT. A file
    # and a pixel-major cube in memory are multiplied in tiles of it; a
    # band-major cube is one product, and each pads its last n % 8 pixels.
    bands, n = 224, 1300
    assert forward_width(m, bands) == width
    for w, fits in ((width, True), (width + BLAS_PAD, False)):
        assert fits == (w * bands * 8 <= sio.READ_TILE_BYTES
                        and m * w * bands <= SMALL_PRODUCT)
    rng = np.random.default_rng(m)
    e = EndmemberMatrix(rng.standard_normal((bands, m)))
    t = build_transform(e)
    x = rng.standard_normal((bands, n))
    write_cube(tmp_path / "x.cube", ImageCube(x, (1, n)))
    widths = []
    matmul = np.matmul

    def recorded(a, z, *args, **kwargs):
        if a.shape == (m, bands):
            # A stacked call hands BLAS each of its blocks on its own.
            widths.extend([z.shape[-1]] * (z.shape[0] if z.ndim == 3 else 1))
        return matmul(a, z, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    forward_transform(t, e, np.asfortranarray(x))
    assert widths == _widths_at(n, width)
    widths.clear()
    with open_cube(tmp_path / "x.cube") as source:
        forward_transform(t, e, source)
    assert widths == _widths_at(n, width)
    widths.clear()
    forward_transform(t, e, x)
    assert widths == [n - n % BLAS_PAD, BLAS_PAD]


# Counts the columns whose Y differs between the cube file streamed in
# the forward map's own tiles, the same pixels in memory in band-major
# (C) order and the same pixels in pixel-major (Fortran) order, at
# deep-m14's sizes (224 bands) and at m = 20, over 1755 pixels
# (1755 mod 8 = 3); argv: the cube file to write.
_COUNT_MISMATCHES = """
import sys
import numpy as np
from sudap import EndmemberMatrix, ImageCube
from sudap.io import open_cube, write_cube
from sudap.subspace import build_transform, forward_transform, forward_width
rng = np.random.default_rng(18)
bands, n = 224, 1755
x = rng.standard_normal((bands, n))
write_cube(sys.argv[1], ImageCube(x, (1, n)))
differ = 0
for m, width in ((14, 312), (20, 216)):
    assert forward_width(m, bands) == width
    e = EndmemberMatrix(rng.standard_normal((bands, m)))
    t = build_transform(e)
    y = forward_transform(t, e, x)
    with open_cube(sys.argv[1]) as source:
        streamed = forward_transform(t, e, source)
    fortran = forward_transform(t, e, np.asfortranarray(x))
    differ += int(((streamed != y) | (fortran != y)).any(axis=0).sum())
print(differ)
"""


def test_forward_map_bits_do_not_depend_on_how_the_pixels_are_cut_at_m14(
        tmp_path):
    # The case above at deep-m14's sizes and at m = 20, at one OpenBLAS
    # thread, where a product's width can decide which BLAS kernel a
    # column takes: the last column of each 585-pixel read tile once
    # took an edge kernel at m = 14 (585 mod 8 = 1). Every tile is now a
    # multiple of BLAS_PAD pixels wide and every tail is padded. The
    # count is taken in a process of its own, to pin the BLAS threads.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_MISMATCHES, str(tmp_path / "x.cube")],
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
