"""Change of variables that turns constrained least squares into geometry.

For an endmember matrix E with linearly independent columns, factor
E'E = D'D with D upper triangular (Cholesky). Writing u = D a, the
residual splits as

    |x - E a|^2 = |x|^2 - |y|^2 + |y - u|^2,   y = D^{-T} E' x,

so minimising over the simplex is a closest-point problem in u. The sum
constraint 1'a = 1 becomes the hyperplane b'u = 1 with b' = 1'D^{-1};
each a_i >= 0 becomes the half space d_i'u >= 0 where d_i is row i of
D^{-1}.

The intersection of the hyperplane with one half space is handled by a
closed-form projector that only needs each half-space normal expressed
inside the hyperplane: with P = I - bb'/|b|^2,

    s_i = P d_i / |P d_i|,   f_i = -d_i'c / |P d_i|,   c = b/|b|^2.

P d_i never vanishes: d_i parallel to b would make row i of D^{-1} a
multiple of the sum of all rows, impossible for an invertible triangular
matrix with m >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import io
from .errors import (
    DegenerateProblem,
    DimensionMismatch,
    RankDeficient,
    ShapeMismatch,
)
from .model import EndmemberMatrix

# A Cholesky pivot at or below RANK_TOL * trace(E'E)/m marks E as
# numerically rank deficient.
RANK_TOL = 1e-12

# BLAS blocks for _block_product, in columns. On OpenBLAS 0.3.31
# (Haswell kernels) a column's bits from a @ z depend on z's width:
# at m >= 20, widths w with w mod 8 in 1..4 take an edge kernel, and a
# Fortran-ordered block of 511 columns differs at m = 14. Multiples of 8
# columns all take the main kernel. Blocks of at most 512 columns also
# never wake the BLAS thread pool, which stalled a 20 x 4096 product
# for milliseconds at two threads.
BLAS_BLOCK = 512
BLAS_PAD = 8
# Multiply-adds per product of the forward map's tiles. Above about
# 1e6, OpenBLAS packs its operands, which a few rows cannot repay: at
# m = 5 and 224 bands a hot block took 79 ns/pixel at 888 columns and
# 129 at 896 (a Xeon, SkylakeX kernels, one pinned CPU, best of 15).
SMALL_PRODUCT = 1_000_000


def _block_product(a: np.ndarray, z: np.ndarray, out=None,
                   block: int = BLAS_BLOCK) -> np.ndarray:
    """a @ z for a small matrix a, each column's bits its own, into out.

    z's columns go to BLAS as views, in blocks whose widths are
    multiples of BLAS_PAD: all its whole blocks of ``block`` columns (a
    multiple of BLAS_PAD, or z's width or more) in one stacked matmul,
    which makes the same BLAS call on each as a loop over them would,
    then one narrower block. Only the last width % BLAS_PAD columns are
    copied, into a zeroed block of BLAS_PAD columns. So a column's result
    is the same whatever the width, offset and layout of the z it came
    in; a one-row a (a matrix-vector product) keeps that only on z with
    contiguous rows (strides[1] == 8), C-ordered blocks and views of
    them. This is the package's one rule for a column's bits;
    test_projectors probes it on the installed BLAS.
    """
    rows, width = a.shape[0], z.shape[1]
    if out is None:
        out = np.empty((rows, width))
    tail = width % BLAS_PAD
    full = width - tail
    whole = full - full % block
    if whole:
        stack = (whole // block, block)
        np.matmul(a, z[:, :whole].reshape(-1, *stack).transpose(1, 0, 2),
                  out=out[:, :whole].reshape(rows, *stack).transpose(1, 0, 2))
    if full > whole:
        np.matmul(a, z[:, whole:full], out=out[:, whole:full])
    if tail:
        pad = np.zeros((z.shape[0], BLAS_PAD))
        pad[:, :tail] = z[:, full:]
        out[:, full:] = np.matmul(a, pad)[:, :tail]
    return out


def forward_width(m: int, bands: int) -> int:
    """Pixels per tile of the forward map: the largest multiple of
    BLAS_PAD (at least one) whose tile fits in io.READ_TILE_BYTES and
    whose product makes at most SMALL_PRODUCT multiply-adds."""
    fit = min(io._tile_width(bands), SMALL_PRODUCT // (m * bands))
    return max(BLAS_PAD, fit - fit % BLAS_PAD)


@dataclass(frozen=True)
class SubspaceTransform:
    """Precomputed factorisation and constraint geometry for one E.

    Attributes
    ----------
    d : np.ndarray
        Upper-triangular factor with D'D = E'E.
    d_inv : np.ndarray
        Explicit inverse of D; row i is the half-space normal d_i.
    b : np.ndarray
        Hyperplane normal, b' = 1'D^{-1}.
    c : np.ndarray
        Hyperplane foot point b/|b|^2, the projection of the origin.
    s : np.ndarray
        m x m array, row i the unit in-plane normal of half space i.
    f : np.ndarray
        Offsets paired with s: u feasible for half space i on the
        hyperplane iff s_i'u >= f_i.
    p_norms : np.ndarray
        Norms |P d_i| used to build s and f.
    gram : np.ndarray
        G = S S', the m x m Gram matrix of the unit normals s_i (unit
        diagonal to rounding). Every step and certificate that works on
        the multipliers alone reads it.
    """

    d: np.ndarray
    d_inv: np.ndarray
    b: np.ndarray
    c: np.ndarray
    s: np.ndarray
    f: np.ndarray
    p_norms: np.ndarray
    gram: np.ndarray

    @property
    def n_endmembers(self) -> int:
        return self.d.shape[0]


def build_transform(e: EndmemberMatrix) -> SubspaceTransform:
    """Factor E'E and precompute the transformed constraint geometry.

    Raises
    ------
    RankDeficient
        If the Cholesky factorisation fails or produces a pivot at or
        below RANK_TOL * trace(E'E)/m.
    DegenerateProblem
        If m == 1; with a single endmember the sum constraint already
        pins the answer and there is no geometry to build.
    """
    m = e.n_endmembers
    if m < 2:
        raise DegenerateProblem(
            "subspace geometry needs at least two endmembers; "
            "with one endmember the sum constraint fixes a = 1"
        )
    g = e.data.T @ e.data
    try:
        lower = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(
            f"endmember matrix is numerically rank deficient: {exc}"
        ) from None
    pivots = np.diag(lower) ** 2
    threshold = RANK_TOL * np.trace(g) / m
    if np.any(pivots <= threshold):
        worst = int(np.argmin(pivots))
        raise RankDeficient(
            f"Cholesky pivot {pivots[worst]:.3e} at column {worst} is below "
            f"the rank threshold {threshold:.3e}"
        )
    d = lower.T.copy()
    # np.linalg.inv, unlike a triangular solve against the identity,
    # does not wake the BLAS thread pool for these small systems.
    d_inv = np.linalg.inv(d)
    b = d_inv.sum(axis=0)
    bb = float(b @ b)
    c = b / bb

    bd = d_inv @ b
    pd = d_inv - np.outer(bd, c)
    p_norms = np.linalg.norm(pd, axis=1)
    row_norms = np.linalg.norm(d_inv, axis=1)
    if np.any(p_norms <= 1e3 * np.finfo(np.float64).eps * row_norms):
        raise DegenerateProblem(
            "a non-negativity constraint is normal to the sum hyperplane"
        )
    s = pd / p_norms[:, None]
    f = -(d_inv @ c) / p_norms
    return SubspaceTransform(
        d=d, d_inv=d_inv, b=b, c=c, s=s, f=f, p_norms=p_norms,
        gram=np.einsum("ir,jr->ij", s, s),
    )


class ForwardMap:
    """Y = D^{-T} E' x of one cube, formed tile by tile as its pixels go by.

    ``e`` may be the model wrapper or a plain array. ``x`` holds one
    pixel per column: an ImageCube or a plain array, or a source with
    ``n_pixels`` and a ``tiles(width)`` method that yields the pixels in
    order as column blocks of that width, as io.open_cube gives. The
    m x bands map D^{-T} E' is formed once, by one small triangular
    solve against E'. tiles(width) then puts the pixels through
    _block_product with it in tiles of forward_width pixels: a file's
    read tiles, or views of a pixel-major (Fortran-ordered) cube in
    memory. Any other cube is cut only where a block of Y ends: a
    band-major cube reads faster in wide products than in narrow ones.
    Every tile but the last is a multiple of BLAS_PAD wide, and each
    product pads its last width % BLAS_PAD pixels, so a pixel's bits
    depend on neither the cut nor the layout. For noiseless x = E a, Y
    equals D a.

    The same protocol as the cube source, one level down: n_pixels and
    tiles(width), so that dykstra_project can take Y as it is formed.
    """

    def __init__(self, t: SubspaceTransform, e, x):
        e_data = np.asarray(getattr(e, "data", e), dtype=np.float64)
        self._fmap = scipy.linalg.solve_triangular(
            t.d, e_data.T, trans="T", lower=False
        )
        self._x = x
        if hasattr(x, "tiles"):
            self.n_pixels = x.n_pixels
        else:
            x_data = np.asarray(getattr(x, "data", x), dtype=np.float64)
            if x_data.ndim != 2:
                raise ShapeMismatch(f"cube must be 2-D, got shape "
                                    f"{x_data.shape}")
            self._x, self.n_pixels = x_data, x_data.shape[1]

    def tiles(self, width: int):
        """Yield Y in order, as m x width column blocks (the last one
        narrower), each formed into one reused buffer: a block holds its
        values only until the next is formed. Every call reads the cube
        again from its first pixel."""
        fmap, n = self._fmap, self.n_pixels
        cut = forward_width(*fmap.shape)
        if hasattr(self._x, "tiles"):
            blocks = self._x.tiles(cut)
        else:
            blocks = (self._x,)
            if not self._x.flags.f_contiguous:
                cut = max(n, 1)
        buf = np.empty((fmap.shape[0], min(width, n)))
        fill = 0
        for block in blocks:
            if fmap.shape[1] != block.shape[0]:
                raise DimensionMismatch(fmap.shape[1], block.shape[0])
            at = 0
            while at < block.shape[1]:
                take = min(width - fill, block.shape[1] - at)
                _block_product(fmap, block[:, at:at + take],
                               out=buf[:, fill:fill + take], block=cut)
                fill += take
                at += take
                if fill == width:
                    yield buf
                    fill = 0
        if fill:
            yield buf[:, :fill]


def forward_transform(t: SubspaceTransform, e, x) -> np.ndarray:
    """Map observations into the subspace: y = D^{-T} E' x, held whole.

    x is as ForwardMap takes it, and y is ForwardMap's one block as wide
    as the cube, so each pixel has the bits it has in any other cut.
    """
    mapped = ForwardMap(t, e, x)
    return next(mapped.tiles(max(mapped.n_pixels, 1)),
                np.empty((t.n_endmembers, 0)))


def inverse_transform(t: SubspaceTransform, u: np.ndarray) -> np.ndarray:
    """Recover abundances from subspace coefficients: a = D^{-1} u.

    One product with the explicit inverse that already defines the
    half-space normals, through _block_product: a C-ordered block whose
    columns keep their bits at any width, layout or BLAS thread count.
    """
    return _block_product(t.d_inv, u)
