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

from .errors import DegenerateProblem, DimensionMismatch, RankDeficient
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

    z's columns go to BLAS as views, in blocks of at most ``block`` (a
    multiple of BLAS_PAD, or z's width or more) whose widths are
    multiples of BLAS_PAD; only the last width % BLAS_PAD columns are
    copied, into a zeroed block of BLAS_PAD columns. So a column's result
    is the same whatever the width, offset and layout of the z it came
    in, as with projectors._row_dot, at a fraction of its cost;
    test_projectors probes the rule on the installed BLAS.
    """
    width = z.shape[1]
    if out is None:
        out = np.empty((a.shape[0], width))
    tail = width % BLAS_PAD
    full = width - tail
    for lo in range(0, full, block):
        hi = min(lo + block, full)
        np.matmul(a, z[:, lo:hi], out=out[:, lo:hi])
    if tail:
        pad = np.zeros((z.shape[0], BLAS_PAD))
        pad[:, :tail] = z[:, full:]
        out[:, full:] = np.matmul(a, pad)[:, :tail]
    return out


def forward_width(m: int, bands: int) -> int:
    """Pixels per tile of the forward map: the largest multiple of
    BLAS_PAD (at least one) whose tile fits in io.READ_TILE_BYTES and
    whose product makes at most SMALL_PRODUCT multiply-adds."""
    from . import io  # io imports this module, through metrics
    fit = min(io.READ_TILE_BYTES // (8 * bands), SMALL_PRODUCT // (m * bands))
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


def forward_transform(t: SubspaceTransform, e, x) -> np.ndarray:
    """Map observations into the subspace: y = D^{-T} E' x.

    ``e`` may be the model wrapper or a plain array. ``x`` holds one
    pixel per column: an ImageCube or a plain array, or a source with
    ``n_pixels`` and a ``tiles(width)`` method that yields the pixels in
    order as column blocks of that width, as io.open_cube gives. The
    m x bands map D^{-T} E' is formed once, by one small triangular
    solve against E'; the pixels then go through _block_product with it,
    straight into their columns of y, in tiles of forward_width pixels:
    a file's read tiles, or views of a pixel-major (Fortran-ordered)
    cube in memory. Any other cube is one product: a band-major cube
    reads faster whole than cut. Every tile but the last is a multiple
    of BLAS_PAD wide, and each product pads its last width % BLAS_PAD
    pixels, so a pixel's bits depend on neither the cut nor the layout.
    For noiseless x = E a the output equals D a.
    """
    e_data = np.asarray(getattr(e, "data", e), dtype=np.float64)
    fmap = scipy.linalg.solve_triangular(
        t.d, e_data.T, trans="T", lower=False
    )
    width = forward_width(*fmap.shape)
    if hasattr(x, "tiles"):
        n, blocks = x.n_pixels, x.tiles(width)
    else:
        x_data = np.asarray(getattr(x, "data", x), dtype=np.float64)
        n, blocks = x_data.shape[1], (x_data,)
        if not x_data.flags.f_contiguous:
            width = max(n, 1)
    y = np.empty((fmap.shape[0], n))
    lo = 0
    for block in blocks:
        if e_data.shape[0] != block.shape[0]:
            raise DimensionMismatch(e_data.shape[0], block.shape[0])
        hi = lo + block.shape[1]
        _block_product(fmap, block, out=y[:, lo:hi], block=width)
        lo = hi
    return y


def inverse_transform(t: SubspaceTransform, u: np.ndarray) -> np.ndarray:
    """Recover abundances from subspace coefficients: a = D^{-1} u.

    One product with the explicit inverse that already defines the
    half-space normals, through _block_product: a C-ordered block whose
    columns keep their bits at any width, layout or BLAS thread count.
    """
    return _block_product(t.d_inv, u)
