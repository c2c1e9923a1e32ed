"""Closed-form projectors onto the transformed constraint sets.

Everything operates columnwise on m x n coefficient blocks, so one call
projects every pixel at once. Inputs of shape (m,) are accepted and give
back the same shape.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .subspace import SubspaceTransform


def _columns(z: np.ndarray) -> tuple[np.ndarray, bool]:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        return z[:, None], True
    return z, False


def _row_dot(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v'Z per column with a fixed accumulation order.

    Equivalent to v @ z, but BLAS picks its reduction strategy based on
    the operand width, so v @ z on a column block need not match the
    same columns inside a wider matrix bit for bit. This loop always
    accumulates in index order, which makes every projector, and with
    it the whole solver, invariant to how callers partition columns.
    """
    out = v[0] * z[0]
    for k in range(1, v.shape[0]):
        out += v[k] * z[k]
    return out


def _check_index(t: SubspaceTransform, i: int) -> None:
    if not 0 <= i < t.n_endmembers:
        raise IndexOutOfRange(
            f"half-space index {i} outside 0..{t.n_endmembers - 1}"
        )


def project_hyperplane(t: SubspaceTransform, z: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the sum hyperplane {u : b'u = 1}.

    Per column: u = z - c (b'z - 1), with c = b/|b|^2. The hyperplane
    is affine, so this is an exact single-step projection.
    """
    z, single = _columns(z)
    out = z - np.outer(t.c, _row_dot(t.b, z) - 1.0)
    return out[:, 0] if single else out


def project_intersection_geometric(
    t: SubspaceTransform, i: int, z: np.ndarray, z_on_s: bool = False
) -> np.ndarray:
    """Project onto the intersection of the sum hyperplane and half space i.

    The set is {u : b'u = 1, d_i'u >= 0}, a half-hyperplane. Projection
    factors into two steps that compose cleanly because s_i lies inside
    the hyperplane (s_i'c = 0):

        zs  = z - c (b'z - 1)          drop to the hyperplane
        tau = max(0, f_i - s_i'zs)      in-plane violation of half space i
        u   = zs + s_i tau'             slide back to the boundary

    Columns already satisfying d_i'zs >= 0 get tau = 0 and are returned
    as zs untouched.

    Parameters
    ----------
    t : SubspaceTransform
    i : int
        Half-space index, 0-based.
    z : np.ndarray
        Points to project, (m,) or (m, n).
    z_on_s : bool
        Set when z is already known to lie on the hyperplane; skips the
        first step. Wrong use breaks the result, so callers must only
        pass points produced by a hyperplane-preserving map.
    """
    _check_index(t, i)
    z, single = _columns(z)
    zs = z if z_on_s else project_hyperplane(t, z)
    tau = t.f[i] - _row_dot(t.s[i], zs)
    np.maximum(tau, 0.0, out=tau)
    out = zs + np.outer(t.s[i], tau)
    return out[:, 0] if single else out


def project_intersection_kkt(
    t: SubspaceTransform, i: int, z: np.ndarray
) -> np.ndarray:
    """Same projection as project_intersection_geometric, derived differently.

    Solves the stationarity conditions of min |u - z|^2 s.t. b'u = 1,
    d_i'u >= 0 directly: the equality multiplier gives the shift
    z~ = c (b'z - 1), and the inequality multiplier is active exactly
    when the shifted point has (D^{-1}(z - z~))_i < 0. Kept as an
    independent route for cross-checking the geometric form; the two
    must agree to rounding.
    """
    _check_index(t, i)
    z, single = _columns(z)
    z_tilde = np.outer(t.c, _row_dot(t.b, z) - 1.0)
    w = z - z_tilde
    tau = -_row_dot(t.d_inv[i], w) / t.p_norms[i]
    np.maximum(tau, 0.0, out=tau)
    out = w + np.outer(t.s[i], tau)
    return out[:, 0] if single else out

