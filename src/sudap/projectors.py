"""Closed-form projectors onto the transformed constraint sets.

Everything operates columnwise on m x n coefficient blocks, so one call
projects every pixel at once.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .subspace import SubspaceTransform


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

    Per column: u = z - c (b'z - 1), with c = b/|b|^2, in a new C-ordered
    block. The hyperplane is affine, so this projection is exact in one step.
    """
    z = np.asarray(z, dtype=np.float64)
    return np.subtract(z, np.outer(t.c, _row_dot(t.b, z) - 1.0), order="C")


def project_intersection_geometric(
    t: SubspaceTransform, i: int, u: np.ndarray, tau: np.ndarray
) -> None:
    """One Hildreth step on half space i, in place on u and tau.

    u holds m x n points on the sum hyperplane and tau their
    multipliers (>= 0, row i for half space i). The step projects
    z = u - s_i tau_i onto {u : b'u = 1, s_i'u >= f_i}. The unit normal
    s_i lies inside the hyperplane, so z stays on it and the projection
    only slides z along s_i:

        tau_new = max(0, f_i - s_i'u + tau_i)
        u      += s_i (tau_new - tau_i)
        tau_i   = tau_new

    With tau = 0 this is the plain projection of u. u is updated one
    row at a time, so no m x n temporary is made. The solver runs the
    same step on the multipliers alone (project_intersection_dual); this
    step on u is kept as the reference the tests compare that one with.
    """
    _check_index(t, i)
    s, tau_i = t.s[i], tau[i]
    tau_new = t.f[i] - _row_dot(s, u)
    tau_new += tau_i
    np.maximum(tau_new, 0.0, out=tau_new)
    delta = tau_new - tau_i
    tau_i[...] = tau_new
    for k in range(s.shape[0]):
        u[k] += s[k] * delta


def project_intersection_dual(
    t: SubspaceTransform, i: int, rhs: np.ndarray, tau: np.ndarray
) -> None:
    """project_intersection_geometric's step, in place on tau alone.

    rhs holds f - S y0 for m x n points y0 on the sum hyperplane, and
    tau the multipliers of the points u = y0 + S'tau, which are never
    formed. With G = S S' (t.gram), s_i'u = f_i - rhs_i + (G tau)_i, so
    the step on half space i is

        tau_i <- max(0, rhs_i + tau_i - (G tau)_i),

    m row operations where the step on u makes 2m.
    """
    _check_index(t, i)
    tau_new = rhs[i] - _row_dot(t.gram[i], tau)
    tau_new += tau[i]
    np.maximum(tau_new, 0.0, out=tau[i])


def project_intersection_kkt(
    t: SubspaceTransform, i: int, z: np.ndarray
) -> np.ndarray:
    """Project z onto the intersection of the hyperplane and half space i.

    Solves the stationarity conditions of min |u - z|^2 s.t. b'u = 1,
    d_i'u >= 0 directly: the equality multiplier gives the shift
    z~ = c (b'z - 1), made by project_hyperplane, and the inequality
    multiplier is active exactly when the shifted point has
    (D^{-1}(z - z~))_i < 0. Kept as an independent route for
    cross-checking the solver's step, project_intersection_dual, which
    gives the same point, to rounding, as y0 + S'tau from
    y0 = project_hyperplane(z), rhs = f - S y0 and tau = 0.
    """
    _check_index(t, i)
    w = project_hyperplane(t, z)
    tau = -_row_dot(t.d_inv[i], w) / t.p_norms[i]
    np.maximum(tau, 0.0, out=tau)
    return w + np.outer(t.s[i], tau)
