import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sudap.errors import IndexOutOfRange
from sudap.projectors import (
    project_hyperplane,
    project_intersection_dual,
    project_intersection_geometric,
    project_intersection_kkt,
)
from sudap.subspace import build_transform
from conftest import random_endmembers


def _transform(seed, n_bands=36, m=6):
    rng = np.random.default_rng(seed)
    return build_transform(random_endmembers(rng, n_bands, m))


def _geometric(t, i, z):
    """Drop z onto the hyperplane, then take one step with tau = 0."""
    u = project_hyperplane(t, z)
    project_intersection_geometric(t, i, u, np.zeros_like(u))
    return u


def test_hyperplane_output_satisfies_sum_constraint():
    t = _transform(0)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((6, 40)) * 5.0
    out = project_hyperplane(t, z)
    assert np.abs(t.b @ out - 1.0).max() < 1e-12


def test_hyperplane_is_idempotent_and_moves_along_c():
    t = _transform(2)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 10))
    once = project_hyperplane(t, z)
    twice = project_hyperplane(t, once)
    assert np.allclose(once, twice, atol=1e-13)
    # Displacement is a rank-one update along c.
    delta = z - once
    coeffs = t.c @ delta / (t.c @ t.c)
    assert np.allclose(delta, np.outer(t.c, coeffs), atol=1e-12)


def test_hyperplane_projection_is_closest_point():
    # Among random points on the constraint plane, none is closer to z
    # than the projection.
    t = _transform(4)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((6, 1))
    best = project_hyperplane(t, z)
    d_best = np.linalg.norm(z - best)
    for _ in range(50):
        other = project_hyperplane(t, rng.standard_normal((6, 1)) * 3.0)
        assert np.linalg.norm(z - other) >= d_best - 1e-12


def test_geometric_projection_lands_in_both_sets():
    t = _transform(6)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 200)) * 2.0
    for i in range(t.n_endmembers):
        out = _geometric(t, i, z)
        assert np.abs(t.b @ out - 1.0).max() < 1e-11
        assert (t.d_inv[i] @ out).min() > -1e-11


def test_points_already_in_intersection_are_fixed():
    t = _transform(10)
    rng = np.random.default_rng(11)
    # Images of strictly positive abundances satisfy every constraint.
    a = rng.dirichlet(np.ones(6), size=25).T + 0.0
    u = t.d @ a
    for i in range(6):
        out = _geometric(t, i, u)
        assert np.allclose(out, project_hyperplane(t, u), atol=1e-12)


def test_kkt_and_geometric_routes_agree():
    t = _transform(12)
    rng = np.random.default_rng(13)
    z = rng.standard_normal((6, 500)) * 4.0
    u = project_hyperplane(t, z)
    tau = rng.exponential(2.0, size=u.shape)
    for i in range(6):
        a = _geometric(t, i, z)
        b = project_intersection_kkt(t, i, z)
        assert np.abs(a - b).max() < 1e-12
        # With multipliers, the step projects u - s_i tau_i, the point
        # Dykstra's correction -s_i tau_i puts it back to.
        step_u, step_tau = u.copy(), tau.copy()
        project_intersection_geometric(t, i, step_u, step_tau)
        expected = project_intersection_kkt(
            t, i, u - np.outer(t.s[i], tau[i])
        )
        assert np.abs(step_u - expected).max() < 1e-12
        assert (step_tau >= 0).all()
        assert np.array_equal(np.delete(step_tau, i, 0), np.delete(tau, i, 0))


def test_the_step_on_the_multipliers_is_the_step_on_u():
    # u = y0 + S'tau for any multipliers tau >= 0; one step on half space
    # i moves tau_i alike whether it reads u or only rhs = f - S y0.
    t = _transform(16)
    rng = np.random.default_rng(17)
    y0 = project_hyperplane(t, rng.standard_normal((6, 300)) * 4.0)
    tau = rng.exponential(2.0, size=y0.shape) * (rng.random(y0.shape) < 0.5)
    rhs = t.f[:, None] - t.s @ y0
    for i in range(6):
        u_geo, tau_geo = y0 + t.s.T @ tau, tau.copy()
        project_intersection_geometric(t, i, u_geo, tau_geo)
        tau_dual = tau.copy()
        project_intersection_dual(t, i, rhs, tau_dual)
        assert np.abs(tau_dual - tau_geo).max() < 1e-12
        assert np.abs(y0 + t.s.T @ tau_dual - u_geo).max() < 1e-12
        assert np.array_equal(np.delete(tau_dual, i, 0), np.delete(tau, i, 0))
    with pytest.raises(IndexOutOfRange):
        project_intersection_dual(t, 6, rhs, tau)


# Probes subspace._block_product on the installed BLAS. Every column of
# every case (m, width, offset, layout of z, and a as given or as the
# transpose of a C array) must get the bits it gets alone.
# Prints the mismatch count, the case count and a digest of those bits.
_PROBE_BLOCK_PRODUCT = """
import hashlib, json
import numpy as np
from sudap.subspace import _block_product
rng = np.random.default_rng(5)
widths = list(range(1, 70)) + [255, 511, 512, 513, 1025, 2047]
bad = cases = 0
digest = hashlib.sha256()
for m in (2, 5, 10, 14, 20, 24, 30):
    wide = rng.standard_normal((m, 2200))
    for a in (rng.standard_normal((m, m)), rng.standard_normal((m, m)).T):
        alone = np.hstack([_block_product(a, wide[:, [j]])
                           for j in range(wide.shape[1])])
        digest.update(alone.tobytes())
        for w in widths:
            for lo in (0, 1, 3, 8, 100):
                z = wide[:, lo:lo + w]
                spread = np.zeros((m, 2 * w))
                spread[:, ::2] = z
                for laid in (np.ascontiguousarray(z), np.asfortranarray(z),
                             z, spread[:, ::2]):
                    cases += 1
                    bad += not np.array_equal(_block_product(a, laid),
                                              alone[:, lo:lo + w])
print(json.dumps([bad, cases, digest.hexdigest()]))
"""


def test_block_product_gives_each_column_its_own_bits_on_this_blas():
    root = Path(__file__).resolve().parent.parent
    results = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   OMP_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE_BLOCK_PRODUCT],
            env=env, check=True, capture_output=True, text=True,
        )
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    for bad, cases, _ in results:
        assert cases == 2 * 7 * 75 * 5 * 4
        assert bad == 0, f"{bad} of {cases} cases changed a column's bits"
    assert results[0][2] == results[1][2]


def test_kkt_route_invariant_to_offset_shift():
    # The multiplier formula subtracts the hyperplane residual first, so
    # shifting z along b by any amount must not change the output.
    t = _transform(14)
    rng = np.random.default_rng(15)
    z = rng.standard_normal((6, 50))
    shifted = z + np.outer(t.b, rng.standard_normal(50) * 10.0)
    a = project_intersection_kkt(t, 3, z)
    b = project_intersection_kkt(t, 3, shifted)
    assert np.abs(a - b).max() < 1e-10


def test_projection_index_bounds_are_checked():
    t = _transform(18)
    z = np.zeros((6, 3))
    for bad in (-1, 6, 17):
        with pytest.raises(IndexOutOfRange):
            project_intersection_geometric(t, bad, z, z.copy())
        with pytest.raises(IndexOutOfRange):
            project_intersection_kkt(t, bad, z)


def test_projection_is_firmly_nonexpansive():
    # Projections onto convex sets shrink distances; check the pairwise
    # contraction on random pairs for every constraint index.
    t = _transform(19)
    rng = np.random.default_rng(20)
    z1 = rng.standard_normal((6, 100)) * 2.0
    z2 = rng.standard_normal((6, 100)) * 2.0
    for i in range(6):
        p1 = _geometric(t, i, z1)
        p2 = _geometric(t, i, z2)
        before = np.linalg.norm(z1 - z2, axis=0)
        after = np.linalg.norm(p1 - p2, axis=0)
        assert (after <= before + 1e-12).all()
