import numpy as np
import pytest

from sudap.errors import IndexOutOfRange
from sudap.projectors import (
    project_hyperplane,
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
