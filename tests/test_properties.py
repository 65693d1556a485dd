"""Property tests of the separable forward operator, the exact local solve,
the single-cluster degeneration of the two ADMM forms, and the step bound
and optimality of the nonnegative-lasso solver and the composite baseline.

Grids are drawn with nx != ny so that a transposed reshape of the factored
operator cannot pass; every check is against the entry-by-entry dense
matrix of conftest.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distradar.model import ClusterGeometry, ForwardOperator, SceneGrid
from distradar.solvers import (CADMM, SADMM, SolverConfig, composite_baseline,
                               lasso_lipschitz, local_solve, run, solve_lasso)

from conftest import dense_operator_matrix

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def cases(draw):
    """(grid, geometry, rng) for a random small scene and cluster."""
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 6).filter(lambda v: v != nx))
    grid = SceneGrid(nx, ny, draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))
    m_count = draw(st.integers(1, 4))
    w_count = draw(st.integers(1, 4))
    azimuths = (draw(st.floats(0.0, 2 * math.pi))
                + np.linspace(0.0, draw(st.floats(0.01, 0.5)), m_count))
    freqs = (draw(st.floats(8.0e9, 10.0e9))
             + np.linspace(0.0, draw(st.floats(1.0e8, 1.0e9)), w_count))
    geometry = ClusterGeometry(azimuths, draw(st.floats(0.0, 1.2)), freqs)
    return grid, geometry, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _phase(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * math.pi, n))


@PROPERTY
@given(cases())
def test_apply_adjoint_match_dense(case):
    grid, geometry, rng = case
    theta = _phase(rng, grid.n_pixels)
    op = ForwardOperator(grid, geometry).with_phase_matrix(theta)
    dense = dense_operator_matrix(grid, geometry, theta)
    x = _complex(rng, grid.n_pixels)
    y = _complex(rng, op.n_measurements)
    fwd, fwd_ref = op.apply(x), dense @ x
    assert np.linalg.norm(fwd - fwd_ref) <= 1e-12 * np.linalg.norm(fwd_ref)
    adj, adj_ref = op.adjoint(y), dense.conj().T @ y
    assert np.linalg.norm(adj - adj_ref) <= 1e-12 * np.linalg.norm(adj_ref)


@PROPERTY
@given(cases())
def test_adjointness(case):
    grid, geometry, rng = case
    op = ForwardOperator(grid, geometry).with_phase_matrix(_phase(rng, grid.n_pixels))
    u = _complex(rng, grid.n_pixels)
    v = _complex(rng, op.n_measurements)
    au, ahv = op.apply(u), op.adjoint(v)
    bound = 1e-12 * (np.linalg.norm(au) * np.linalg.norm(v)
                     + np.linalg.norm(u) * np.linalg.norm(ahv))
    assert abs(np.vdot(v, au) - np.vdot(ahv, u)) <= bound


@PROPERTY
@given(cases(), st.floats(0.5, 2.0), st.floats(0.5, 5.0))
def test_solve_matrix_inverts_dense_gram(case, mu, beta):
    # the inverse is phase-free: beta*I + mu*A A^H of a folded operator is
    # beta*I + mu*K K^H
    grid, geometry, rng = case
    theta = _phase(rng, grid.n_pixels)
    op = ForwardOperator(grid, geometry).with_phase_matrix(theta)
    dense = dense_operator_matrix(grid, geometry, theta)
    eye = np.eye(op.n_measurements)
    system = beta * eye + mu * dense @ dense.conj().T
    assert np.linalg.norm(system @ op.solve_matrix(mu, beta) - eye) <= 1e-10


@PROPERTY
@given(cases(), st.floats(0.5, 2.0), st.floats(0.5, 5.0))
def test_row_gram_is_real_and_solve_matrix_symmetric(case, mu, beta):
    # pixel centres symmetric about 0 make K K^H real, which is what lets
    # solve_matrix build and invert it in float64
    grid, geometry, _ = case
    dense = dense_operator_matrix(grid, geometry)
    gram = dense @ dense.conj().T
    assert np.max(np.abs(gram.imag)) <= 1e-13 * np.max(np.abs(gram))
    m = ForwardOperator(grid, geometry).solve_matrix(mu, beta)
    assert m.dtype == np.float64
    assert np.max(np.abs(m - m.T)) <= 1e-13 * np.max(np.abs(m))


@PROPERTY
@given(cases(), st.floats(0.5, 2.0), st.floats(0.5, 5.0))
def test_local_solve_matches_dense(case, mu, beta):
    grid, geometry, rng = case
    theta = _phase(rng, grid.n_pixels)
    op = ForwardOperator(grid, geometry).with_phase_matrix(theta)
    dense = dense_operator_matrix(grid, geometry, theta)
    rhs = _complex(rng, grid.n_pixels)
    ref = np.linalg.solve(mu * dense.conj().T @ dense
                          + beta * np.eye(grid.n_pixels), rhs)
    got = local_solve(op, mu, beta, rhs)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY
@given(cases(), st.floats(0.5, 2.0), st.floats(0.1, 5.0), st.floats(0.5, 5.0),
       st.integers(1, 15))
def test_single_cluster_methods_agree(case, mu, lam, beta, iters):
    # with one cluster the consensus and sharing constraints coincide, so
    # both forms run the same iterates up to rounding in the global update
    grid, geometry, rng = case
    op = ForwardOperator(grid, geometry).with_phase_matrix(_phase(rng, grid.n_pixels))
    scene = rng.uniform(0.0, 1.0, grid.n_pixels) * (rng.uniform(size=grid.n_pixels) < 0.3)
    y = op.apply(scene.astype(complex)) + 0.01 * _complex(rng, op.n_measurements)
    cfg = SolverConfig(mu=mu, lam=lam, beta=beta, eps_abs=1e-300,
                       eps_rel=1e-300, max_outer_iters=iters)
    a = run(CADMM, [op], [y], cfg)
    b = run(SADMM, [op], [y], cfg)
    assert a.state.iter == b.state.iter == iters
    for got, ref in ((b.state.global_image, a.state.global_image),
                     (b.state.local_images, a.state.local_images)):
        assert np.linalg.norm(got - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))


@st.composite
def composite_cases(draw):
    """(grid, Q >= 2 geometries, rng): clusters at distinct azimuths."""
    grid, geometry, rng = draw(cases())
    extra = [ClusterGeometry(geometry.azimuth_angles + draw(st.floats(0.3, 3.0)),
                             geometry.elevation, geometry.frequencies)
             for _ in range(1, draw(st.integers(2, 3)))]
    return grid, [geometry] + extra, rng


def _folded_clusters(grid, geometries, rng):
    """Operators with random folded phases, their dense matrices, and
    measurements of a random nonnegative scene per cluster."""
    ops, denses, ys = [], [], []
    for geometry in geometries:
        theta = _phase(rng, grid.n_pixels)
        ops.append(ForwardOperator(grid, geometry).with_phase_matrix(theta))
        denses.append(dense_operator_matrix(grid, geometry, theta))
        scene = (rng.uniform(0.5, 1.5, grid.n_pixels)
                 * (rng.uniform(size=grid.n_pixels) < 0.3))
        ys.append(denses[-1] @ scene + 0.05 * _complex(rng, ops[-1].n_measurements))
    return ops, denses, ys


@PROPERTY
@given(composite_cases(), st.floats(0.5, 2.0))
def test_lasso_lipschitz_is_exact_norm_bound(case, mu):
    # for one cluster, mu*lambda_max of the phase-free row Gram is
    # mu*||A||^2 of the folded dense matrix, and so bounds the curvature
    # mu*||[Re A; Im A]||^2 of (mu/2)*||y - A x||^2 over real x; for Q >= 2
    # the summed bound is at least the curvature of the stacked matrix
    grid, geometries, rng = case
    ops, denses, _ = _folded_clusters(grid, geometries, rng)
    for op, dense in zip(ops, denses):
        got = lasso_lipschitz([op], mu)
        exact = mu * np.linalg.norm(dense, 2) ** 2
        assert abs(got - exact) <= 1e-10 * exact
        real_curvature = mu * np.linalg.norm(
            np.vstack([dense.real, dense.imag]), 2) ** 2
        assert got >= real_curvature * (1 - 1e-12)
    stacked = np.vstack([part for a in denses for part in (a.real, a.imag)])
    assert (lasso_lipschitz(ops, mu)
            >= mu * np.linalg.norm(stacked, 2) ** 2 * (1 - 1e-12))


def _assert_lasso_kkt(x, denses, ys, mu, lam, tol):
    # x minimises sum_q (mu/2)*||y_q - A_q x||^2 + lam*||x||_1 over x >= 0
    # (A_q the folded dense matrices) to within the stop rule: with
    # g = mu*Re sum_q A_q^H (A_q x - y_q) + lam, the KKT conditions are
    # g_i = 0 where x_i > 0 and g_i >= 0 where x_i = 0. A prox-gradient
    # step of size 1/L from y_k to x leaves dist(0, subdifferential at x)
    # <= 2*||G(y_k)||, and the stop makes ||G(y_k)|| < tol*||G(0)||, so the
    # stated tolerance is 2*tol*||G(0)|| with
    # ||G(0)|| = ||max(mu*Re sum_q A_q^H y_q - lam, 0)||, plus
    # 1e-10*||mu*Re sum_q A_q^H y_q|| for rounding
    back = mu * sum((a.conj().T @ y).real for a, y in zip(denses, ys))
    bound = (2 * tol * np.linalg.norm(np.maximum(back - lam, 0.0))
             + 1e-10 * np.linalg.norm(back))
    g = mu * sum((a.conj().T @ (a @ x - y)).real
                 for a, y in zip(denses, ys)) + lam
    assert np.all(x >= 0)
    assert np.all(np.abs(g[x > 0]) <= bound)
    assert np.all(g[x == 0] >= -bound)


@PROPERTY
@given(composite_cases(), st.floats(0.5, 2.0), st.floats(0.02, 0.8))
def test_solve_lasso_satisfies_kkt(case, mu, lam_frac):
    # Q >= 2 clusters with random folded phases share one image
    grid, geometries, rng = case
    ops, denses, ys = _folded_clusters(grid, geometries, rng)
    lam = lam_frac * np.max(mu * sum((a.conj().T @ y).real
                                     for a, y in zip(denses, ys)))
    tol = 1e-9
    x, iterations, residual = solve_lasso(ops, ys, mu, lam, 100_000, tol)
    assert iterations < 100_000 and residual < tol
    _assert_lasso_kkt(x, denses, ys, mu, lam, tol)


@PROPERTY
@given(composite_cases(), st.floats(0.02, 0.8))
def test_composite_images_satisfy_lasso_kkt(case, lam_frac):
    # each cluster's image minimises ||y - A x||^2 + lam*||x||_1 over
    # x >= 0, the one-cluster lasso at mu = 2, to within the stop rule
    grid, geometries, rng = case
    tol = 1e-6
    ops, denses, ys = _folded_clusters(grid, geometries, rng)
    lam = lam_frac * max(np.max(np.abs(2.0 * (a.conj().T @ y).real))
                         for a, y in zip(denses, ys))
    fused = composite_baseline(ops, ys, lam, tol=tol)
    assert fused.termination == "converged"
    singles = []
    for op, a, y in zip(ops, denses, ys):
        single = composite_baseline([op], [y], lam, tol=tol)
        singles.append(single.image)
        _assert_lasso_kkt(single.image, [a], [y], 2.0, lam, tol)
    np.testing.assert_array_equal(fused.image, np.max(singles, axis=0))
