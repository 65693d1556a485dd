import math

import numpy as np
import pytest

from distradar.model import SceneGrid, make_operator
from distradar.simulate import (Scatterer, SimScenario, make_uniform_clusters,
                                rasterize_scene, synthesize_measurements)
from distradar.solvers import (CADMM, SADMM, NumericalError, SolverConfig,
                               SolverState, accelerated_prox_gradient,
                               composite_baseline, dual_update,
                               global_update_cadmm, global_update_sadmm,
                               local_solve, local_update_cadmm,
                               residuals_and_tolerances, run)

from conftest import dense_operator_matrix


def _cluster_setup(seed=0, q_count=4, snr_db=math.inf):
    grid = SceneGrid(8, 8, 4.0, 4.0)
    clusters = make_uniform_clusters(q_count, math.radians(3.0), 3,
                                     math.radians(25.0), 9.6e9, 1.0e9, 4)
    rng = np.random.default_rng(seed)
    scatterers = [Scatterer((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), 1.0)
                  for _ in range(3)]
    scenario = SimScenario(grid, clusters, scatterers, snr_db, seed)
    histories = synthesize_measurements(scenario)
    ops = [make_operator(grid, c) for c in clusters]
    return scenario, ops, [h.data for h in histories]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_outer_iters=0)
    _, ops, ys = _cluster_setup(seed=1, q_count=1)
    with pytest.raises(ValueError, match="unknown method"):
        run("nope", ops, ys, SolverConfig())


def test_local_solve_matches_dense_solve(small_grid, small_geometry):
    op = make_operator(small_grid, small_geometry)
    dense = dense_operator_matrix(small_grid, small_geometry)
    mu, beta = 0.7, 2.3
    system = mu * dense.conj().T @ dense + beta * np.eye(16)
    rng = np.random.default_rng(13)
    for _ in range(5):
        rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        expected = np.linalg.solve(system, rhs)
        got = local_solve(op, mu, beta, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-11)


def test_local_solve_zero_rhs_and_nonfinite(small_grid, small_geometry):
    op = make_operator(small_grid, small_geometry)
    np.testing.assert_array_equal(
        local_solve(op, 1.0, 1.0, np.zeros(16, complex)), np.zeros(16))
    bad = np.zeros(16, complex)
    bad[0] = np.nan
    with pytest.raises(NumericalError):
        local_solve(op, 1.0, 1.0, bad)


def test_fista_matches_soft_threshold_closed_form():
    # min (c/2)||z - b||^2 + lam*||z||_1 over z >= 0 has the closed-form
    # minimizer max(b - lam/c, 0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        b = rng.standard_normal(30) * 3
        c = rng.uniform(0.5, 5.0)
        lam = rng.uniform(0.1, 2.0)
        z = accelerated_prox_gradient(lambda v: c * (v - b), c, lam, 30,
                                      max_iters=400, tol=1e-14)
        np.testing.assert_allclose(z, np.maximum(b - lam / c, 0.0),
                                   atol=1e-10)


def test_fista_single_step_exact_for_matching_lipschitz():
    # with step 1/L equal to the true curvature the first step already
    # lands on the minimizer
    b = np.array([3.0, -1.0, 0.4, 0.0])
    c, lam = 2.0, 0.5
    z = accelerated_prox_gradient(lambda v: c * (v - b), c, lam, 4,
                                  max_iters=3, tol=1e-15)
    np.testing.assert_allclose(z, np.maximum(b - lam / c, 0.0), atol=1e-15)


def test_global_update_cadmm_matches_closed_form():
    rng = np.random.default_rng(21)
    q, n = 5, 40
    local = np.abs(rng.standard_normal((q, n)))
    sigma = rng.standard_normal(q * n)
    cfg = SolverConfig(lam=0.8, beta=1.7)
    got = global_update_cadmm(local, sigma, cfg)
    expected = np.maximum(
        (cfg.beta * local.sum(axis=0) + sigma.reshape(q, n).sum(axis=0))
        / (q * cfg.beta) - cfg.lam / (q * cfg.beta), 0.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_global_update_sadmm_matches_closed_form():
    rng = np.random.default_rng(22)
    n = 40
    x_bar = np.abs(rng.standard_normal(n)) * 2
    sigma = rng.standard_normal(n)
    cfg = SolverConfig(lam=0.6, beta=2.5)
    got = global_update_sadmm(x_bar, sigma, cfg)
    expected = np.maximum(x_bar + sigma / cfg.beta - cfg.lam / cfg.beta, 0.0)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_local_update_cadmm_matches_dense(small_grid, small_geometry):
    op = make_operator(small_grid, small_geometry)
    dense = dense_operator_matrix(small_grid, small_geometry)
    rng = np.random.default_rng(33)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x_g = np.abs(rng.standard_normal(16))
    sigma = rng.standard_normal(16)
    cfg = SolverConfig(mu=1.3, beta=2.1)
    got = local_update_cadmm(op, cfg.mu * op.adjoint(y), x_g, sigma, cfg)
    system = cfg.mu * dense.conj().T @ dense + cfg.beta * np.eye(16)
    rhs = cfg.mu * dense.conj().T @ y + cfg.beta * x_g - sigma
    expected = np.maximum(np.linalg.solve(system, rhs).real, 0.0)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_dual_update_transcription():
    rng = np.random.default_rng(44)
    q, n = 3, 10
    local = np.abs(rng.standard_normal((q, n)))
    x_g = np.abs(rng.standard_normal(n))
    cfg = SolverConfig(beta=1.9)
    sigma_c = rng.standard_normal(q * n)
    new_c = dual_update(CADMM, local, x_g, sigma_c, cfg)
    for i in range(q):
        np.testing.assert_allclose(
            new_c[i * n:(i + 1) * n],
            sigma_c[i * n:(i + 1) * n] + cfg.beta * (local[i] - x_g),
            rtol=1e-14)
    sigma_s = rng.standard_normal(n)
    new_s = dual_update(SADMM, local, x_g, sigma_s, cfg)
    np.testing.assert_allclose(new_s,
                               sigma_s + cfg.beta * (local.sum(axis=0) - x_g),
                               rtol=1e-13)


def test_residuals_and_tolerances_transcription():
    rng = np.random.default_rng(55)
    q, n = 3, 12
    local = np.abs(rng.standard_normal((q, n)))
    x_g = np.abs(rng.standard_normal(n))
    x_prev = np.abs(rng.standard_normal(n))
    cfg = SolverConfig(beta=1.4, eps_abs=1e-3, eps_rel=1e-2)

    state = SolverState(local, x_g, rng.standard_normal(q * n))
    pri, dua, ep, ed = residuals_and_tolerances(CADMM, x_prev, state, cfg)
    stack = np.concatenate([local[i] - x_g for i in range(q)])
    assert pri == pytest.approx(np.linalg.norm(stack), rel=1e-13)
    assert dua == pytest.approx(
        np.linalg.norm(cfg.beta * (x_g - x_prev)), rel=1e-13)
    assert ep == pytest.approx(
        math.sqrt(q * n) * cfg.eps_abs
        + cfg.eps_rel * max(np.linalg.norm(local),
                            math.sqrt(q) * np.linalg.norm(x_g)), rel=1e-13)
    assert ed == pytest.approx(
        math.sqrt(q * n) * cfg.eps_abs
        + cfg.eps_rel * np.linalg.norm(state.dual), rel=1e-13)

    state_s = SolverState(local, x_g, rng.standard_normal(n))
    pri, dua, ep, ed = residuals_and_tolerances(SADMM, x_prev, state_s, cfg)
    x_bar = local.sum(axis=0)
    assert pri == pytest.approx(np.linalg.norm(x_bar - x_g), rel=1e-13)
    assert ep == pytest.approx(
        math.sqrt(n) * cfg.eps_abs
        + cfg.eps_rel * max(np.linalg.norm(x_bar), np.linalg.norm(x_g)),
        rel=1e-13)
    assert ed == pytest.approx(
        math.sqrt(n) * cfg.eps_abs
        + cfg.eps_rel * np.linalg.norm(state_s.dual), rel=1e-13)


@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_run_converges_and_logs(method):
    _, ops, ys = _cluster_setup(seed=1)
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, eps_abs=1e-3, eps_rel=1e-3,
                       max_outer_iters=200)
    seen = []
    result = run(method, ops, ys, cfg, on_iteration=lambda s: seen.append(s.iter))
    assert result.termination == "converged"
    log = result.state.residual_log
    assert log[-1].primal_norm <= log[-1].eps_pri
    assert log[-1].dual_norm <= log[-1].eps_dual
    assert [r.iteration for r in log] == list(range(1, len(log) + 1))
    assert seen == list(range(1, len(log) + 1))
    assert len(result.objective_history) == len(log)
    assert np.all(result.state.global_image >= 0)
    assert np.all(result.state.local_images >= 0)
    # earlier iterations were not converged
    first = log[0]
    assert first.primal_norm > first.eps_pri or first.dual_norm > first.eps_dual


@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_run_max_iters_termination(method):
    _, ops, ys = _cluster_setup(seed=1)
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, eps_abs=1e-9, eps_rel=1e-9,
                       max_outer_iters=3)
    result = run(method, ops, ys, cfg)
    assert result.termination == "max_iters"
    assert len(result.state.residual_log) == 3


@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_run_thread_count_invariant(method):
    _, ops, ys = _cluster_setup(seed=2)
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, max_outer_iters=5)
    serial = run(method, ops, ys, cfg, threads=1)
    threaded = run(method, ops, ys, cfg, threads=4)
    np.testing.assert_array_equal(serial.state.global_image,
                                  threaded.state.global_image)
    np.testing.assert_array_equal(serial.state.local_images,
                                  threaded.state.local_images)
    np.testing.assert_array_equal(serial.state.dual, threaded.state.dual)
    assert serial.objective_history == threaded.objective_history


def _objective_reference(operators, measurements, local_images, x_global, cfg):
    # serial recomputation of the ADMM objective from a final state
    acc = 0.0
    for op, y, x_q in zip(operators, measurements, local_images):
        r = y - op.apply(x_q.astype(complex))
        acc += (cfg.mu / 2) * float(np.vdot(r, r).real)
    return acc + cfg.lam * float(np.sum(np.abs(x_global)))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_objective_matches_serial_recomputation(method, threads):
    # the data-fit terms are computed inside the per-cluster tasks; their
    # ascending-q sum must equal a serial recomputation bit for bit
    _, ops, ys = _cluster_setup(seed=2)
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, max_outer_iters=5)
    result = run(method, ops, ys, cfg, threads=threads)
    state = result.state
    assert result.objective_history[-1] == _objective_reference(
        ops, ys, state.local_images, state.global_image, cfg)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_cadmm_reaches_lasso_optimum():
    # for consensus the stated objective is one nonnegative lasso,
    # F(z) = sum_q (mu/2)*||y_q - A_q z||^2 + lam*||z||_1 over z >= 0, so
    # at tight tolerances run must return its minimiser; F* comes from a
    # long FISTA run on the dense matrices (B = [Re A_q; Im A_q] stacked)
    grid = SceneGrid(8, 6, 4.0, 3.0)
    clusters = make_uniform_clusters(3, math.radians(3.0), 3,
                                     math.radians(25.0), 9.6e9, 1.0e9, 4)
    dense = [dense_operator_matrix(grid, c) for c in clusters]
    b = np.vstack([part for a in dense for part in (a.real, a.imag)])
    mu, lam = 1.0, 2.0
    cfg = SolverConfig(mu=mu, lam=lam, beta=2.0, eps_abs=1e-10, eps_rel=1e-10,
                       max_outer_iters=10_000)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        scatterers = [Scatterer((rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)),
                                1.0) for _ in range(3)]
        ys = [h.data for h in synthesize_measurements(
            SimScenario(grid, clusters, scatterers, math.inf, seed))]
        by = np.concatenate([part for y in ys for part in (y.real, y.imag)])

        def objective(z):
            return (mu / 2) * np.sum((by - b @ z) ** 2) + lam * np.sum(np.abs(z))

        z_star = accelerated_prox_gradient(
            lambda z: mu * (b.T @ (b @ z - by)), mu * np.linalg.norm(b, 2) ** 2,
            lam, grid.n_pixels, 5000, 0.0)
        result = run(CADMM, [make_operator(grid, c) for c in clusters], ys, cfg)
        assert result.termination == "converged"
        got, best = objective(result.state.global_image), objective(z_star)
        assert got <= best * (1 + 1e-6), f"seed {seed}: F = {got}, F* = {best}"


def test_run_single_cluster_methods_agree():
    # with one cluster the consensus and sharing constraints coincide, so
    # both engines perform the same arithmetic
    _, ops, ys = _cluster_setup(seed=3, q_count=1)
    cfg = SolverConfig(mu=1.0, lam=2.0, beta=3.0, max_outer_iters=10)
    a = run(CADMM, ops, ys, cfg)
    b = run(SADMM, ops, ys, cfg)
    np.testing.assert_allclose(a.state.global_image, b.state.global_image,
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(a.state.local_images, b.state.local_images,
                               rtol=1e-10, atol=1e-12)


def test_run_input_validation():
    _, ops, ys = _cluster_setup(seed=1)
    cfg = SolverConfig()
    with pytest.raises(ValueError):
        run(CADMM, ops, ys[:-1], cfg)
    with pytest.raises(ValueError):
        run(CADMM, [], [], cfg)


def test_run_nonfinite_measurements_raise_numerical_error():
    _, ops, ys = _cluster_setup(seed=1)
    ys = [y.copy() for y in ys]
    ys[0][0] = np.nan
    with pytest.raises(NumericalError):
        run(CADMM, ops, ys, SolverConfig(max_outer_iters=2))


def test_composite_baseline_recovers_consistent_system(small_grid):
    # overdetermined noiseless cluster: tiny l1 weight drives the solve to
    # the unique nonnegative least-squares solution, i.e. the true scene
    from distradar.model import ClusterGeometry
    geo = ClusterGeometry(np.linspace(0.0, 0.4, 5), math.radians(30.0),
                          np.linspace(9.0e9, 10.0e9, 5))
    op = make_operator(small_grid, geo)
    dense = dense_operator_matrix(small_grid, geo)
    assert np.linalg.matrix_rank(dense) == 16
    x_true = np.zeros(16)
    x_true[[2, 9]] = [1.0, 2.0]
    y = dense @ x_true
    fused = composite_baseline([op], [y], lambda_c=1e-8, max_iters=3000,
                               tol=1e-14)
    np.testing.assert_allclose(fused, x_true, atol=1e-4)


def test_composite_baseline_fuses_by_maximum():
    _, ops, ys = _cluster_setup(seed=4, q_count=2)
    both = composite_baseline(ops, ys, lambda_c=1.0)
    first = composite_baseline(ops[:1], ys[:1], lambda_c=1.0)
    second = composite_baseline(ops[1:], ys[1:], lambda_c=1.0)
    np.testing.assert_array_equal(both, np.maximum(first, second))
    np.testing.assert_array_equal(
        composite_baseline(ops, ys, lambda_c=1.0, threads=2), both)
    with pytest.raises(ValueError):
        composite_baseline([], [], 1.0)
