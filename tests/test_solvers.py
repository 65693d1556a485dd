import math

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from distradar.model import ForwardOperator, SceneGrid, backprojection_image
from distradar.orchestrate import run_message_passing
from distradar.simulate import (Scatterer, SimScenario, make_uniform_clusters,
                                rasterize_scene, synthesize_measurements)
from distradar.solvers import (CADMM, SADMM, NumericalError, SolverConfig,
                               accelerated_prox_gradient, composite_baseline,
                               global_update_cadmm, global_update_sadmm,
                               lasso_lipschitz, local_solve, local_update,
                               residuals_and_tolerances, run, solve_lasso)

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
    ops = [ForwardOperator(grid, c) for c in clusters]
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
    op = ForwardOperator(small_grid, small_geometry)
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
    op = ForwardOperator(small_grid, small_geometry)
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
        z, _, _ = accelerated_prox_gradient(lambda v: c * (v - b), c, lam,
                                            30, max_iters=400, tol=1e-14)
        np.testing.assert_allclose(z, np.maximum(b - lam / c, 0.0),
                                   atol=1e-10)


def test_fista_single_step_exact_for_matching_lipschitz():
    # with step 1/L equal to the true curvature the first step already
    # lands on the minimizer
    b = np.array([3.0, -1.0, 0.4, 0.0])
    c, lam = 2.0, 0.5
    z, iterations, residual = accelerated_prox_gradient(
        lambda v: c * (v - b), c, lam, 4, max_iters=3, tol=1e-15)
    np.testing.assert_allclose(z, np.maximum(b - lam / c, 0.0), atol=1e-15)
    # the second step sees a zero prox-gradient mapping and stops
    assert (iterations, residual) == (2, 0.0)


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
    op = ForwardOperator(small_grid, small_geometry)
    dense = dense_operator_matrix(small_grid, small_geometry)
    rng = np.random.default_rng(33)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x_g = np.abs(rng.standard_normal(16))
    sigma = rng.standard_normal(16)
    cfg = SolverConfig(mu=1.3, beta=2.1)
    got = local_update(op, cfg.mu * op.adjoint(y), x_g, sigma, cfg)
    system = cfg.mu * dense.conj().T @ dense + cfg.beta * np.eye(16)
    rhs = cfg.mu * dense.conj().T @ y + cfg.beta * x_g - sigma
    expected = np.maximum(np.linalg.solve(system, rhs).real, 0.0)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_run_steps_match_dense_oracles(method):
    # each iterate run hands to on_iteration, checked against oracles fed
    # with the iterate before it: the local images against a dense solve
    # of the form's right-hand side, x_G against the closed forms, the
    # dual against sigma + beta*gap
    grid, clusters = _LASSO_GRID, _LASSO_CLUSTERS  # Q = 3, 8 x 6 pixels
    q, n = len(clusters), grid.n_pixels
    rng = np.random.default_rng(66)
    phases = [np.exp(1j * rng.uniform(-math.pi, math.pi, n)) for _ in clusters]
    ops = [ForwardOperator(grid, c).with_phase_matrix(p)
           for c, p in zip(clusters, phases)]
    denses = [dense_operator_matrix(grid, c, p)
              for c, p in zip(clusters, phases)]
    ys = _lasso_measurements(5)
    cfg = SolverConfig(mu=1.3, lam=0.4, beta=2.1, max_outer_iters=4)
    states = []
    run(method, ops, ys, cfg, on_iteration=states.append)
    assert [s.iter for s in states] == [1, 2, 3, 4]

    local = np.zeros((q, n))
    x_g = np.zeros(n)
    sigma = np.zeros(q * n if method == CADMM else n)
    for state in states:
        for i, a in enumerate(denses):
            if method == CADMM:
                target, sigma_q = x_g, sigma[i * n:(i + 1) * n]
            else:
                target = x_g - (local.sum(axis=0) - local[i])
                sigma_q = sigma
            system = cfg.mu * a.conj().T @ a + cfg.beta * np.eye(n)
            rhs = cfg.mu * a.conj().T @ ys[i] + cfg.beta * target - sigma_q
            np.testing.assert_allclose(
                state.local_images[i],
                np.maximum(np.linalg.solve(system, rhs).real, 0.0),
                rtol=1e-12, atol=1e-12)
        local = state.local_images
        if method == CADMM:
            expected = np.maximum(
                (cfg.beta * local.sum(axis=0) + sigma.reshape(q, n).sum(axis=0)
                 - cfg.lam) / (q * cfg.beta), 0.0)
            gap = np.concatenate([x_q - expected for x_q in local])
        else:
            expected = np.maximum(
                local.sum(axis=0) + (sigma - cfg.lam) / cfg.beta, 0.0)
            gap = local.sum(axis=0) - expected
        np.testing.assert_allclose(state.global_image, expected,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state.dual, sigma + cfg.beta * gap,
                                   rtol=1e-12, atol=1e-12)
        x_g, sigma = state.global_image, state.dual


def test_residuals_and_tolerances_transcription():
    rng = np.random.default_rng(55)
    q, n = 3, 12
    local = np.abs(rng.standard_normal((q, n)))
    x_g = np.abs(rng.standard_normal(n))
    x_prev = np.abs(rng.standard_normal(n))
    cfg = SolverConfig(beta=1.4, eps_abs=1e-3, eps_rel=1e-2)
    dual_res = np.linalg.norm(cfg.beta * (x_g - x_prev))

    # consensus: the stacked gap x_q - x_G
    gap = np.concatenate([local[i] - x_g for i in range(q)])
    sizes = (np.linalg.norm(local), math.sqrt(q) * np.linalg.norm(x_g))
    dual = rng.standard_normal(q * n)
    pri, dua, ep, ed = residuals_and_tolerances(gap, sizes, x_g, x_prev,
                                                dual, cfg)
    assert pri == pytest.approx(np.linalg.norm(gap), rel=1e-13)
    assert dua == pytest.approx(dual_res, rel=1e-13)
    assert ep == pytest.approx(
        math.sqrt(q * n) * cfg.eps_abs
        + cfg.eps_rel * max(np.linalg.norm(local),
                            math.sqrt(q) * np.linalg.norm(x_g)), rel=1e-13)
    assert ed == pytest.approx(
        math.sqrt(q * n) * cfg.eps_abs + cfg.eps_rel * np.linalg.norm(dual),
        rel=1e-13)

    # sharing: the gap sum_q x_q - x_G
    x_bar = local.sum(axis=0)
    sizes = (np.linalg.norm(x_bar), np.linalg.norm(x_g))
    dual = rng.standard_normal(n)
    pri, dua, ep, ed = residuals_and_tolerances(x_bar - x_g, sizes, x_g,
                                                x_prev, dual, cfg)
    assert pri == pytest.approx(np.linalg.norm(x_bar - x_g), rel=1e-13)
    assert dua == pytest.approx(dual_res, rel=1e-13)
    assert ep == pytest.approx(
        math.sqrt(n) * cfg.eps_abs
        + cfg.eps_rel * max(np.linalg.norm(x_bar), np.linalg.norm(x_g)),
        rel=1e-13)
    assert ed == pytest.approx(
        math.sqrt(n) * cfg.eps_abs + cfg.eps_rel * np.linalg.norm(dual),
        rel=1e-13)


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


_LASSO_GRID = SceneGrid(8, 6, 4.0, 3.0)
_LASSO_CLUSTERS = make_uniform_clusters(3, math.radians(3.0), 3,
                                        math.radians(25.0), 9.6e9, 1.0e9, 4)


def _lasso_measurements(seed):
    rng = np.random.default_rng(seed)
    scatterers = [Scatterer((rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)),
                            1.0) for _ in range(3)]
    return [h.data for h in synthesize_measurements(
        SimScenario(_LASSO_GRID, _LASSO_CLUSTERS, scatterers, math.inf, seed))]


def _stacked_real(parts):
    return np.concatenate([x for part in parts for x in (part.real, part.imag)])


@st.composite
def _lasso_cases(draw):
    """(grid with nx != ny, Q >= 2 clusters, their measurements of a
    nonnegative scene, lam as a fraction of the lam that zeroes the
    optimum)."""
    nx = draw(st.integers(2, 6))
    ny = draw(st.integers(2, 6).filter(lambda v: v != nx))
    grid = SceneGrid(nx, ny, draw(st.floats(1.0, 4.0)), draw(st.floats(1.0, 4.0)))
    clusters = make_uniform_clusters(
        draw(st.integers(2, 4)), math.radians(draw(st.floats(1.0, 5.0))),
        draw(st.integers(2, 4)), math.radians(25.0), 9.6e9, 1.0e9,
        draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scene = (rng.uniform(0.5, 1.5, grid.n_pixels)
             * (rng.uniform(size=grid.n_pixels) < 0.3))
    denses = [dense_operator_matrix(grid, c) for c in clusters]
    ys = [a @ scene + 0.01 * (rng.standard_normal(len(a))
                              + 1j * rng.standard_normal(len(a)))
          for a in denses]
    return grid, clusters, ys, draw(st.floats(0.05, 0.5))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
# shrinking is off: each failing draw re-runs a solve of up to 10,000
# iterations, and shrinking them took over two minutes
@settings(max_examples=10, deadline=None, derandomize=True, database=None,
          phases=(Phase.generate,))
@given(_lasso_cases())
def test_cadmm_reaches_lasso_optimum(case):
    # for consensus the stated objective is one nonnegative lasso,
    # F(z) = sum_q (mu/2)*||y_q - A_q z||^2 + lam*||z||_1 over z >= 0, so
    # at tight tolerances run must return its minimiser: F(x_G) is F* (the
    # objective at solve_lasso's answer), and, checked independently on
    # the dense matrices (B = [Re A_q; Im A_q] stacked), the KKT
    # conditions hold at x_G, measured by the prox-gradient mapping
    # x - max(x - (grad f(x) + lam)/L, 0) against its value at zero. Draws
    # whose optimum is zero are skipped.
    grid, clusters, ys, lam_frac = case
    ops = [ForwardOperator(grid, c) for c in clusters]
    b = _stacked_real([dense_operator_matrix(grid, c) for c in clusters])
    by = _stacked_real(ys)
    mu = 1.0
    lam = lam_frac * np.max(mu * (b.T @ by))
    lipschitz = mu * np.linalg.norm(b, 2) ** 2

    def grad(z):
        return mu * (b.T @ (b @ z - by))

    def objective(z):
        return ((mu / 2) * np.sum((by - b @ z) ** 2)
                + lam * np.sum(np.abs(z)))

    def mapping(z):
        return np.linalg.norm(
            z - np.maximum(z - (grad(z) + lam) / lipschitz, 0.0))

    z_star, _, _ = solve_lasso(ops, ys, mu, lam, 10_000, tol=1e-10)
    assume(np.any(z_star > 0))
    cfg = SolverConfig(mu=mu, lam=lam, beta=2.0, eps_abs=1e-10,
                       eps_rel=1e-10, max_outer_iters=10_000)
    result = run(CADMM, ops, ys, cfg)
    x_g = result.state.global_image
    got, best = objective(x_g), objective(z_star)
    assert got <= best * (1 + 1e-6), f"F = {got}, F* = {best}"
    assert mapping(x_g) <= 1e-6 * mapping(np.zeros(grid.n_pixels))
    assert result.termination == "converged"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_sadmm_reaches_decoupled_lasso_optimum():
    # for x_q >= 0, ||sum_q x_q||_1 = sum_q ||x_q||_1, so the sharing
    # objective sum_q (mu/2)*||y_q - A_q x_q||^2 + lam*||sum_q x_q||_1
    # splits into Q nonnegative lassos, and its exact answer is
    # x_G = sum_q x_q*, each x_q* the cluster's own minimiser (from
    # solve_lasso, as in the consensus oracle)
    grid, clusters = _LASSO_GRID, _LASSO_CLUSTERS
    mu, lam = 1.0, 2.0
    cfg = SolverConfig(mu=mu, lam=lam, beta=2.0, eps_abs=1e-10, eps_rel=1e-10,
                       max_outer_iters=10_000)
    ops = [ForwardOperator(grid, c) for c in clusters]
    for seed in range(4):
        ys = _lasso_measurements(seed)
        oracle = np.zeros(grid.n_pixels)
        for op, y in zip(ops, ys):
            oracle += solve_lasso([op], [y], mu, lam, 10_000, tol=1e-10)[0]
        result = run(SADMM, ops, ys, cfg)
        assert result.termination == "converged"
        distance = np.linalg.norm(result.state.global_image - oracle)
        assert distance <= 1e-6 * np.linalg.norm(oracle), (
            f"seed {seed}: relative distance "
            f"{distance / np.linalg.norm(oracle)}")


def test_fista_zero_tol_runs_every_iteration():
    # tol = 0 never stops early, as documented, even where the
    # prox-gradient mapping reaches an exact 0.0 (as it does on these
    # problems)
    b = _stacked_real([dense_operator_matrix(_LASSO_GRID, c)
                       for c in _LASSO_CLUSTERS])
    for seed in range(4):
        by = _stacked_real(_lasso_measurements(seed))
        _, iterations, residual = accelerated_prox_gradient(
            lambda z: b.T @ (b @ z - by), np.linalg.norm(b, 2) ** 2, 2.0,
            _LASSO_GRID.n_pixels, 5000, 0.0)
        assert iterations == 5000
        assert residual < 1e-6


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


@pytest.mark.parametrize("entry", [
    lambda ops, ys: run(CADMM, ops, ys, SolverConfig(max_outer_iters=1)),
    lambda ops, ys: run_message_passing(SADMM, ops, ys,
                                        SolverConfig(max_outer_iters=1)),
    lambda ops, ys: composite_baseline(ops, ys, 1.0),
    lambda ops, ys: solve_lasso(ops, ys, 1.0, 1.0, 10, 0.0),
    backprojection_image,
], ids=["run", "run_message_passing", "composite_baseline", "solve_lasso",
        "backprojection_image"])
@pytest.mark.parametrize("n_ops, n_ys, message", [
    (0, 0, "need at least one cluster"),
    (2, 1, "need exactly one measurement vector per operator"),
], ids=["empty", "one_short"])
def test_every_entry_point_checks_the_cluster_set_alike(entry, n_ops, n_ys,
                                                        message):
    _, ops, ys = _cluster_setup(seed=1, q_count=2)
    with pytest.raises(ValueError) as exc:
        entry(ops[:n_ops], ys[:n_ys])
    assert str(exc.value) == message


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
    op = ForwardOperator(small_grid, geo)
    dense = dense_operator_matrix(small_grid, geo)
    assert np.linalg.matrix_rank(dense) == 16
    x_true = np.zeros(16)
    x_true[[2, 9]] = [1.0, 2.0]
    y = dense @ x_true
    result = composite_baseline([op], [y], lambda_c=1e-8, max_iters=3000,
                                tol=1e-14)
    assert result.termination == "converged"
    np.testing.assert_allclose(result.image, x_true, atol=1e-4)


def test_composite_baseline_fuses_by_maximum():
    _, ops, ys = _cluster_setup(seed=4, q_count=2)
    both = composite_baseline(ops, ys, lambda_c=1.0)
    first = composite_baseline(ops[:1], ys[:1], lambda_c=1.0)
    second = composite_baseline(ops[1:], ys[1:], lambda_c=1.0)
    np.testing.assert_array_equal(both.image,
                                  np.maximum(first.image, second.image))
    assert both.iterations == first.iterations + second.iterations
    assert both.residuals == first.residuals + second.residuals
    threaded = composite_baseline(ops, ys, lambda_c=1.0, threads=2)
    np.testing.assert_array_equal(threaded.image, both.image)
    assert threaded.iterations == both.iterations
    with pytest.raises(ValueError):
        composite_baseline([], [], 1.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_c"):
            composite_baseline(ops, ys, bad)
    with pytest.raises(ValueError, match="max_iters"):
        composite_baseline(ops, ys, 1.0, max_iters=0)


def test_lasso_lipschitz_is_mu_times_the_squared_dense_norm():
    # exact for one cluster; for Q >= 2 the sum of the clusters' bounds is
    # at least the curvature mu*||B||^2 of the stacked dense matrix
    _, ops, _ = _cluster_setup(seed=6, q_count=2)
    denses = [dense_operator_matrix(op.grid, op.geometry) for op in ops]
    for mu in (2.0, 0.7):
        for op, dense in zip(ops, denses):
            exact = mu * np.linalg.norm(dense, 2) ** 2
            assert abs(lasso_lipschitz([op], mu) - exact) <= 1e-10 * exact
        stacked = mu * np.linalg.norm(_stacked_real(denses), 2) ** 2
        assert lasso_lipschitz(ops, mu) >= stacked * (1 - 1e-12)


def test_composite_returns_zero_when_lambda_dominates():
    # z = 0 minimises ||y - A x||^2 + lam*||x||_1 over x >= 0 exactly when
    # lam >= max 2*Re(A^H y); the first prox-gradient step then stays at 0
    _, ops, ys = _cluster_setup(seed=5, q_count=1)
    dense = dense_operator_matrix(ops[0].grid, ops[0].geometry)
    lam_max = np.max(2.0 * (dense.conj().T @ ys[0]).real)
    for lam in (lam_max * (1 + 1e-9), 2.0 * lam_max):
        result = composite_baseline(ops, ys, lambda_c=lam)
        np.testing.assert_array_equal(result.image, np.zeros(64))
        assert result.iterations == [1] and result.residuals == [0.0]
        assert result.termination == "converged"
    below = composite_baseline(ops, ys, lambda_c=0.99 * lam_max)
    assert np.count_nonzero(below.image) > 0 and below.iterations[0] > 1


def test_composite_reports_a_hit_cap():
    _, ops, ys = _cluster_setup(seed=4, q_count=2)
    capped = composite_baseline(ops, ys, lambda_c=1.0, max_iters=3)
    assert capped.termination == "max_iters"
    assert capped.iterations == [3, 3]
    assert all(r >= 1e-7 for r in capped.residuals)
    full = composite_baseline(ops, ys, lambda_c=1.0)
    assert full.termination == "converged"
    assert all(3 < it < 10_000 for it in full.iterations)
    assert all(r < 1e-7 for r in full.residuals)
