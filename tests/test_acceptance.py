"""Acceptance gate: end-to-end checks with stated tolerances and budgets.

Each test prints one `criterion N: PASS|FAIL` line. The two shared
scenarios (isotropic and anisotropic 64x64 recovery experiments) are
module-scoped fixtures so the expensive reconstructions run once.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from distradar import cli, metrics, model, orchestrate, simulate, solvers

from conftest import dense_operator_matrix


@contextmanager
def report(criterion):
    try:
        yield
    except Exception:
        print(f"criterion {criterion}: FAIL")
        raise
    print(f"criterion {criterion}: PASS")


SCENARIO_CONFIG = """\
[scene]
nx = 64
ny = 64
extent_x = 7.0
extent_y = 7.0
seed = 7
num_scatterers = 10
amplitude = 1.0
margin = 0.1
{extra_scene}
[sensing]
q_count = 16
cluster_width_deg = 1.0
apcs_per_cluster = 8
freq_center_hz = 9.6e9
bandwidth_hz = 600e6
freq_count = 32
elevation_deg = 30.0
snr_db = 15.0

[solver]
mu = 1.0
lambda = {lam}
beta = {beta}
eps_abs = {eps}
eps_rel = {eps}
max_outer_iters = 100
"""


def _make_bundle(tmp_factory, name, **fmt):
    root = tmp_factory.mktemp(name)
    config = root / "config.ini"
    config.write_text(SCENARIO_CONFIG.format(**fmt))
    return config, cli.cmd_simulate(config, root / "bundle")


@pytest.fixture(scope="module")
def iso(tmp_path_factory):
    """Isotropic recovery scenario: bundle, folded operators, solver runs."""
    config, bundle = _make_bundle(tmp_path_factory, "iso", extra_scene="",
                                  lam=50.0, beta=10.0, eps="1e-2")
    cfg, operators, measurements, truth = cli.load_bundle(bundle)
    folded = cli._fold_phase_matrices(operators, measurements)
    t0 = time.perf_counter()
    results = {
        "cadmm": solvers.run("cadmm", folded, measurements, cfg.solver),
        "sadmm": solvers.run("sadmm", folded, measurements,
                             solvers.SolverConfig(
                                 mu=1.0, lam=50.0, beta=10.0,
                                 max_outer_iters=100)),
        "bp": model.backprojection_image(operators, measurements),
    }
    wall = time.perf_counter() - t0
    return {
        "config": config, "bundle": bundle, "cfg": cfg,
        "operators": operators, "folded": folded,
        "measurements": measurements, "truth": truth,
        "results": results, "wall": wall,
    }


@pytest.fixture(scope="module")
def aniso(tmp_path_factory):
    """Anisotropic scenario: 90-degree visibility windows per scatterer."""
    _, bundle = _make_bundle(
        tmp_path_factory, "aniso",
        extra_scene="visibility_width_deg = 90.0\n", lam=20.0, beta=5.0,
        eps="1e-4")
    cfg, operators, measurements, truth = cli.load_bundle(bundle)
    folded = cli._fold_phase_matrices(operators, measurements)
    return {"cfg": cfg, "operators": operators, "folded": folded,
            "measurements": measurements, "truth": truth}


def _f1(image, truth, nx):
    return metrics.support_f1(image, truth, nx, rel_threshold=0.1,
                              match_radius_px=1)[2]


def test_criterion_1_operator_vs_dense(medium_grid, medium_geometry):
    with report(1):
        t0 = time.perf_counter()
        op = model.ForwardOperator(medium_grid, medium_geometry)
        dense = dense_operator_matrix(medium_grid, medium_geometry)
        rng = np.random.default_rng(100)
        n, m = 256, 16
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fwd, fwd_ref = op.apply(x), dense @ x
        assert (np.linalg.norm(fwd - fwd_ref)
                <= 1e-12 * np.linalg.norm(fwd_ref))
        adj, adj_ref = op.adjoint(y), dense.conj().T @ y
        assert (np.linalg.norm(adj - adj_ref)
                <= 1e-12 * np.linalg.norm(adj_ref))
        for _ in range(20):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            lhs = np.vdot(v, op.apply(u))
            rhs = np.vdot(op.adjoint(v), u)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_local_solve_vs_dense(medium_grid, medium_geometry):
    with report(2):
        t0 = time.perf_counter()
        rng = np.random.default_rng(200)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, 256))
        op = model.ForwardOperator(medium_grid, medium_geometry).with_phase_matrix(theta)
        dense = dense_operator_matrix(medium_grid, medium_geometry, theta)
        for _ in range(50):
            mu = rng.uniform(0.5, 2.0)
            beta = rng.uniform(0.5, 5.0)
            rhs = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            ref = np.linalg.solve(
                mu * dense.conj().T @ dense + beta * np.eye(256), rhs)
            got = solvers.local_solve(op, mu, beta, rhs)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_global_updates_vs_closed_form():
    with report(3):
        t0 = time.perf_counter()
        rng = np.random.default_rng(300)
        for i in range(500):
            q = int(rng.integers(1, 6))
            n = int(rng.integers(4, 40))
            cfg = solvers.SolverConfig(
                lam=rng.uniform(0.1, 3.0), beta=rng.uniform(0.2, 4.0))
            local = np.abs(rng.standard_normal((q, n)))
            sigma = rng.standard_normal(q * n)
            got = solvers.global_update_cadmm(local, sigma, cfg)
            ref = np.maximum(
                (cfg.beta * local.sum(axis=0)
                 + sigma.reshape(q, n).sum(axis=0)) / (q * cfg.beta)
                - cfg.lam / (q * cfg.beta), 0.0)
            assert (np.max(np.abs(got - ref))
                    <= 1e-12 * max(1.0, np.max(np.abs(ref))))
            x_bar = np.abs(rng.standard_normal(n))
            sig = rng.standard_normal(n)
            got = solvers.global_update_sadmm(x_bar, sig, cfg)
            ref = np.maximum(x_bar + sig / cfg.beta - cfg.lam / cfg.beta, 0.0)
            assert (np.max(np.abs(got - ref))
                    <= 1e-12 * max(1.0, np.max(np.abs(ref))))
        assert time.perf_counter() - t0 < 5.0


def test_criterion_4_single_cluster_degeneration():
    with report(4):
        grid = model.SceneGrid(16, 16, 4.0, 4.0)
        clusters = simulate.make_uniform_clusters(
            1, math.radians(3.0), 4, math.radians(25.0), 9.6e9, 1.0e9, 6)
        rng = np.random.default_rng(400)
        scatterers = [simulate.Scatterer(
            (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), 1.0)
            for _ in range(4)]
        scenario = simulate.SimScenario(grid, clusters, scatterers, 15.0, 4)
        y = [simulate.synthesize_measurements(scenario)[0].data]
        ops = [model.ForwardOperator(grid, clusters[0])]
        ops = cli._fold_phase_matrices(ops, y)
        iterates = {"cadmm": [], "sadmm": []}
        for method in ("cadmm", "sadmm"):
            cfg = solvers.SolverConfig(
                mu=1.0, lam=2.0, beta=3.0, eps_abs=1e-12, eps_rel=1e-12,
                max_outer_iters=50)
            solvers.run(method, ops, y, cfg, on_iteration=lambda s:
                        iterates[method].append(s.global_image.copy()))
        assert len(iterates["cadmm"]) == len(iterates["sadmm"]) == 50
        for a, b in zip(iterates["cadmm"], iterates["sadmm"]):
            assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_criterion_5_termination_contract(iso):
    with report(5):
        checked = 0
        # the large isotropic run uses eps_abs = eps_rel = 1e-2
        candidates = [iso["results"]["cadmm"], iso["results"]["sadmm"]]
        # plus a small scenario where both methods converge at 1e-2
        grid = model.SceneGrid(8, 8, 4.0, 4.0)
        clusters = simulate.make_uniform_clusters(
            4, math.radians(3.0), 3, math.radians(25.0), 9.6e9, 1.0e9, 4)
        rng = np.random.default_rng(500)
        scatterers = [simulate.Scatterer(
            (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), 1.0)
            for _ in range(3)]
        scenario = simulate.SimScenario(grid, clusters, scatterers, 20.0, 5)
        ys = [h.data for h in simulate.synthesize_measurements(scenario)]
        ops = [model.ForwardOperator(grid, c) for c in clusters]
        for method in ("cadmm", "sadmm"):
            cfg = solvers.SolverConfig(mu=1.0, lam=5.0, beta=5.0,
                                       eps_abs=1e-2, eps_rel=1e-2,
                                       max_outer_iters=300)
            candidates.append(solvers.run(method, ops, ys, cfg))
        for result in candidates:
            if result.termination != "converged":
                continue
            final = result.state.residual_log[-1]
            assert final.primal_norm <= final.eps_pri
            assert final.dual_norm <= final.eps_dual
            checked += 1
        assert checked >= 2  # contract exercised on real converged runs


def test_criterion_6_isotropic_recovery(iso):
    with report(6):
        nx = iso["cfg"].grid.nx
        truth = iso["truth"]
        f1_cadmm = _f1(iso["results"]["cadmm"].state.global_image, truth, nx)
        f1_sadmm = _f1(iso["results"]["sadmm"].state.global_image, truth, nx)
        f1_bp = _f1(iso["results"]["bp"], truth, nx)
        assert f1_cadmm >= 0.8, f1_cadmm
        assert f1_sadmm >= 0.8, f1_sadmm
        assert iso["results"]["cadmm"].state.iter <= 100
        assert iso["results"]["sadmm"].state.iter <= 100
        assert f1_bp < f1_cadmm and f1_bp < f1_sadmm
        assert iso["wall"] < 300.0


def test_criterion_7_anisotropic_recovery(aniso):
    with report(7):
        t0 = time.perf_counter()
        nx = aniso["cfg"].grid.nx
        truth = aniso["truth"]
        base = aniso["cfg"].solver
        cadmm = solvers.run("cadmm", aniso["folded"], aniso["measurements"],
                            base)
        sadmm_cfg = solvers.SolverConfig(
            mu=1.0, lam=800.0, beta=1600.0, eps_abs=base.eps_abs,
            eps_rel=base.eps_rel, max_outer_iters=100)
        sadmm = solvers.run("sadmm", aniso["folded"], aniso["measurements"],
                            sadmm_cfg)
        single = solvers.composite_baseline(aniso["folded"][:1],
                                            aniso["measurements"][:1],
                                            50.0).image
        f1_cadmm = _f1(cadmm.state.global_image, truth, nx)
        f1_sadmm = _f1(sadmm.state.global_image, truth, nx)
        f1_single = _f1(single, truth, nx)
        assert f1_cadmm >= 0.7, f1_cadmm
        assert f1_sadmm >= 0.7, f1_sadmm
        assert f1_single <= 0.5, f1_single
        assert time.perf_counter() - t0 < 300.0


def test_criterion_8_entropy_sanity():
    with report(8):
        cfg = metrics.EntropyConfig(dynamic_range_db=50.0, gray_levels=256)
        rng = np.random.default_rng(800)
        # uniformly random gray levels, expressed as amplitudes through the
        # inverse of the dB mapping
        img = 10 ** (rng.uniform(-cfg.dynamic_range_db, 0.0, 1024 * 1024) / 20)
        assert metrics.image_entropy(img, cfg) >= 7.9
        assert metrics.image_entropy(np.full(4096, 2.7), cfg) == 0.0
        sample = np.abs(rng.standard_normal(4096))
        assert (metrics.image_entropy(sample, cfg)
                == metrics.image_entropy(sample * 16.0, cfg))


def test_criterion_9_orchestration_equivalence(iso):
    with report(9):
        n = iso["cfg"].grid.n_pixels
        for method, cfg in (
                ("cadmm", iso["cfg"].solver),
                ("sadmm", solvers.SolverConfig(mu=1.0, lam=50.0, beta=10.0,
                                               max_outer_iters=100))):
            mono = iso["results"][method]
            dist, _ = orchestrate.run_message_passing(
                method, iso["folded"], iso["measurements"], cfg)
            assert np.array_equal(dist.state.global_image,
                                  mono.state.global_image)
            assert np.array_equal(dist.state.local_images,
                                  mono.state.local_images)
            assert np.array_equal(dist.state.dual, mono.state.dual)
            assert dist.termination == mono.termination
        for q in (4, 8, 16):
            assert orchestrate.downlink_elements_per_iteration(
                "sadmm", q, n) == 3 * n
            assert orchestrate.downlink_elements_per_iteration(
                "cadmm", q, n) == (q + 1) * n


def test_criterion_10_thread_determinism(iso, tmp_path):
    with report(10):
        a = cli.cmd_reconstruct(iso["bundle"], "cadmm", tmp_path / "t1",
                                threads=1)
        b = cli.cmd_reconstruct(iso["bundle"], "cadmm", tmp_path / "t8",
                                threads=8)
        for name in ("image.csv", "image.pgm", "convergence.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
