import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from distradar.model import (ClusterGeometry, ForwardOperator, SceneGrid,
                             backprojection_image, estimate_phase_matrix)
from distradar.simulate import (Scatterer, SimScenario, make_uniform_clusters,
                                rasterize_scene, synthesize_measurements)

from conftest import dense_operator_matrix


def test_grid_coords_symmetric():
    grid = SceneGrid(4, 2, 2.0, 1.0)
    coords = grid.pixel_coords()
    assert coords.shape == (8, 2)
    np.testing.assert_allclose(coords[:, 0].min(), -0.75)
    np.testing.assert_allclose(coords[:, 0].max(), 0.75)
    np.testing.assert_allclose(coords.sum(axis=0), [0.0, 0.0], atol=1e-14)
    # row-major: first row shares y, x increases
    assert coords[1, 1] == coords[0, 1]
    assert coords[1, 0] > coords[0, 0]


def test_grid_validation():
    with pytest.raises(ValueError):
        SceneGrid(0, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        SceneGrid(4, 4, -1.0, 1.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ClusterGeometry(np.array([]), 0.1, np.array([1e9]))
    with pytest.raises(ValueError):
        ClusterGeometry(np.array([0.0]), 0.1, np.array([]))
    with pytest.raises(ValueError):
        ClusterGeometry(np.array([0.0]), 0.1, np.array([1e9, 1e9]))
    with pytest.raises(ValueError):
        ClusterGeometry(np.array([0.0]), 0.1, np.array([-1e9, 1e9]))
    with pytest.raises(ValueError):
        ClusterGeometry(np.array([0.0]), math.pi / 2, np.array([1e9]))


def test_single_pixel_grid_all_outputs_equal():
    # pixel at the origin kills the exponent, every sample equals the input
    grid = SceneGrid(1, 1, 1.0, 1.0)
    geo = ClusterGeometry(np.array([0.2, 0.4, 0.9]), 0.3,
                          np.array([9.0e9, 9.5e9]))
    op = ForwardOperator(grid, geo)
    out = op.apply(np.array([2.5 - 1j]))
    np.testing.assert_allclose(out, np.full(6, 2.5 - 1j), rtol=1e-14)


def test_zero_azimuth_depends_only_on_x():
    grid = SceneGrid(4, 4, 1.0, 1.0)
    geo = ClusterGeometry(np.array([0.0, 0.0]), 0.3, np.array([9.0e9, 9.5e9]))
    op = ForwardOperator(grid, geo)
    coords = grid.pixel_coords()
    for j in range(grid.n_pixels):
        for k in range(j + 1, grid.n_pixels):
            if coords[j, 0] == coords[k, 0]:
                e_j = np.zeros(grid.n_pixels)
                e_k = np.zeros(grid.n_pixels)
                e_j[j] = 1.0
                e_k[k] = 1.0
                np.testing.assert_array_equal(op.apply(e_j), op.apply(e_k))


def test_apply_adjoint_match_dense_oracle(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    dense = dense_operator_matrix(small_grid, small_geometry)
    rng = np.random.default_rng(42)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    fwd = op.apply(x)
    np.testing.assert_allclose(fwd, dense @ x, rtol=1e-12, atol=0)
    adj = op.adjoint(y)
    np.testing.assert_allclose(adj, dense.conj().T @ y, rtol=1e-12, atol=0)


def test_zero_inputs(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    np.testing.assert_array_equal(op.apply(np.zeros(16, complex)), np.zeros(4))
    np.testing.assert_array_equal(op.adjoint(np.zeros(4, complex)), np.zeros(16))


def test_delta_image_reads_out_column(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    dense = dense_operator_matrix(small_grid, small_geometry)
    n0 = 7
    e = np.zeros(16, complex)
    e[n0] = 1.0
    np.testing.assert_allclose(op.apply(e), dense[:, n0], rtol=1e-12)


def test_adjoint_identity_random_pairs(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        au = op.apply(u)
        ahv = op.adjoint(v)
        lhs = np.vdot(v, au)
        rhs = np.vdot(ahv, u)
        bound = 1e-10 * (np.linalg.norm(au) * np.linalg.norm(v)
                         + np.linalg.norm(u) * np.linalg.norm(ahv))
        assert abs(lhs - rhs) <= bound


def test_linearity(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_allclose(op.apply(2.5 * x), 2.5 * op.apply(x), rtol=1e-13)


def test_phase_matrix_folding(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    rng = np.random.default_rng(11)
    theta = np.exp(1j * rng.uniform(0, 2 * math.pi, 16))
    folded = op.with_phase_matrix(theta)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_allclose(folded.apply(x), op.apply(theta * x), rtol=1e-12)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    np.testing.assert_allclose(folded.adjoint(y),
                               np.conj(theta) * op.adjoint(y), rtol=1e-12)


def test_phase_matrix_must_be_unit_modulus(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    bad = np.ones(16, complex)
    bad[3] = 0.5
    with pytest.raises(ValueError):
        op.with_phase_matrix(bad)


def test_phase_matrix_must_have_length_n(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    for shape in (15, 17, (4, 4)):
        with pytest.raises(ValueError, match="length N"):
            op.with_phase_matrix(np.ones(shape, complex))


def test_length_mismatch_errors(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5, complex))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(5, complex))


def test_normal_apply_matches_gram(medium_grid, medium_geometry):
    op = ForwardOperator(medium_grid, medium_geometry)
    rng = np.random.default_rng(17)
    theta = np.exp(1j * rng.uniform(0, 2 * math.pi, medium_grid.n_pixels))
    for candidate, phase in ((op, None), (op.with_phase_matrix(theta), theta)):
        dense = dense_operator_matrix(medium_grid, medium_geometry, phase)
        x = (rng.standard_normal(medium_grid.n_pixels)
             + 1j * rng.standard_normal(medium_grid.n_pixels))
        direct = dense.conj().T @ (dense @ x)
        fast = candidate.normal_apply(x)
        np.testing.assert_allclose(fast, direct, rtol=1e-11, atol=1e-11)


def test_solve_matrix_shared_across_refolds(small_grid, small_geometry):
    # A A^H does not depend on the phase matrix, so refolded copies reuse
    # the inverse of the operator they were made from until (mu, beta)
    # changes
    op = ForwardOperator(small_grid, small_geometry)
    folded = op.with_phase_matrix(np.exp(1j * np.full(16, 0.3)))
    first = op.solve_matrix(0.7, 2.3)
    assert folded.solve_matrix(0.7, 2.3) is first
    other = folded.solve_matrix(0.7, 4.0)
    assert other is not first
    assert op.solve_matrix(0.7, 4.0) is other
    assert not np.allclose(other, first)
    again = op.solve_matrix(0.7, 2.3)
    assert again is not other
    np.testing.assert_array_equal(again, first)


def test_solve_matrix_built_once_under_concurrent_calls(
        small_grid, small_geometry, monkeypatch):
    # solvers.run builds solve matrices from its thread pool; refolds share
    # one cache, so concurrent first calls must not each build (and store)
    # their own inverse
    real_inv = np.linalg.inv
    builds = []

    def slow_inv(a):
        builds.append(1)
        time.sleep(0.01)  # widen the check-then-build window
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", slow_inv)
    op = ForwardOperator(small_grid, small_geometry)
    refolds = [op.with_phase_matrix(np.exp(1j * np.full(16, 0.1 * k)))
               for k in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(r.solve_matrix, 0.7, 2.3) for r in refolds]
            done, pending = wait(futures, timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not pending
    results = [f.result() for f in futures]
    assert len(builds) == 1
    assert all(m is results[0] for m in results)


def test_estimate_phase_matrix_zero_measurements(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    np.testing.assert_array_equal(
        estimate_phase_matrix(op, np.zeros(4, complex)), np.ones(16, complex))


def test_estimate_phase_matrix_single_pixel_real_scene():
    grid = SceneGrid(1, 1, 1.0, 1.0)
    geo = ClusterGeometry(np.array([0.1]), 0.2, np.array([9.0e9, 9.4e9]))
    op = ForwardOperator(grid, geo)
    y = op.apply(np.array([3.0 + 0j]))
    phase = estimate_phase_matrix(op, y)
    np.testing.assert_allclose(phase, [1.0 + 0j], atol=1e-12)


def test_estimate_phase_matrix_matches_dense(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    dense = dense_operator_matrix(small_grid, small_geometry)
    rng = np.random.default_rng(23)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    expected = np.exp(1j * np.angle(dense.conj().T @ y))
    np.testing.assert_allclose(estimate_phase_matrix(op, y), expected, rtol=1e-12)
    assert np.allclose(np.abs(estimate_phase_matrix(op, y)), 1.0, atol=1e-12)


def test_estimate_phase_matrix_rejects_folded(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    folded = op.with_phase_matrix(np.exp(1j * np.full(16, 0.3)))
    with pytest.raises(ValueError):
        estimate_phase_matrix(folded, np.zeros(4, complex))


def test_backprojection_zero_and_average(small_grid, small_geometry):
    op = ForwardOperator(small_grid, small_geometry)
    zero = np.zeros(4, complex)
    np.testing.assert_array_equal(backprojection_image([op], [zero]),
                                  np.zeros(16))
    rng = np.random.default_rng(31)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    single = backprojection_image([op], [y])
    double = backprojection_image([op, op], [y, y])
    np.testing.assert_allclose(double, single, rtol=1e-15)
    with pytest.raises(ValueError):
        backprojection_image([], [])


def test_backprojection_peak_near_scatterer():
    grid = SceneGrid(32, 32, 4.0, 4.0)
    clusters = make_uniform_clusters(8, math.radians(2.0), 4,
                                     math.radians(30.0), 9.6e9, 1.0e9, 8)
    rng = np.random.default_rng(2)
    scatterers = [Scatterer((rng.uniform(-1.8, 1.8), rng.uniform(-1.8, 1.8)), 1.0)
                  for _ in range(10)]
    scenario = SimScenario(grid, clusters, scatterers, math.inf, 2)
    histories = synthesize_measurements(scenario)
    ops = [ForwardOperator(grid, c) for c in clusters]
    bp = backprojection_image(ops, [h.data for h in histories])
    truth = set()
    for q in range(len(clusters)):
        truth.update(np.flatnonzero(rasterize_scene(scenario, q)).tolist())
    peak = int(np.argmax(bp))
    py, px = divmod(peak, 32)
    assert any(max(abs(py - t // 32), abs(px - t % 32)) <= 1 for t in truth)
