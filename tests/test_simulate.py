import math

import numpy as np
import pytest

from distradar.model import ForwardOperator, SceneGrid
from distradar.simulate import (PhaseHistory, Scatterer, SimScenario,
                                make_uniform_clusters, rasterize_scene,
                                scene_rng, synthesize_measurements)


def _scenario(snr_db=math.inf, seed=0, scatterers=None):
    grid = SceneGrid(8, 8, 4.0, 4.0)
    clusters = make_uniform_clusters(4, math.radians(3.0), 2,
                                     math.radians(25.0), 9.6e9, 0.6e9, 3)
    if scatterers is None:
        scatterers = [Scatterer((0.3, -0.7), 1.0), Scatterer((-1.1, 0.9), 2.0)]
    return SimScenario(grid, clusters, scatterers, snr_db, seed)


def test_visibility_window_wraps():
    s = Scatterer((0, 0), 1.0, visibility_center=0.1,
                  visibility_width=math.radians(90.0))
    assert s.visible_from(0.1)
    assert s.visible_from(0.1 + math.radians(44.9))
    assert not s.visible_from(0.1 + math.radians(45.1))
    # wraparound near 2*pi
    assert s.visible_from(0.1 - math.radians(44.9) + 2 * math.pi)
    # full window sees everything
    assert Scatterer((0, 0), 1.0).visible_from(5.0)


def test_scatterer_validation():
    with pytest.raises(ValueError):
        Scatterer((0, 0), -1.0)
    with pytest.raises(ValueError):
        Scatterer((0, 0), 1.0, visibility_width=0.0)
    with pytest.raises(ValueError):
        Scatterer((0, 0), 1.0, visibility_width=7.0)


def test_scenario_rejects_out_of_grid_scatterer():
    with pytest.raises(ValueError):
        _scenario(scatterers=[Scatterer((10.0, 0.0), 1.0)])


def test_rasterize_places_amplitude_and_phase():
    scn = _scenario(scatterers=[Scatterer((0.3, -0.7), 2.0, phase=0.5)])
    scene = rasterize_scene(scn, 0)
    n = scn.grid.nearest_pixel(0.3, -0.7)
    assert np.count_nonzero(scene) == 1
    np.testing.assert_allclose(scene[n], 2.0 * np.exp(0.5j), rtol=1e-15)


def test_rasterize_respects_visibility():
    sc = Scatterer((0.3, -0.7), 1.0, visibility_center=0.0,
                   visibility_width=math.radians(10.0))
    scn = _scenario(scatterers=[sc])
    # cluster 0 centered at azimuth 0 sees it; cluster 1 at pi/2 does not
    assert np.count_nonzero(rasterize_scene(scn, 0)) == 1
    assert np.count_nonzero(rasterize_scene(scn, 1)) == 0
    with pytest.raises(ValueError):
        rasterize_scene(scn, 99)


def test_rasterize_sums_colocated_scatterers():
    scn = _scenario(scatterers=[Scatterer((0.3, -0.7), 1.0),
                                Scatterer((0.3, -0.7), 1.0, phase=math.pi)])
    scene = rasterize_scene(scn, 0)
    np.testing.assert_allclose(scene, 0.0, atol=1e-15)


def test_noiseless_measurements_match_forward_model():
    scn = _scenario()
    histories = synthesize_measurements(scn)
    assert len(histories) == 4
    for q, h in enumerate(histories):
        assert isinstance(h, PhaseHistory)
        assert h.noise_norm == 0.0
        op = ForwardOperator(scn.grid, scn.clusters[q])
        # the history carries the raster its measurements were made of
        np.testing.assert_array_equal(h.truth, rasterize_scene(scn, q))
        np.testing.assert_array_equal(h.data, op.apply(h.truth))


def test_snr_is_exact_per_realization():
    for snr in (0.0, 10.0, 23.7):
        scn = _scenario(snr_db=snr, seed=5)
        for q, h in enumerate(synthesize_measurements(scn)):
            op = ForwardOperator(scn.grid, scn.clusters[q])
            clean = op.apply(rasterize_scene(scn, q))
            noise = h.data - clean
            realized = 20 * math.log10(
                np.linalg.norm(clean) / np.linalg.norm(noise))
            assert realized == pytest.approx(snr, abs=1e-10)
            assert h.noise_norm == pytest.approx(np.linalg.norm(noise), rel=1e-12)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_scenario_refuses_snr_that_is_neither_finite_nor_inf(snr_db):
    with pytest.raises(ValueError, match="snr_db must be finite or"):
        _scenario(snr_db=snr_db)


def test_zero_scene_with_finite_snr_raises():
    scn = _scenario(snr_db=10.0, scatterers=[])
    with pytest.raises(ValueError, match="scene energy is zero"):
        synthesize_measurements(scn)


def test_seed_reproducibility_and_distinct_streams():
    a = synthesize_measurements(_scenario(snr_db=10.0, seed=3))
    b = synthesize_measurements(_scenario(snr_db=10.0, seed=3))
    c = synthesize_measurements(_scenario(snr_db=10.0, seed=4))
    for ha, hb, hc in zip(a, b, c):
        np.testing.assert_array_equal(ha.data, hb.data)
        assert not np.array_equal(ha.data, hc.data)
    # clusters draw independent noise
    scn = _scenario(snr_db=10.0, seed=3)
    noises = []
    for q, h in enumerate(a):
        op = ForwardOperator(scn.grid, scn.clusters[q])
        noises.append(h.data - op.apply(rasterize_scene(scn, q)))
    assert not np.array_equal(noises[0], noises[1])


def test_cluster_noise_independent_of_cluster_count():
    grid = SceneGrid(8, 8, 4.0, 4.0)
    scat = [Scatterer((0.3, -0.7), 1.0)]
    few = make_uniform_clusters(2, math.radians(3.0), 2,
                                math.radians(25.0), 9.6e9, 0.6e9, 3)
    many = make_uniform_clusters(4, math.radians(3.0), 2,
                                 math.radians(25.0), 9.6e9, 0.6e9, 3)
    h_few = synthesize_measurements(SimScenario(grid, few, scat, 10.0, 9))
    h_many = synthesize_measurements(SimScenario(grid, many, scat, 10.0, 9))
    # cluster 0 has identical geometry in both layouts, so identical noise
    np.testing.assert_array_equal(h_few[0].data, h_many[0].data)


def test_scene_rng_reserved_stream_differs_from_noise_stream():
    # scene stream must not overlap the per-cluster noise substreams
    s = scene_rng(7).standard_normal(8)
    scn = _scenario(snr_db=10.0, seed=7)
    h = synthesize_measurements(scn)[0]
    assert not np.allclose(s[:4], h.data[:4].real)
    np.testing.assert_array_equal(s, scene_rng(7).standard_normal(8))


def test_make_uniform_clusters_layout():
    clusters = make_uniform_clusters(4, math.radians(5.0), 3,
                                     math.radians(30.0), 9.6e9, 1.0e9, 5)
    assert len(clusters) == 4
    for q, c in enumerate(clusters):
        assert c.center_azimuth == pytest.approx(2 * math.pi * q / 4)
        assert c.n_apcs == 3
        span = c.azimuth_angles[-1] - c.azimuth_angles[0]
        assert span == pytest.approx(math.radians(5.0))
        np.testing.assert_allclose(c.frequencies, [9.1e9, 9.35e9, 9.6e9,
                                                   9.85e9, 10.1e9])


def test_make_uniform_clusters_validation():
    with pytest.raises(ValueError):
        make_uniform_clusters(0, 0.1, 1, 0.3, 9.6e9, 1e9, 1)
    with pytest.raises(ValueError):
        make_uniform_clusters(100, 0.1, 1, 0.3, 9.6e9, 1e9, 1)
    with pytest.raises(ValueError):
        make_uniform_clusters(4, -0.1, 1, 0.3, 9.6e9, 1e9, 1)
    single = make_uniform_clusters(1, 0.1, 1, 0.3, 9.6e9, 1e9, 1)
    assert single[0].n_apcs == 1 and single[0].n_freqs == 1
    np.testing.assert_allclose(single[0].frequencies, [9.6e9])
