import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distradar.metrics import (EntropyConfig, detect_peaks, export_image,
                               image_entropy, load_image_csv,
                               normalized_sparsity, support_f1)
from distradar.model import SceneGrid


def test_entropy_config_validation():
    with pytest.raises(ValueError):
        EntropyConfig(dynamic_range_db=0.0)
    with pytest.raises(ValueError):
        EntropyConfig(gray_levels=1)


def test_normalized_sparsity_basic():
    assert normalized_sparsity(np.zeros(10)) == 0.0
    img = np.zeros(10)
    img[3] = 1.0
    assert normalized_sparsity(img) == pytest.approx(0.1)
    img[7] = 0.5
    assert normalized_sparsity(img, rel_threshold=0.4) == pytest.approx(0.2)
    assert normalized_sparsity(img, rel_threshold=0.6) == pytest.approx(0.1)
    assert normalized_sparsity(np.ones(4)) == 1.0
    with pytest.raises(ValueError):
        normalized_sparsity(img, rel_threshold=1.0)


def test_entropy_degenerate_images():
    assert image_entropy(np.zeros(64)) == 0.0
    assert image_entropy(np.full(64, 3.3)) == 0.0
    with pytest.raises(ValueError):
        image_entropy(np.array([-1.0, 2.0]))


def test_entropy_two_level_image_is_one_bit():
    cfg = EntropyConfig(dynamic_range_db=40.0, gray_levels=256)
    img = np.empty(64)
    img[:32] = 1.0
    img[32:] = 0.1  # -20 dB, a distinct gray level
    assert image_entropy(img, cfg) == pytest.approx(1.0)


def test_entropy_uniform_gray_levels_hits_maximum():
    cfg = EntropyConfig(dynamic_range_db=50.0, gray_levels=256)
    d, levels = cfg.dynamic_range_db, cfg.gray_levels
    # one pixel per gray level: invert the dB mapping at each bin center
    vals = [10 ** ((-d + (g + 0.5) / levels * d) / 20) for g in range(255)]
    img = np.array(vals + [1.0])
    assert image_entropy(img, cfg) == pytest.approx(math.log2(256))


def test_entropy_scale_invariant():
    rng = np.random.default_rng(6)
    img = np.abs(rng.standard_normal(128))
    # powers of two rescale exactly in binary floating point
    assert image_entropy(img) == image_entropy(img * 4.0)
    assert image_entropy(img) == image_entropy(img / 8.0)


def test_detect_peaks_basic():
    img = np.zeros(25)  # 5x5
    img[12] = 1.0  # center
    img[0] = 0.5
    assert detect_peaks(img, 5, 0.1, 1) == [12, 0]
    # neighbor of the strongest is suppressed within radius 1
    img[13] = 0.9
    assert detect_peaks(img, 5, 0.1, 1) == [12, 0]
    # radius 0 keeps it
    assert detect_peaks(img, 5, 0.1, 0) == [12, 13, 0]
    # threshold hides the weak one
    assert detect_peaks(img, 5, 0.95, 1) == [12]
    assert detect_peaks(np.zeros(25), 5, 0.1, 1) == []


def test_detect_peaks_tie_breaks_by_index():
    img = np.zeros(16)
    img[10] = img[2] = 1.0
    assert detect_peaks(img, 4, 0.5, 1) == [2, 10]


def _detect_peaks_reference(image, nx, rel_threshold, radius):
    # quadratic greedy: each candidate is checked against every kept peak
    peak = image.max(initial=0.0)
    if peak <= 0:
        return []
    candidates = np.flatnonzero(image > rel_threshold * peak)
    kept = []
    for i in sorted(candidates, key=lambda i: (-image[i], i)):
        iy, ix = divmod(int(i), nx)
        if all(max(abs(iy - jy), abs(ix - jx)) > radius
               for jy, jx in (divmod(j, nx) for j in kept)):
            kept.append(int(i))
    return kept


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3),
       st.floats(0.0, 0.99), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_detect_peaks_matches_quadratic_reference(nx, ny, radius,
                                                  rel_threshold, levels, seed):
    # levels > 0 draws from that many values in [0, 1], forcing ties (one
    # level is the all-zero image); levels == 0 draws continuous values
    rng = np.random.default_rng(seed)
    if levels:
        img = rng.integers(0, levels, nx * ny) / max(levels - 1, 1)
    else:
        img = rng.uniform(0.0, 1.0, nx * ny)
    assert (detect_peaks(img, nx, rel_threshold, radius)
            == _detect_peaks_reference(img, nx, rel_threshold, radius))


def test_support_f1_exact_recovery():
    img = np.zeros(64)
    truth = [9, 30, 55]
    for t in truth:
        img[t] = 1.0
    p, r, f1 = support_f1(img, truth, nx=8)
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_support_f1_off_by_one_pixel_still_matches():
    img = np.zeros(64)
    img[9 + 1] = 1.0  # one pixel to the right of truth 9
    p, r, f1 = support_f1(img, [9], nx=8, match_radius_px=1)
    assert (p, r, f1) == (1.0, 1.0, 1.0)
    p, r, f1 = support_f1(img, [9], nx=8, match_radius_px=0)
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_support_f1_partial_and_empty():
    img = np.zeros(64)
    img[9] = 1.0
    img[40] = 1.0  # spurious
    p, r, f1 = support_f1(img, [9, 55], nx=8)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(0.5)
    assert f1 == pytest.approx(0.5)
    p, r, f1 = support_f1(np.zeros(64), [9], nx=8)
    assert (p, r, f1) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        support_f1(img, [], nx=8)
    with pytest.raises(ValueError):
        support_f1(img, [9], nx=8, match_radius_px=-1)


def test_support_f1_one_to_one_matching():
    # two detections near one truth pixel: only one may match
    img = np.zeros(64)
    img[9] = 1.0
    img[11] = 0.9
    p, r, f1 = support_f1(img, [10], nx=8, match_radius_px=1)
    assert p == pytest.approx(0.5)
    assert r == pytest.approx(1.0)


def test_export_pgm_bytes(tmp_path):
    grid = SceneGrid(2, 2, 1.0, 1.0)
    img = np.array([0.0, 1.0, 0.1, 0.0])
    path = tmp_path / "img.pgm"
    export_image(img, grid, path, fmt="pgm",
                 entropy_cfg=EntropyConfig(dynamic_range_db=40.0))
    data = path.read_bytes()
    assert data == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 0])


def test_export_csv_roundtrip(tmp_path):
    grid = SceneGrid(4, 3, 1.0, 1.0)
    rng = np.random.default_rng(9)
    img = np.abs(rng.standard_normal(12))
    path = tmp_path / "img.csv"
    export_image(img, grid, path, fmt="csv")
    back = load_image_csv(path)
    # one CSV row per grid row; %.17g is lossless for float64
    np.testing.assert_array_equal(back, img.reshape(3, 4))


def test_export_errors(tmp_path):
    grid = SceneGrid(2, 2, 1.0, 1.0)
    img = np.zeros(4)
    with pytest.raises(ValueError):
        export_image(img, grid, tmp_path / "x.pgm", fmt="tiff")
    with pytest.raises(ValueError):
        export_image(np.zeros(5), grid, tmp_path / "x.pgm")
    with pytest.raises(OSError):
        export_image(img, grid, tmp_path / "missing" / "x.pgm")
    with pytest.raises(OSError):
        load_image_csv(tmp_path / "nope.csv")
    with pytest.raises(ValueError):
        export_image(img, grid, tmp_path / "x.pgm", fmt="pgm",
                     entropy_cfg=EntropyConfig(gray_levels=512))
