"""Image-quality and recovery metrics plus image export helpers."""

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EntropyConfig:
    dynamic_range_db: float = 50.0  # saturation window below the peak
    gray_levels: int = 256

    def __post_init__(self):
        if self.dynamic_range_db <= 0:
            raise ValueError("dynamic_range_db must be positive")
        if self.gray_levels < 2:
            raise ValueError("gray_levels must be >= 2")


def normalized_sparsity(image, rel_threshold=1e-3):
    """Fraction of pixels above rel_threshold times the image peak."""
    if not (0 <= rel_threshold < 1):
        raise ValueError("rel_threshold must lie in [0, 1)")
    image = np.asarray(image, dtype=float)
    peak = image.max(initial=0.0)
    if peak <= 0:
        return 0.0
    return float(np.mean(image > rel_threshold * peak))


def _gray_levels(image, cfg):
    """dB-saturated gray quantization shared by entropy and PGM export.

    Values are mapped to dB relative to the peak (amplitude convention,
    20*log10), clamped at -dynamic_range_db, then binned linearly over
    [-D, 0] into gray levels 0..L-1 with floor quantization.
    """
    image = np.asarray(image, dtype=float)
    if np.any(image < 0):
        raise ValueError("image must be nonnegative")
    levels = np.zeros(image.shape, dtype=np.int64)
    peak = image.max(initial=0.0)
    if peak <= 0:
        return levels
    d = cfg.dynamic_range_db
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(image / peak)
    db = np.maximum(db, -d)
    levels = np.floor((db + d) / d * cfg.gray_levels).astype(np.int64)
    return np.minimum(levels, cfg.gray_levels - 1)


def image_entropy(image, cfg=EntropyConfig()):
    """Shannon entropy in bits of the dB-saturated gray-level histogram.

    An all-zero or constant image scores 0 bits; a uniform draw over all
    gray levels approaches log2(gray_levels).
    """
    levels = _gray_levels(image, cfg)
    counts = np.bincount(levels.ravel(), minlength=cfg.gray_levels)
    p = counts[counts > 0] / levels.size
    return float(-np.sum(p * np.log2(p)))


def _chebyshev(a, b, nx):
    ay, ax = divmod(int(a), nx)
    by, bx = divmod(int(b), nx)
    return max(abs(ay - by), abs(ax - bx))


def detect_peaks(image, nx, rel_threshold, radius):
    """Greedy non-maximum suppression of above-threshold pixels.

    Candidates above rel_threshold*peak are visited in order of
    decreasing value (ties by flat index); each kept one blocks its
    (2*radius+1)^2 Chebyshev window, and blocked candidates are skipped.
    Returns flat indices.
    """
    image = np.asarray(image, dtype=float)
    peak = image.max(initial=0.0)
    if peak <= 0:
        return []
    candidates = np.flatnonzero(image > rel_threshold * peak)
    order = candidates[np.lexsort((candidates, -image[candidates]))]
    blocked = np.zeros((-(-image.size // nx), nx), dtype=bool)  # ceil rows
    kept = []
    for i in order.tolist():
        iy, ix = divmod(i, nx)
        if not blocked[iy, ix]:
            kept.append(i)
            blocked[max(iy - radius, 0):iy + radius + 1,
                    max(ix - radius, 0):ix + radius + 1] = True
    return kept


def support_f1(reconstruction, truth_support, nx, rel_threshold=0.1,
               match_radius_px=1):
    """Support-recovery precision, recall, and F1.

    Detections come from detect_peaks; they are matched greedily
    (strongest first) one-to-one to truth pixels within the Chebyshev
    match radius. Precision is defined as 0 when there are no detections.
    """
    if match_radius_px < 0:
        raise ValueError("match_radius_px must be >= 0")
    truth = sorted(set(int(i) for i in truth_support))
    if not truth:
        raise ValueError("truth support set must be non-empty")
    detections = detect_peaks(reconstruction, nx, rel_threshold, match_radius_px)
    unmatched = list(truth)
    matches = 0
    for det in detections:
        best = None
        best_d = None
        for t in unmatched:
            d = _chebyshev(det, t, nx)
            if d <= match_radius_px and (best_d is None or d < best_d):
                best, best_d = t, d
        if best is not None:
            unmatched.remove(best)
            matches += 1
    precision = matches / len(detections) if detections else 0.0
    recall = matches / len(truth)
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1


def export_image(image, grid, path, fmt="pgm", entropy_cfg=EntropyConfig()):
    """Write the image as binary PGM (8-bit P5) or full-precision CSV.

    The PGM uses the same peak-relative dB mapping as image_entropy, so
    the bytes are exactly the gray levels the entropy sees. The CSV holds
    raw float values, one row per grid row.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.n_pixels,):
        raise ValueError("image length must equal the grid pixel count")
    try:
        if fmt == "pgm":
            if entropy_cfg.gray_levels > 256:
                raise ValueError("PGM export supports at most 256 gray levels")
            levels = _gray_levels(image, entropy_cfg).astype(np.uint8)
            with open(path, "wb") as fh:
                fh.write(f"P5\n{grid.nx} {grid.ny}\n255\n".encode("ascii"))
                fh.write(levels.tobytes())
        elif fmt == "csv":
            rows = image.reshape(grid.ny, grid.nx)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                for row in rows:
                    writer.writerow([f"{v:.17g}" for v in row])
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing image to {path}: {exc}") from exc


def load_image_csv(path):
    """Read an image CSV written by export_image back as a (ny, nx) array.

    Raises ValueError, naming the file, when it holds no rows, rows of
    unequal length, a value that is not a number or a non-finite value.
    """
    try:
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    except OSError as exc:
        raise OSError(f"failed reading image from {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no pixel rows")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{path}: rows of unequal length")
    image = np.array(rows)
    if not np.all(np.isfinite(image)):
        raise ValueError(f"{path}: non-finite pixel value")
    return image
