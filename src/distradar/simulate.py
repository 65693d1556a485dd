"""Seeded synthetic scenes and noisy phase-history measurements.

Scatterers carry a binary angular visibility window, so clusters looking
from different azimuths see different subsets of the scene. Noise is drawn
from per-cluster substreams of a single root seed and scaled so the
realized SNR matches the requested value exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ClusterGeometry, ForwardOperator, SceneGrid

TWO_PI = 2 * np.pi


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer with an angular visibility window.

    The scatterer contributes to a cluster iff the cluster's central
    azimuth lies within visibility_center +/- visibility_width/2,
    compared modulo 2*pi.
    """

    position: tuple  # (x, y) meters
    base_amplitude: float
    phase: float = 0.0  # radians
    visibility_center: float = 0.0  # radians
    visibility_width: float = TWO_PI  # radians

    def __post_init__(self):
        if self.base_amplitude < 0:
            raise ValueError("base_amplitude must be nonnegative")
        if not (0 < self.visibility_width <= TWO_PI):
            raise ValueError("visibility_width must lie in (0, 2*pi]")

    def visible_from(self, azimuth):
        d = abs((azimuth - self.visibility_center + np.pi) % TWO_PI - np.pi)
        return d <= self.visibility_width / 2


@dataclass(frozen=True)
class SimScenario:
    grid: SceneGrid
    clusters: list
    scatterers: list
    snr_db: float = math.inf  # +inf means noiseless
    seed: int = 0

    def __post_init__(self):
        if len(self.clusters) == 0:
            raise ValueError("scenario needs at least one cluster")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must be finite or +inf")
        hx = self.grid.extent_x / 2
        hy = self.grid.extent_y / 2
        for s in self.scatterers:
            x, y = s.position
            if not (-hx <= x <= hx and -hy <= y <= hy):
                raise ValueError(f"scatterer at ({x}, {y}) outside grid extent")


@dataclass(frozen=True)
class PhaseHistory:
    """Per-cluster complex measurement vector plus its noise norm, and the
    reflectivity raster (rasterize_scene) the measurements were made of."""

    data: np.ndarray  # complex, length W*M
    noise_norm: float
    truth: np.ndarray  # complex, length n_pixels


def rasterize_scene(scenario, cluster_id):
    """Complex reflectivity vector seen by one cluster.

    Each visible scatterer deposits amplitude*exp(j*phase) on its nearest
    pixel (nearest-neighbor snapping); invisible scatterers contribute
    nothing.
    """
    if not (0 <= cluster_id < len(scenario.clusters)):
        raise ValueError(f"cluster_id {cluster_id} out of range")
    cluster = scenario.clusters[cluster_id]
    center = cluster.center_azimuth
    scene = np.zeros(scenario.grid.n_pixels, dtype=complex)
    for s in scenario.scatterers:
        if s.visible_from(center):
            n = scenario.grid.nearest_pixel(*s.position)
            scene[n] += s.base_amplitude * np.exp(1j * s.phase)
    return scene


def scene_rng(seed):
    """Root-seeded generator reserved for scene construction."""
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0]))


def _cluster_rng(seed, cluster_id):
    # substream mixing: the (seed, 1, q) key is independent of how many
    # clusters exist, so adding clusters never shifts earlier clusters'
    # noise; (seed, 0) is reserved for scene construction
    return np.random.default_rng(
        np.random.SeedSequence(entropy=[int(seed), 1, int(cluster_id)]))


def synthesize_measurements(scenario):
    """Noisy phase histories y_q = A_q x_q + n_q for every cluster.

    The circularly-symmetric complex Gaussian noise is rescaled per
    realization so that 10*log10(||A x||^2 / ||n||^2) equals snr_db
    exactly. snr_db = +inf yields noiseless measurements.
    """
    out = []
    for q, cluster in enumerate(scenario.clusters):
        op = ForwardOperator(scenario.grid, cluster)
        truth = rasterize_scene(scenario, q)
        clean = op.apply(truth)
        if math.isinf(scenario.snr_db):
            out.append(PhaseHistory(clean, 0.0, truth))
            continue
        signal_norm = np.linalg.norm(clean)
        if signal_norm == 0:
            raise ValueError(
                f"cluster {q}: scene energy is zero, finite SNR undefined")
        rng = _cluster_rng(scenario.seed, q)
        noise = (rng.standard_normal(clean.size)
                 + 1j * rng.standard_normal(clean.size)) / np.sqrt(2)
        target_norm = signal_norm / 10 ** (scenario.snr_db / 20)
        noise *= target_norm / np.linalg.norm(noise)
        out.append(PhaseHistory(clean + noise, float(np.linalg.norm(noise)),
                                truth))
    return out


def make_uniform_clusters(q_count, cluster_width, apcs_per_cluster, elevation,
                          freq_center, bandwidth, freq_count):
    """Clusters uniformly spaced on [0, 2*pi) with centered APC fans.

    APC azimuths span the cluster width end to end; frequencies span
    freq_center +/- bandwidth/2 uniformly.
    """
    if q_count < 1:
        raise ValueError("q_count must be >= 1")
    if cluster_width <= 0 or bandwidth <= 0:
        raise ValueError("cluster_width and bandwidth must be positive")
    if apcs_per_cluster < 1 or freq_count < 1:
        raise ValueError("apcs_per_cluster and freq_count must be >= 1")
    if q_count * cluster_width > TWO_PI + 1e-12:
        raise ValueError("clusters overlap: q_count * cluster_width > 2*pi")
    if apcs_per_cluster == 1:
        offsets = np.zeros(1)
    else:
        offsets = np.linspace(-cluster_width / 2, cluster_width / 2, apcs_per_cluster)
    if freq_count == 1:
        freqs = np.array([freq_center], dtype=float)
    else:
        freqs = np.linspace(freq_center - bandwidth / 2,
                            freq_center + bandwidth / 2, freq_count)
    clusters = []
    for q in range(q_count):
        center = TWO_PI * q / q_count
        clusters.append(ClusterGeometry(
            azimuth_angles=center + offsets,
            elevation=elevation,
            frequencies=freqs,
        ))
    return clusters
