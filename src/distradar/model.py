"""Scene geometry and the tomographic forward operator.

The forward operator maps a complex reflectivity image on a uniform grid to
de-chirped phase-history samples collected by one cluster of antenna phase
centers (APCs). The kernel is an exact nonuniform DFT. Its phase splits
into an x term and a y term, so the operator stores one small factor per
pixel axis and applies the kernel as two matrix products, O(W*M*N) per
application without a dense MW x N matrix. The row Gram A A^H (MW x MW)
is phase-free, and real because the pixel centres are symmetric about 0;
the cached real inverse of beta*I + mu*A A^H gives the ADMM local solve in
closed form.
"""

import copy
import math
import threading
from dataclasses import dataclass

import numpy as np

C_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class SceneGrid:
    """Uniform nx-by-ny pixel raster with physical extent in meters.

    Pixels are indexed row-major: flat index n = iy*nx + ix. Pixel centers
    are symmetric about the scene center, spanning
    [-extent/2 + delta/2, extent/2 - delta/2] along each axis.
    """

    nx: int
    ny: int
    extent_x: float
    extent_y: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have nx >= 1 and ny >= 1")
        if self.extent_x <= 0 or self.extent_y <= 0:
            raise ValueError("grid extents must be positive")

    @property
    def n_pixels(self):
        return self.nx * self.ny

    def axes(self):
        """Pixel-center x coordinates (length nx) and y coordinates (length ny)."""
        dx = self.extent_x / self.nx
        dy = self.extent_y / self.ny
        xs = -self.extent_x / 2 + dx * (np.arange(self.nx) + 0.5)
        ys = -self.extent_y / 2 + dy * (np.arange(self.ny) + 0.5)
        return xs, ys

    def pixel_coords(self):
        """(N, 2) array of pixel-center (x, y) coordinates, row-major."""
        gx, gy = np.meshgrid(*self.axes())  # rows vary in y
        return np.column_stack([gx.ravel(), gy.ravel()])

    def nearest_pixel(self, x, y):
        """Flat index of the pixel whose center is nearest to (x, y)."""
        dx = self.extent_x / self.nx
        dy = self.extent_y / self.ny
        ix = min(max(math.floor((x + self.extent_x / 2) / dx), 0), self.nx - 1)
        iy = min(max(math.floor((y + self.extent_y / 2) / dy), 0), self.ny - 1)
        return iy * self.nx + ix


@dataclass(frozen=True)
class ClusterGeometry:
    """Sampling geometry of one cluster: APC azimuths, elevation, frequencies."""

    azimuth_angles: np.ndarray  # radians, length M
    elevation: float  # radians
    frequencies: np.ndarray  # Hz, length W, strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "azimuth_angles",
                           np.asarray(self.azimuth_angles, dtype=float))
        object.__setattr__(self, "frequencies",
                           np.asarray(self.frequencies, dtype=float))
        if self.azimuth_angles.size < 1:
            raise ValueError("cluster needs at least one APC azimuth")
        if self.frequencies.size < 1:
            raise ValueError("cluster needs at least one frequency sample")
        if np.any(self.frequencies <= 0):
            raise ValueError("frequencies must be strictly positive")
        if self.frequencies.size > 1 and np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if not (0 <= self.elevation < np.pi / 2):
            raise ValueError("elevation must lie in [0, pi/2)")

    @property
    def n_apcs(self):
        return self.azimuth_angles.size

    @property
    def n_freqs(self):
        return self.frequencies.size

    @property
    def center_azimuth(self):
        """Central azimuth of the cluster (mean of APC angles)."""
        return float(np.mean(self.azimuth_angles))


class ForwardOperator:
    """Separable matrix representation A of the cluster's measurement kernel.

    Entry A[(m, w), n] = exp(+j * 4*pi*f_w*cos(phi)/c * (x_n*cos(theta_m)
    + y_n*sin(theta_m))) * phase_matrix[n]. Output samples are ordered
    frequency-major within each APC: row index = m*W + w.

    The kernel factorises over the pixel axes, K[(m, w), iy*nx + ix] =
    Ey[(m, w), iy] * Ex[(m, w), ix], so only the two small factors Ex
    (MW x nx) and Ey (MW x ny) are stored, and apply and adjoint each cost
    one MW x ny x nx matrix product plus an element-wise pass.

    The unit-modulus phase_matrix is the diagonal of the per-pixel phase
    matrix folded into A: all ones as constructed, and set only by
    with_phase_matrix, which returns a refolded copy. Instances are immutable
    after construction apart from the lazy solve_matrix cache, which
    solvers.run fills from its thread pool; a lock shared with the cache
    makes concurrent calls build it once. apply/adjoint allocate fresh
    outputs.
    """

    def __init__(self, grid, geometry):
        self.grid = grid
        self.geometry = geometry
        self.phase_matrix = np.ones(grid.n_pixels, dtype=complex)
        self._ex, self._ey = self._build_factors()
        self._solve_cache = [None]  # lazy (mu, beta, M), shared across refolds
        self._solve_lock = threading.Lock()  # guards _solve_cache

    def _build_factors(self):
        xs, ys = self.grid.axes()
        theta = self.geometry.azimuth_angles
        k = 4 * np.pi * self.geometry.frequencies * np.cos(self.geometry.elevation) / C_LIGHT
        # wavenumber components of row m*W + w along x and y
        kx = (np.cos(theta)[:, None] * k[None, :]).reshape(-1)
        ky = (np.sin(theta)[:, None] * k[None, :]).reshape(-1)
        return np.exp(1j * np.outer(kx, xs)), np.exp(1j * np.outer(ky, ys))

    @property
    def n_measurements(self):
        return self.geometry.n_freqs * self.geometry.n_apcs

    def with_phase_matrix(self, phase_matrix):
        """Copy of this operator with a different folded phase matrix, which
        must hold N unit-modulus entries."""
        phase_matrix = np.asarray(phase_matrix, dtype=complex)
        if phase_matrix.shape != (self.grid.n_pixels,):
            raise ValueError("phase_matrix must have length N")
        if np.any(np.abs(np.abs(phase_matrix) - 1.0) > 1e-12):
            raise ValueError("phase_matrix entries must be unit modulus")
        op = copy.copy(self)  # shares the factors, solve-matrix cache and lock
        op.phase_matrix = phase_matrix
        return op

    def row_gram(self):
        """A A^H, the real symmetric MW x MW row Gram; a fresh array per call.

        A A^H = K K^H = (Ex Ex^H) * (Ey Ey^H) element-wise, independent of
        the unit-modulus phase matrix. The pixel centres on each axis are
        symmetric about 0, so sum_i exp(j*kappa*x_i) is real and so is each
        factor Gram: Ex Ex^H = Re(Ex) Re(Ex)^T + Im(Ex) Im(Ex)^T, one real
        product on the interleaved (re, im) view of Ex.
        """
        ex, ey = self._ex.view(float), self._ey.view(float)
        gram = ex @ ex.T
        gram *= ey @ ey.T
        return gram

    def solve_matrix(self, mu, beta):
        """M = (beta*I + mu*A A^H)^-1, the real MW x MW matrix of the local solve.

        The row Gram is phase-free, so one inverse serves every refold of
        this geometry, and real, so M is a symmetric float64 matrix. Built
        on first call and cached in a single slot keyed on (mu, beta); a
        call with other values rebuilds it.
        """
        with self._solve_lock:
            cached = self._solve_cache[0]
            if cached is None or cached[:2] != (mu, beta):
                gram = self.row_gram()
                gram *= mu
                gram.flat[::gram.shape[0] + 1] += beta
                self._solve_cache[0] = cached = (mu, beta, np.linalg.inv(gram))
        return cached[2]

    def normal_apply(self, image):
        """A^H A x, evaluated as adjoint(apply(x)) (phase matrix included)."""
        return self.adjoint(self.apply(image))

    def apply(self, image):
        """y = A x for a complex image of length N."""
        image = np.asarray(image)
        if image.shape != (self.grid.n_pixels,):
            raise ValueError("image length must equal the pixel count N")
        u = (self.phase_matrix * image).reshape(self.grid.ny, self.grid.nx)
        return np.sum((self._ey @ u) * self._ex, axis=1)

    def adjoint(self, data):
        """x = A^H y for a measurement vector of length W*M."""
        data = np.asarray(data)
        if data.shape != (self.n_measurements,):
            raise ValueError("data length must equal W*M")
        # Ey^H (y * conj(Ex)), conjugated once at the end instead of copying
        # conj(Ex) and conj(Ey) on every call
        x = self._ey.T @ (np.conj(data)[:, None] * self._ex)
        return np.conj(self.phase_matrix * x.reshape(self.grid.n_pixels))


def estimate_phase_matrix(op, measurements):
    """Per-pixel phase estimate from the back-projection of the measurements.

    Returns exp(j*angle(A^H y)) element-wise; pixels where the
    back-projection is exactly zero get phase 1. Requires an operator whose
    phase matrix has not been folded yet.
    """
    if not np.all(op.phase_matrix == 1.0):
        raise ValueError("phase estimation expects an all-ones phase matrix")
    bp = op.adjoint(measurements)
    phase = np.ones(bp.size, dtype=complex)
    nz = bp != 0
    phase[nz] = np.exp(1j * np.angle(bp[nz]))
    return phase


def check_cluster_set(operators, measurements):
    """Raise ValueError unless there is at least one cluster and exactly
    one measurement vector per operator."""
    if len(operators) == 0:
        raise ValueError("need at least one cluster")
    if len(operators) != len(measurements):
        raise ValueError("need exactly one measurement vector per operator")


def backprojection_image(ops, measurements):
    """Average over clusters of the per-cluster back-projection magnitudes."""
    check_cluster_set(ops, measurements)
    acc = np.zeros(ops[0].grid.n_pixels)
    for op, y in zip(ops, measurements):
        acc += np.abs(op.adjoint(y))
    return acc / len(ops)
