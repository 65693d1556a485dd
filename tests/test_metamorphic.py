"""Metamorphic checks that need no reference solver: results must not
depend on the data's units or on the order in which the clusters are
listed (ROADMAP item 11).

Both run on a small full-views, full-bandwidth scene: 16 x 16 pixels,
four clusters of eight APCs at eight frequencies, four scatterers.
"""

import numpy as np
import pytest

from distradar import cli, model, solvers
from distradar.metrics import load_image_csv

SMALL_FVFB = """\
[scene]
nx = 16
ny = 16
extent_x = 7.0
extent_y = 7.0
seed = 7
num_scatterers = 4
amplitude = {amplitude}
margin = 0.1

[sensing]
q_count = 4
cluster_width_deg = 20.0
apcs_per_cluster = 8
freq_center_hz = 9.6e9
bandwidth_hz = 1.5e9
freq_count = 8
elevation_deg = 30.0
snr_db = 15.0

[solver]
mu = 1.0
lambda = {lam}
beta = 10.0
eps_abs = 1e-2
eps_rel = 1e-2
max_outer_iters = 100
"""

SCALE = 2.0 ** -10  # a power of two, so scaling is exact in floating point


def _simulate(tmp_path, name, scale=1.0):
    config = tmp_path / f"{name}.ini"
    config.write_text(SMALL_FVFB.format(amplitude=scale, lam=50.0 * scale))
    return cli.cmd_simulate(config, tmp_path / name)


_ADMM_DEPENDS_ON_UNITS = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 11: ADMM's stop uses an absolute "
    "tolerance, so data in other units stops at iteration 1")


@pytest.mark.parametrize("method", [
    pytest.param("cadmm", marks=_ADMM_DEPENDS_ON_UNITS),
    pytest.param("sadmm", marks=_ADMM_DEPENDS_ON_UNITS),
    "bp", "composite"])
def test_results_do_not_depend_on_units(tmp_path, method):
    # amplitude and lambda times 2^-10 scale the measurements, and so every
    # image, by exactly 2^-10; the report (termination, iterations and the
    # scale-free scores) must not change
    base = _simulate(tmp_path, "base")
    scaled = _simulate(tmp_path, "scaled", SCALE)
    runs = [cli.cmd_reconstruct(bundle, method, tmp_path / f"{bundle.name}_out")
            for bundle in (base, scaled)]
    assert ((runs[1] / "report.txt").read_text()
            == (runs[0] / "report.txt").read_text())
    first, second = (load_image_csv(out / "image.csv") for out in runs)
    assert np.any(first > 0)
    np.testing.assert_array_equal(second, first * SCALE)


def _reconstruct(method, operators, measurements, solver_cfg):
    if method == "bp":
        return model.backprojection_image(operators, measurements)
    folded = cli._fold_phase_matrices(operators, measurements)
    if method == "composite":
        return solvers.composite_baseline(folded, measurements,
                                          solver_cfg.lam).image
    return solvers.run(method, folded, measurements,
                       solver_cfg).state.global_image


@pytest.mark.parametrize("method", ["cadmm", "sadmm", "bp", "composite"])
def test_cluster_order_changes_images_only_by_rounding(tmp_path, method):
    # the clusters form a set: listing them in reverse changes only the
    # order of the sums over clusters. ADMM runs 30 iterations whatever its
    # residuals, so that both orders stop at the same iteration
    cfg, operators, measurements, _ = cli.load_bundle(
        _simulate(tmp_path, "base"))
    solver_cfg = solvers.SolverConfig(mu=cfg.solver.mu, lam=cfg.solver.lam,
                                      beta=cfg.solver.beta, eps_abs=1e-300,
                                      eps_rel=1e-300, max_outer_iters=30)
    image = _reconstruct(method, operators, measurements, solver_cfg)
    reversed_image = _reconstruct(method, operators[::-1], measurements[::-1],
                                  solver_cfg)
    peak = np.max(image)
    assert peak > 0
    assert np.max(np.abs(reversed_image - image)) <= 1e-11 * peak
