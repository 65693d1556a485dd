import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distradar
from distradar import cli
from distradar.cli import (ConfigError, build_scenario, cmd_metrics,
                           cmd_reconstruct, cmd_simulate, cmd_sweep,
                           load_bundle, load_config, main)
from distradar.metrics import load_image_csv

BASE_CONFIG = """\
[scene]
nx = 8
ny = 8
extent_x = 4.0
extent_y = 4.0
seed = 5
num_scatterers = 3
amplitude = 1.0
margin = 0.2

[sensing]
q_count = 2
cluster_width_deg = 3.0
apcs_per_cluster = 3
freq_center_hz = 9.6e9
bandwidth_hz = 1.0e9
freq_count = 4
elevation_deg = 25.0
snr_db = 20.0

[solver]
mu = 1.0
lambda = 5.0
beta = 5.0
max_outer_iters = 15

[output]
directory = out
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture
def bundle(config_file, tmp_path):
    return cmd_simulate(config_file, tmp_path / "bundle")


def test_load_config_values(config_file):
    cfg = load_config(config_file)
    assert cfg.grid.nx == 8 and cfg.grid.extent_x == 4.0
    assert cfg.seed == 5
    assert cfg.sensing["q_count"] == 2
    assert cfg.sensing["elevation_deg"] == 25.0
    assert cfg.solver.lam == 5.0
    assert cfg.solver.max_outer_iters == 15


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG + "\n[scene]\n", )
    path.write_text(BASE_CONFIG.replace("margin = 0.2", "margn = 0.2"))
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG + "\n[extra]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)


def test_load_config_missing_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scene]\nnx = 4\nny = 4\nextent_x = 1\nextent_y = 1\n"
                    "num_scatterers = 1\n")
    with pytest.raises(ConfigError, match=r"missing section \[sensing\]"):
        load_config(path)


def test_load_config_missing_required_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("q_count = 2\n", ""))
    with pytest.raises(ConfigError, match="q_count"):
        load_config(path)


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.replace("nx = 8", "nx = eight"))
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


@pytest.mark.parametrize("text, value", [("True", True), ("false", False),
                                         ("yes", None), ("1", None)])
def test_load_config_random_phase_is_true_or_false(tmp_path, text, value):
    path = tmp_path / "c.ini"
    path.write_text(BASE_CONFIG.replace("margin = 0.2",
                                        f"margin = 0.2\nrandom_phase = {text}"))
    if value is None:  # anything but true or false is an error
        with pytest.raises(ConfigError, match="random_phase"):
            load_config(path)
    else:
        assert load_config(path).scene["random_phase"] is value


def test_load_config_noiseless_snr(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text(BASE_CONFIG.replace("snr_db = 20.0", "snr_db = inf"))
    assert math.isinf(load_config(path).sensing["snr_db"])


def test_explicit_scatterers(tmp_path):
    text = BASE_CONFIG.replace(
        "num_scatterers = 3\namplitude = 1.0\nmargin = 0.2",
        "scatterers =\n    0.5 -0.5 2.0 90.0 0.0 360.0\n"
        "    -1.0 1.0 1.0 0.0 180.0 90.0")
    path = tmp_path / "c.ini"
    path.write_text(text)
    cfg = load_config(path)
    scn = build_scenario(cfg)
    assert len(scn.scatterers) == 2
    s = scn.scatterers[0]
    assert s.position == (0.5, -0.5)
    assert s.base_amplitude == 2.0
    assert s.phase == pytest.approx(math.pi / 2)
    bad = text.replace("-1.0 1.0 1.0 0.0 180.0 90.0", "-1.0 1.0 1.0")
    path.write_text(bad)
    with pytest.raises(ConfigError, match="expected 6 fields"):
        load_config(path)


def test_build_scenario_seeded(config_file):
    cfg = load_config(config_file)
    a = build_scenario(cfg)
    b = build_scenario(cfg)
    assert [s.position for s in a.scatterers] == [s.position for s in b.scatterers]
    # margin keeps scatterers inside the grid
    for s in a.scatterers:
        assert abs(s.position[0]) <= 2.0 * 0.8
        assert abs(s.position[1]) <= 2.0 * 0.8


def test_simulate_bundle_contents(bundle):
    names = {p.name for p in bundle.iterdir()}
    assert {"config.ini", "manifest.txt", "truth_support.csv",
            "truth_q00.csv", "truth_q01.csv",
            "meas_q00.csv", "meas_q01.csv"} <= names
    manifest = (bundle / "manifest.txt").read_text()
    assert "seed: 5" in manifest
    assert "q_count: 2" in manifest


def test_simulate_deterministic(config_file, tmp_path):
    a = cmd_simulate(config_file, tmp_path / "a")
    b = cmd_simulate(config_file, tmp_path / "b")
    for name in ("meas_q00.csv", "meas_q01.csv", "truth_q00.csv",
                 "manifest.txt", "config.ini"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_seed_override_changes_bundle(config_file, tmp_path):
    a = cmd_simulate(config_file, tmp_path / "a")
    b = cmd_simulate(config_file, tmp_path / "b", seed=99)
    assert (a / "meas_q00.csv").read_bytes() != (b / "meas_q00.csv").read_bytes()
    # the echoed config carries the effective seed, so reloading the
    # bundle reproduces the same scenario
    assert "99" in (b / "config.ini").read_text()
    cfg, ops, meas, _ = load_bundle(b)
    assert cfg.seed == 99


_TWO_CLUSTER_BUNDLE = ["config.ini", "manifest.txt", "meas_q00.csv",
                       "meas_q01.csv", "truth_q00.csv", "truth_q01.csv",
                       "truth_support.csv"]


def test_simulate_replaces_an_earlier_bundle_whole(config_file, tmp_path):
    # a Q = 2 scenario written over a Q = 3 bundle keeps none of its files,
    # nor the results and sweep tables written into it by default
    three = tmp_path / "three.ini"
    three.write_text(BASE_CONFIG.replace("q_count = 2", "q_count = 3"))
    out = tmp_path / "bundle"
    cmd_simulate(three, out)
    cmd_reconstruct(out, "bp")
    cmd_sweep(out, "cadmm", [5.0], [5.0])
    assert {"meas_q02.csv", "recon_bp", "sweep_cadmm.csv"} <= {
        p.name for p in out.iterdir()}
    assert cmd_simulate(config_file, out) == out
    assert sorted(p.name for p in out.iterdir()) == _TWO_CLUSTER_BUNDLE
    fresh = cmd_simulate(config_file, tmp_path / "fresh")
    assert _snapshot(out) == _snapshot(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bundle", "exp.ini", "fresh", "three.ini"]


def test_simulate_failed_write_keeps_old_bundle(config_file, bundle, tmp_path,
                                                capsys, monkeypatch):
    before = _snapshot(bundle)

    def full_disk(*_args, **_kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "_write_complex_csv", full_disk)
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(bundle)]) == 4
    assert "I/O error" in capsys.readouterr().err
    assert _snapshot(bundle) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini"]


@pytest.mark.parametrize("target", ["result", "foreign", "extra_file",
                                    "file", "cwd"])
def test_simulate_refuses_to_replace_other_directories(
        config_file, bundle, tmp_path, capsys, monkeypatch, target):
    # replacing --out deletes it, so only an earlier scenario bundle or an
    # empty directory may be replaced, and the refusal comes before the
    # simulation
    def no_simulation(*_args, **_kwargs):
        raise AssertionError("simulated before checking --out")

    out = tmp_path / "out"
    if target == "result":
        cmd_reconstruct(bundle, "bp", out)
    elif target == "foreign":
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
    elif target == "extra_file":
        out = bundle
        (out / "notes.txt").write_text("keep me\n")
    elif target == "file":
        out.write_text("keep me\n")
    else:
        monkeypatch.chdir(tmp_path)
        out = Path(".")
    monkeypatch.setattr(cli.simulate, "synthesize_measurements", no_simulation)
    tree = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    data = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(out)]) == 2
    assert "refusing to replace" in capsys.readouterr().err
    assert sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob("*")) == tree
    assert all(p.read_bytes() == b for p, b in data.items())


def test_load_bundle_roundtrip(bundle):
    cfg, ops, meas, truth_support = load_bundle(bundle)
    assert len(ops) == 2 and len(meas) == 2
    scn = build_scenario(cfg)
    from distradar.simulate import synthesize_measurements
    histories = synthesize_measurements(scn)
    for h, m in zip(histories, meas):
        np.testing.assert_array_equal(h.data, m)  # %.17g roundtrips exactly
    assert truth_support


def test_load_bundle_errors(tmp_path, bundle):
    with pytest.raises(ConfigError, match="no config.ini"):
        load_bundle(tmp_path / "empty")
    (bundle / "truth_support.csv").write_text("pixel_index\n64\n")
    with pytest.raises(ConfigError, match="truth_support.csv: pixel index 64"):
        load_bundle(bundle)
    (bundle / "meas_q01.csv").unlink()
    with pytest.raises(ConfigError, match="incomplete bundle"):
        load_bundle(bundle)


@pytest.mark.parametrize("key", ["method = cadmm", "prox_max_iters = 200",
                                 "prox_tol = 1e-8", "cg_max_iters = 50",
                                 "cg_tol = 1e-6"])
def test_removed_solver_keys_rejected(tmp_path, capsys, key):
    # bundles written before these keys were dropped carry them in
    # config.ini; they are rejected like any other unknown key
    path = tmp_path / "old.ini"
    path.write_text(BASE_CONFIG.replace("max_outer_iters = 15",
                                        f"max_outer_iters = 15\n{key}"))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "b")]) == 2
    assert key.split(" = ")[0] in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("scene", "plane_height = 0.0"),
                                          ("output", "formats = pgm,csv")])
def test_removed_scene_and_output_keys_rejected(tmp_path, capsys, section,
                                                key):
    path = tmp_path / "old.ini"
    path.write_text(BASE_CONFIG.replace(f"[{section}]\n",
                                        f"[{section}]\n{key}\n"))
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "b")]) == 2
    assert key.split(" = ")[0] in capsys.readouterr().err


@pytest.mark.parametrize("corruption, code", [
    ("nan", 3),  # non-finite sample: numerical failure
    ("empty", 2),  # no header, no rows
    ("short", 2),  # a row missing: wrong length
    ("cut_row", 2),  # file cut inside its last row
])
@pytest.mark.parametrize("method", ["cadmm", "sadmm", "bp", "composite"])
def test_reconstruct_bad_measurements_leave_no_output(bundle, tmp_path, capsys,
                                                      method, corruption, code):
    path = bundle / "meas_q01.csv"
    lines = path.read_text().splitlines()
    if corruption == "nan":
        lines[2] = "1,nan,0"
    elif corruption == "short":
        lines = lines[:-1]
    elif corruption == "empty":
        lines = []
    else:
        lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(bundle), "--method", method,
                 "--out", str(out)]) == code
    assert "meas_q01.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["cadmm", "sadmm", "bp", "composite"])
def test_reconstruct_methods(bundle, method):
    out = cmd_reconstruct(bundle, method)
    assert (out / "image.csv").exists()
    assert (out / "image.pgm").exists()
    report = (out / "report.txt").read_text()
    assert f"method: {method}" in report
    assert "f1:" in report
    if method == "composite":
        # every cluster met the FISTA stop; iterations is the largest count
        assert "termination: converged\n" in report
        assert int(report.split("iterations: ")[1].split()[0]) > 1
    if method in ("cadmm", "sadmm"):
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "iter,primal_res,dual_res,eps_pri,eps_dual,objective"
        assert len(lines) >= 2
        timing = (out / "timing.csv").read_text().splitlines()
        assert timing[0] == "iter,wall_ms"
    assert (out / "wall_s.txt").exists()


def test_reconstruct_deterministic_and_thread_invariant(bundle, tmp_path):
    a = cmd_reconstruct(bundle, "cadmm", tmp_path / "a", threads=1)
    b = cmd_reconstruct(bundle, "cadmm", tmp_path / "b", threads=2)
    for name in ("image.csv", "image.pgm", "convergence.csv", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    a = cmd_reconstruct(bundle, "composite", tmp_path / "ca", threads=1)
    b = cmd_reconstruct(bundle, "composite", tmp_path / "cb", threads=2)
    assert (a / "image.csv").read_bytes() == (b / "image.csv").read_bytes()


def test_failed_factorisation_exits_3(bundle, tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must not read as a config error
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(bundle), "--method", "cadmm",
                 "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_failed_export_leaves_no_bundle(bundle, tmp_path, capsys, monkeypatch):
    def full_disk(*_args, **_kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli.metrics, "export_image", full_disk)
    parent = tmp_path / "results"
    parent.mkdir()
    assert main(["reconstruct", "--config", str(bundle), "--method", "bp",
                 "--out", str(parent / "out")]) == 4
    assert "I/O error" in capsys.readouterr().err
    assert list(parent.iterdir()) == []


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_reconstruct_replaces_existing_bundle_only_when_complete(
        bundle, tmp_path, monkeypatch):
    out = tmp_path / "out"
    cmd_reconstruct(bundle, "bp", out)
    (out / "report.txt").write_text("old run\n")
    before = _snapshot(out)
    real_export = cli.metrics.export_image

    def full_disk(*_args, **_kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli.metrics, "export_image", full_disk)
    with pytest.raises(OSError):
        cmd_reconstruct(bundle, "bp", out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini",
                                                          "out"]
    assert _snapshot(out) == before
    monkeypatch.setattr(cli.metrics, "export_image", real_export)
    cmd_reconstruct(bundle, "bp", out)
    assert (out / "report.txt").read_text() != "old run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini",
                                                          "out"]


def test_reconstruct_failed_swap_restores_old_bundle(bundle, tmp_path,
                                                     monkeypatch):
    out = tmp_path / "out"
    cmd_reconstruct(bundle, "bp", out)
    before = _snapshot(out)
    real_rename = Path.rename

    def rename(self, target):
        if ".partial-" in self.name:
            raise OSError("rename failed")
        return real_rename(self, target)

    monkeypatch.setattr(Path, "rename", rename)
    with pytest.raises(OSError, match="rename failed"):
        cmd_reconstruct(bundle, "bp", out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini",
                                                          "out"]
    assert _snapshot(out) == before


@pytest.mark.parametrize("target", ["scenario", "foreign", "subdir", "file",
                                    "cwd"])
def test_reconstruct_refuses_to_replace_other_directories(
        bundle, tmp_path, capsys, monkeypatch, target):
    # replacing --out deletes it, so only an earlier result bundle or an
    # empty directory may be replaced, and the refusal comes before the solve
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli.solvers, "run", no_solve)
    out = {"scenario": bundle, "cwd": Path(".")}.get(target, tmp_path / "out")
    if target == "foreign":
        out.mkdir()
        (out / "manifest.txt").write_text("mine\n")
        (out / "notes.txt").write_text("keep me\n")
    elif target == "subdir":
        (out / "image.csv").mkdir(parents=True)
        (out / "manifest.txt").write_text("mine\n")
    elif target == "file":
        out.write_text("keep me\n")
    elif target == "cwd":
        monkeypatch.chdir(tmp_path)
    tree = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    data = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(["reconstruct", "--config", str(bundle), "--method", "cadmm",
                 "--out", str(out)]) == 2
    assert "refusing to replace" in capsys.readouterr().err
    assert sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob("*")) == tree
    assert all(p.read_bytes() == b for p, b in data.items())


def test_reconstruct_relative_out_into_empty_directory(bundle, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("out").mkdir()
    assert main(["reconstruct", "--config", str(bundle), "--method", "bp",
                 "--out", "out"]) == 0
    assert (tmp_path / "out" / "image.csv").exists()
    assert main(["reconstruct", "--config", str(bundle), "--method", "bp",
                 "--out", "sub/../out"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini",
                                                          "out"]


def _reconstruct_with_blas_threads(bundle, out, blas_threads, method):
    src = str(Path(distradar.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-m", "distradar.cli", "reconstruct",
                    "--config", str(bundle), "--method", method,
                    "--out", str(out)],
                   env=env, check=True, capture_output=True)
    report = dict(line.split(": ", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    return report, load_image_csv(out / "image.csv")


def test_reconstruct_across_blas_thread_counts(tmp_path):
    # LAPACK routines (the local solve's inv, composite's eigvalsh) may
    # differ in the last bits between BLAS thread counts once they are
    # large enough to be threaded (MW = 256 here), so this contract is a
    # tolerance, not byte identity: same termination, images within 1e-9
    # of their peak, and for ADMM the same iteration count
    path = tmp_path / "blas.ini"
    path.write_text(BASE_CONFIG.replace("nx = 8", "nx = 16")
                    .replace("ny = 8", "ny = 16")
                    .replace("apcs_per_cluster = 3", "apcs_per_cluster = 8")
                    .replace("freq_count = 4", "freq_count = 32"))
    bundle = cmd_simulate(path, tmp_path / "bundle")
    for method in ("cadmm", "composite"):
        report_1, image_1 = _reconstruct_with_blas_threads(
            bundle, tmp_path / f"{method}1", 1, method)
        report_2, image_2 = _reconstruct_with_blas_threads(
            bundle, tmp_path / f"{method}2", 2, method)
        if method == "cadmm":
            assert report_1["iterations"] == report_2["iterations"]
        assert (report_1["termination"] == report_2["termination"]
                == "converged")
        assert (np.max(np.abs(image_1 - image_2))
                <= 1e-9 * np.max(np.abs(image_1)))


def test_reconstruct_overrides(bundle, tmp_path):
    out = cmd_reconstruct(bundle, "cadmm", tmp_path / "o", beta=2.0, ratio=3.0,
                          max_iters=4)
    manifest = (out / "manifest.txt").read_text()
    assert "beta: 2.0" in manifest
    assert "lambda: 3.0" in manifest
    lines = (out / "convergence.csv").read_text().splitlines()
    assert len(lines) <= 5


@pytest.mark.parametrize("flag, value", [
    ("--beta", "-1"), ("--beta", "0"), ("--beta", "nan"), ("--ratio", "0"),
    ("--ratio", "-2"), ("--max-iters", "0"), ("--threads", "0"),
    ("--threads", "-3")])
def test_reconstruct_bad_override_exits_2_and_keeps_old_bundle(
        bundle, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    cmd_reconstruct(bundle, "bp", out)
    data = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(bundle), "--method", "cadmm",
                 "--out", str(out), flag, value]) == 2
    assert "config error" in capsys.readouterr().err
    assert {p: p.read_bytes()
            for p in tmp_path.rglob("*") if p.is_file()} == data


def test_sweep_rejects_bad_point_before_solving(bundle, tmp_path, capsys,
                                                monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before validating every sweep point")

    monkeypatch.setattr(cli.solvers, "run", no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5,-1", "--ratio", "5", "--out", str(out)]) == 2
    assert "beta" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_creates_missing_out_parent(bundle, tmp_path):
    out = tmp_path / "nodir" / "t.csv"
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5", "--ratio", "5", "--out", str(out)]) == 0
    assert out.exists() and out.with_name("t_best.txt").exists()


def test_sweep_out_directory_exits_2_before_solving(bundle, tmp_path, capsys,
                                                    monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("solved before checking --out")

    monkeypatch.setattr(cli.solvers, "run", no_solve)
    out = tmp_path / "table"
    out.mkdir()
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5", "--ratio", "5", "--out", str(out)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_reconstruct_unknown_method(bundle):
    with pytest.raises(ConfigError):
        cmd_reconstruct(bundle, "magic")


def test_sweep_outputs(bundle, tmp_path):
    out_path, rows = cmd_sweep(bundle, "cadmm", [2.0, 5.0], [5.0],
                               tmp_path / "sweep.csv")
    assert len(rows) == 2
    lines = out_path.read_text().splitlines()
    assert lines[0] == "beta,ratio,sparsity,entropy,iterations,termination,wall_s"
    assert len(lines) == 3
    best = out_path.with_name("sweep_best.txt")
    assert best.exists()
    with pytest.raises(ConfigError):
        cmd_sweep(bundle, "cadmm", [], [1.0])
    with pytest.raises(ValueError, match="unknown method"):
        cmd_sweep(bundle, "bogus", [2.0], [5.0], tmp_path / "bogus.csv")


def test_metrics_command(bundle, config_file):
    out = cmd_reconstruct(bundle, "bp")
    report = cmd_metrics(out / "image.csv", config_file,
                         bundle / "truth_support.csv")
    assert set(report) == {"entropy_bits", "sparsity", "precision", "recall",
                           "f1"}
    plain = cmd_metrics(out / "image.csv")
    assert set(plain) == {"entropy_bits", "sparsity"}


def test_main_exit_codes(config_file, tmp_path, capsys):
    bundle_dir = tmp_path / "b"
    assert main(["simulate", "--config", str(config_file),
                 "--out", str(bundle_dir)]) == 0
    assert "bundle written" in capsys.readouterr().out
    assert main(["reconstruct", "--config", str(bundle_dir),
                 "--method", "bp"]) == 0
    capsys.readouterr()
    # config error
    bad = tmp_path / "bad.ini"
    bad.write_text(BASE_CONFIG.replace("nx = 8", "nx = eight"))
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    # I/O error: missing config file
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 4
    assert "I/O error" in capsys.readouterr().err
    # numerical failure: corrupt a measurement with NaN
    text = (bundle_dir / "meas_q00.csv").read_text().splitlines()
    text[1] = "0,nan,nan"
    (bundle_dir / "meas_q00.csv").write_text("\n".join(text) + "\n")
    assert main(["reconstruct", "--config", str(bundle_dir),
                 "--method", "cadmm"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fvfb", "fvlb", "lvlb"])
def test_shipped_presets_parse(name):
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.ini"
    cfg = load_config(path)
    scn = build_scenario(cfg)
    assert cfg.grid.nx == 64
    assert len(scn.scatterers) == 10


def test_main_metrics_prints_report(bundle, capsys):
    out = cmd_reconstruct(bundle, "bp")
    capsys.readouterr()
    assert main(["metrics", "--image", str(out / "image.csv"),
                 "--truth", str(bundle / "truth_support.csv")]) == 0
    printed = capsys.readouterr().out
    assert "entropy_bits:" in printed and "f1:" in printed


@pytest.mark.parametrize("text, message", [
    ("", "no pixel rows"),
    ("1,2,3\n4,5\n", "unequal length"),
    ("1,2\nnan,0\n", "non-finite"),
    ("1,inf\n0,1\n", "non-finite"),
    ("1,x\n0,1\n", "could not convert"),
], ids=["empty", "ragged", "nan", "inf", "not_a_number"])
def test_metrics_bad_image_csv_exits_2(tmp_path, capsys, recwarn, text,
                                       message):
    path = tmp_path / "bad_image.csv"
    path.write_text(text)
    assert main(["metrics", "--image", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad_image.csv" in err and message in err
    assert not recwarn.list


def test_metrics_bad_truth_file_exits_2(bundle, tmp_path, capsys):
    out = cmd_reconstruct(bundle, "bp")
    truth = tmp_path / "truth.csv"
    # an empty file, then indices outside the 64-pixel image: refused, not
    # scored as misses
    for text in ("", "pixel_index\n999\n", "pixel_index\n-3\n"):
        truth.write_text(text)
        capsys.readouterr()
        assert main(["metrics", "--image", str(out / "image.csv"),
                     "--truth", str(truth)]) == 2
        assert "truth.csv" in capsys.readouterr().err
