import csv
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
from distradar.simulate import rasterize_scene

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


@pytest.mark.parametrize("key", ["num_scatterers = 10", "amplitude = 2.0",
                                 "random_phase = true",
                                 "visibility_width_deg = 90.0",
                                 "margin = 0.2"])
def test_scatterers_with_random_scene_keys_exits_2(tmp_path, capsys, key):
    # an explicit scatterer list leaves the random-scene keys unused, so a
    # config that sets both is refused rather than half ignored
    path = tmp_path / "c.ini"
    path.write_text(BASE_CONFIG.replace(
        "num_scatterers = 3\namplitude = 1.0\nmargin = 0.2",
        f"scatterers =\n    0.5 -0.5 2.0 90.0 0.0 360.0\n{key}"))
    out = tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "scatterers" in err and key.split(" = ")[0] in err
    assert not out.exists()


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
    # nor the result and sweep bundles written into it by default
    three = tmp_path / "three.ini"
    three.write_text(BASE_CONFIG.replace("q_count = 2", "q_count = 3"))
    out = tmp_path / "bundle"
    cmd_simulate(three, out)
    cmd_reconstruct(out, "bp")
    cmd_sweep(out, "cadmm", [5.0], [5.0])
    cmd_sweep(out, "sadmm", [5.0], [5.0])
    assert {"meas_q02.csv", "recon_bp", "sweep_cadmm", "sweep_sadmm"} <= {
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
                                    "file", "cwd", "legacy_sweep_table"])
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
    elif target == "legacy_sweep_table":
        # the loose table that sweep wrote into a bundle before it wrote
        # sweep bundles
        out = bundle
        (out / "sweep_cadmm.csv").write_text("beta,ratio\n")
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


def _csv_module_complex_csv(path, values, indices):
    # the writer that the bundle files were first written with, row by row
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "real", "imag"])
        for i in indices.tolist():
            writer.writerow([i, f"{values[i].real:.17g}",
                             f"{values[i].imag:.17g}"])


def test_complex_csv_writer_matches_csv_module(tmp_path):
    values = np.array([complex(-0.0, 5e-324), complex(1e308, -1e308),
                       complex(3.0, -0.0), complex(2.0 ** 53, 0.1), 0j,
                       complex(-5e-324, 1 / 3), complex(-7.0, 1e-308)])
    for indices in (np.arange(values.size), np.flatnonzero(values),
                    np.array([], dtype=int)):
        cli._write_complex_csv(tmp_path / "new.csv", values, indices)
        _csv_module_complex_csv(tmp_path / "old.csv", values, indices)
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())


def _read_truth_file(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "real", "imag"]
    return ([int(i) for i, _, _ in rows[1:]],
            [complex(float(r), float(im)) for _, r, im in rows[1:]])


def test_truth_files_list_the_nonzero_pixels(tmp_path):
    # both scatterers face cluster 0 only, so cluster 1 sees an empty scene
    path = tmp_path / "c.ini"
    path.write_text(BASE_CONFIG.replace(
        "num_scatterers = 3\namplitude = 1.0\nmargin = 0.2",
        "scatterers =\n    0.5 -0.5 2.0 90.0 0.0 90.0\n"
        "    -1.0 1.0 1.0 30.0 0.0 90.0").replace("snr_db = 20.0",
                                                 "snr_db = inf"))
    out = cmd_simulate(path, tmp_path / "b")
    scenario = build_scenario(load_config(path))
    support = set()
    for q in range(2):
        raster = rasterize_scene(scenario, q)
        nonzero = np.flatnonzero(raster)
        indices, values = _read_truth_file(out / f"truth_q{q:02d}.csv")
        assert indices == nonzero.tolist()
        assert values == raster[nonzero].tolist()
        # expanded by index, the file is the raster
        dense = np.zeros(scenario.grid.n_pixels, dtype=complex)
        dense[indices] = values
        np.testing.assert_array_equal(dense, raster)
        support.update(indices)
    assert len(support) == 2
    assert (out / "truth_q01.csv").read_bytes() == b"index,real,imag\r\n"
    assert (out / "truth_support.csv").read_text().split() == [
        "pixel_index"] + [str(i) for i in sorted(support)]


def test_simulate_rasterizes_each_cluster_once(config_file, tmp_path,
                                                monkeypatch):
    calls = []
    real = cli.simulate.rasterize_scene

    def counting(scenario, cluster_id):
        calls.append(cluster_id)
        return real(scenario, cluster_id)

    monkeypatch.setattr(cli.simulate, "rasterize_scene", counting)
    cmd_simulate(config_file, tmp_path / "b")
    assert calls == [0, 1]


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
    ("extra_field", 2),  # a row of four fields
    ("swapped_rows", 2),  # samples out of index order
    ("no_header", 2),  # the rows without their header line
    ("wrong_header", 2),
    ("blank_line", 2),  # an extra blank line between two rows
    ("not_a_number", 2),
    ("not_utf8", 2),  # a byte that is not UTF-8 after the last row
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
    elif corruption == "swapped_rows":
        lines[1], lines[2] = lines[2], lines[1]
    elif corruption == "no_header":
        lines = lines[1:]
    elif corruption == "wrong_header":
        lines[0] = "index,re,im"
    elif corruption == "blank_line":
        lines.insert(2, "")
    elif corruption == "not_a_number":
        lines[2] = "1,x,0"
    elif corruption == "cut_row":
        lines[-1] = lines[-1].rsplit(",", 1)[0]
    elif corruption == "extra_field":
        lines[2] += ",0"
    path.write_text("".join(line + "\n" for line in lines))
    if corruption == "not_utf8":
        path.write_bytes(path.read_bytes() + b"\xff\n")
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(bundle), "--method", method,
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "meas_q01.csv" in err
    if corruption == "cut_row":
        assert f"line {len(lines)} has 2 fields" in err
    elif corruption == "extra_field":
        assert "line 3 has 4 fields" in err
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


@pytest.mark.parametrize("method, flag, value", [
    ("bp", "--beta", "3"), ("bp", "--ratio", "7"), ("bp", "--max-iters", "2"),
    ("bp", "--threads", "2"), ("composite", "--beta", "3"),
    ("composite", "--max-iters", "2")])
def test_reconstruct_refuses_overrides_the_method_ignores(
        bundle, tmp_path, capsys, monkeypatch, method, flag, value):
    # bp solves nothing on no pool and composite has no beta or outer loop,
    # so these overrides would be ignored or only echoed into manifest.txt
    def no_load(*_args, **_kwargs):
        raise AssertionError("loaded the bundle before checking overrides")

    monkeypatch.setattr(cli, "load_bundle", no_load)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(bundle), "--method", method,
                 "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"--method {method} does not use {flag}" in err
    assert not out.exists()


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


_SWEEP_BUNDLE = ["best.txt", "manifest.txt", "sweep.csv", "timing.csv"]


def test_sweep_creates_missing_out_parent(bundle, tmp_path):
    out = tmp_path / "nodir" / "sweep"
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5", "--ratio", "5", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == _SWEEP_BUNDLE


def _no_solve(*_args, **_kwargs):
    raise AssertionError("solved before checking --out")


def test_sweep_out_directory_exits_2_before_solving(bundle, tmp_path, capsys,
                                                    monkeypatch):
    # a directory holding a file that is not part of a sweep bundle
    monkeypatch.setattr(cli.solvers, "run", _no_solve)
    out = tmp_path / "table"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5", "--ratio", "5", "--out", str(out)]) == 2
    assert "refusing to replace" in capsys.readouterr().err
    assert _snapshot(out) == {"notes.txt": b"keep me\n"}


@pytest.mark.parametrize("target", ["measurements", "file", "result",
                                    "scenario", "cwd"])
def test_sweep_refuses_to_replace_other_paths(bundle, tmp_path, capsys,
                                              monkeypatch, target):
    # --out names a sweep bundle that replaces it whole, so anything but an
    # absent path, an empty directory or an earlier sweep bundle is refused
    # before the first solve, and the tree is left as it was
    cmd_reconstruct(bundle, "cadmm")
    out = {"measurements": bundle / "meas_q00.csv",
           "file": tmp_path / "table.csv", "result": bundle / "recon_cadmm",
           "scenario": bundle, "cwd": Path(".")}[target]
    if target == "file":
        out.write_text("keep me\n")
    elif target == "cwd":
        monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.solvers, "run", _no_solve)
    tree = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    data = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5", "--ratio", "5", "--out", str(out)]) == 2
    assert "refusing to replace" in capsys.readouterr().err
    assert sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob("*")) == tree
    assert all(p.read_bytes() == b for p, b in data.items())


def test_sweep_replaces_an_earlier_sweep_bundle_whole(bundle, tmp_path):
    out = tmp_path / "sweep"
    cmd_sweep(bundle, "cadmm", [2.0, 5.0], [5.0], out)
    (out / "best.txt").unlink()
    (out / "sweep.csv").write_text("old\n")
    assert cmd_sweep(bundle, "cadmm", [5.0], [5.0], out)[0] == out
    assert sorted(p.name for p in out.iterdir()) == _SWEEP_BUNDLE
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("5.0,5.0,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini",
                                                          "sweep"]


def test_sweep_failed_write_keeps_old_bundle(bundle, tmp_path, capsys,
                                             monkeypatch):
    out = tmp_path / "sweep"
    cmd_sweep(bundle, "cadmm", [2.0], [5.0], out)
    before = _snapshot(out)
    real_write_text = Path.write_text

    def write_text(self, *args, **kwargs):
        if self.name == "best.txt":
            raise OSError("No space left on device")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    assert main(["sweep", "--config", str(bundle), "--method", "cadmm",
                 "--beta", "5", "--ratio", "5", "--out", str(out)]) == 4
    assert "I/O error" in capsys.readouterr().err
    assert _snapshot(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "exp.ini",
                                                          "sweep"]


def test_sweep_never_picks_an_empty_image(bundle, tmp_path):
    # a ratio this large zeroes the image, whose entropy is the lowest there
    # is; the pick is the nonempty image all the same
    out, rows = cmd_sweep(bundle, "cadmm", [5.0], [5.0, 1e5], tmp_path / "s")
    assert [r["sparsity"] > 0 for r in rows] == [True, False]
    assert rows[1]["entropy"] < rows[0]["entropy"]
    best = (out / "best.txt").read_text()
    assert best.startswith("beta: 5.0\nratio: 5.0\n")
    out, _ = cmd_sweep(bundle, "cadmm", [5.0], [1e5], tmp_path / "s")
    assert (out / "best.txt").read_text() == (
        "no sweep point with sparsity above 0\n")
    # the empty image's report gives its entropy as +0
    result = cmd_reconstruct(bundle, "cadmm", tmp_path / "r", ratio=1e5)
    assert "entropy_bits: 0.000000\nsparsity: 0.000000\n" in (
        result / "report.txt").read_text()


def test_reconstruct_unknown_method(bundle):
    with pytest.raises(ConfigError):
        cmd_reconstruct(bundle, "magic")


def test_sweep_outputs(bundle, tmp_path):
    out, rows = cmd_sweep(bundle, "cadmm", [2.0, 5.0], [5.0],
                          tmp_path / "sweep")
    assert len(rows) == 2
    assert sorted(p.name for p in out.iterdir()) == _SWEEP_BUNDLE
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "beta,ratio,sparsity,entropy,iterations,termination"
    assert len(lines) == 3
    # the wall times are in timing.csv, one row per sweep.csv row
    timing = (out / "timing.csv").read_text().splitlines()
    assert timing[0] == "beta,ratio,wall_s"
    assert [t.rsplit(",", 1)[0] for t in timing[1:]] == ["2.0,5.0", "5.0,5.0"]
    assert all(float(t.rsplit(",", 1)[1]) >= 0 for t in timing[1:])
    assert (out / "best.txt").read_text().startswith("beta: ")
    # the manifest opens with the provenance lines of the scenario's own
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest[:2] == (bundle / "manifest.txt").read_text().splitlines()[:2]
    assert manifest[2:] == [f"bundle: {bundle}", "method: cadmm", "seed: 5"]
    # by default the sweep bundle goes into the scenario bundle
    assert cmd_sweep(bundle, "cadmm", [5.0], [5.0])[0] == bundle / "sweep_cadmm"
    with pytest.raises(ConfigError):
        cmd_sweep(bundle, "cadmm", [], [1.0])
    with pytest.raises(ValueError, match="unknown method"):
        cmd_sweep(bundle, "bogus", [2.0], [5.0], tmp_path / "bogus")
    assert not (tmp_path / "bogus").exists()


def test_sweep_bundle_is_reproducible(bundle, tmp_path):
    a, _ = cmd_sweep(bundle, "cadmm", [2.0, 5.0], [5.0, 50.0], tmp_path / "a")
    b, _ = cmd_sweep(bundle, "cadmm", [2.0, 5.0], [5.0, 50.0], tmp_path / "b")
    for name in ("sweep.csv", "best.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


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
    # an empty file, indices without their header, indices outside the
    # 64-pixel image, then a row of three fields: refused, not scored as
    # misses
    for text in ("", "3\n5\n", "pixel_index\n999\n", "pixel_index\n-3\n",
                 "pixel_index\n3,junk,7\n"):
        truth.write_text(text)
        capsys.readouterr()
        assert main(["metrics", "--image", str(out / "image.csv"),
                     "--truth", str(truth)]) == 2
        assert "truth.csv" in capsys.readouterr().err


def test_metrics_reads_image_csv_with_trailing_blank_lines(bundle, capsys):
    out = cmd_reconstruct(bundle, "bp")
    image = out / "image.csv"
    expected = cmd_metrics(image)
    image.write_text(image.read_text() + "\n\n")
    capsys.readouterr()
    assert main(["metrics", "--image", str(image)]) == 0
    assert capsys.readouterr().out == "".join(
        f"{key}: {value}\n" for key, value in expected.items())


def test_metrics_agrees_with_report_on_an_empty_truth(tmp_path, capsys):
    # the only scatterer faces 90 degrees, away from both clusters (at 0 and
    # 180 degrees), so no cluster sees it and truth_support.csv holds its
    # header alone; report.txt and `metrics --truth` then both score
    # without F1
    path = tmp_path / "c.ini"
    path.write_text(BASE_CONFIG.replace(
        "num_scatterers = 3\namplitude = 1.0\nmargin = 0.2",
        "scatterers =\n    0.5 -0.5 1.0 0.0 90.0 10.0").replace(
            "snr_db = 20.0", "snr_db = inf"))
    bundle = cmd_simulate(path, tmp_path / "b")
    truth = bundle / "truth_support.csv"
    assert truth.read_bytes() == b"pixel_index\r\n"
    out = cmd_reconstruct(bundle, "bp")
    capsys.readouterr()
    assert main(["metrics", "--image", str(out / "image.csv"), "--config",
                 str(bundle / "config.ini"), "--truth", str(truth)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert report[3:] == capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in report[3:]] == ["entropy_bits",
                                                           "sparsity"]
