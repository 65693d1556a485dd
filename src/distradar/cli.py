"""Experiment driver: simulate, reconstruct, sweep, metrics.

Configs are plain INI files (key = value with sections); unknown keys are
a hard error so typos cannot silently change an experiment. Scenario
bundles and result bundles are directories of diffable text files, and
identical config + seed always reproduces identical bytes.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

import argparse
import configparser
import csv
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics, model, orchestrate, simulate, solvers

DEG = math.pi / 180.0


class ConfigError(ValueError):
    pass


_SECTION_KEYS = {
    "scene": {"nx", "ny", "extent_x", "extent_y", "plane_height", "seed",
              "scatterers", "num_scatterers", "amplitude", "random_phase",
              "visibility_width_deg", "margin"},
    "sensing": {"q_count", "cluster_width_deg", "apcs_per_cluster",
                "freq_center_hz", "bandwidth_hz", "freq_count",
                "elevation_deg", "snr_db"},
    "solver": {"mu", "lambda", "beta", "eps_abs", "eps_rel",
               "max_outer_iters"},
    "metrics": {"dynamic_range_db", "gray_levels", "sparsity_threshold",
                "f1_threshold", "match_radius_px", "sparsity_window_min",
                "sparsity_window_max"},
    "output": {"directory", "formats"},
}


@dataclass
class ExperimentConfig:
    grid: model.SceneGrid
    seed: int
    scatterer_spec: dict  # explicit list or random-scene parameters
    sensing: dict
    solver: solvers.SolverConfig
    entropy_cfg: metrics.EntropyConfig
    sparsity_threshold: float
    f1_threshold: float
    match_radius_px: int
    sparsity_window: tuple
    out_dir: str
    formats: list
    raw_text: str


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from exc


def _parse_snr(text):
    if text.strip().lower() in ("inf", "+inf", "none", "noiseless"):
        return math.inf
    return float(text)


def _parse_scatterer_lines(text):
    scatterers = []
    for lineno, line in enumerate(text.strip().splitlines(), 1):
        parts = line.split()
        if len(parts) != 6:
            raise ConfigError(
                f"scatterer line {lineno}: expected 6 fields "
                "(x y amplitude phase_deg vis_center_deg vis_width_deg)")
        x, y, amp, phase, center, width = (float(p) for p in parts)
        scatterers.append(simulate.Scatterer(
            (x, y), amp, phase * DEG, center * DEG, width * DEG))
    return scatterers


def load_config(path):
    """Parse and validate an experiment config file."""
    path = Path(path)
    try:
        raw_text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(raw_text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {sorted(unknown)}")
    for required in ("scene", "sensing"):
        if required not in parser:
            raise ConfigError(f"{path}: missing section [{required}]")
    try:
        scene = parser["scene"]
        grid = model.SceneGrid(
            nx=_get(scene, "nx", int, required=True),
            ny=_get(scene, "ny", int, required=True),
            extent_x=_get(scene, "extent_x", float, required=True),
            extent_y=_get(scene, "extent_y", float, required=True),
            plane_height=_get(scene, "plane_height", float, 0.0),
        )
        seed = _get(scene, "seed", int, 0)
        if "scatterers" in scene:
            spec = {"explicit": _parse_scatterer_lines(scene["scatterers"])}
        else:
            spec = {
                "num": _get(scene, "num_scatterers", int, required=True),
                "amplitude": _get(scene, "amplitude", float, 1.0),
                "random_phase": _get(scene, "random_phase",
                                     lambda s: s.lower() == "true", False),
                "visibility_width": _get(scene, "visibility_width_deg",
                                         float, 360.0) * DEG,
                "margin": _get(scene, "margin", float, 0.1),
            }
        sensing_sec = parser["sensing"]
        sensing = {
            "q_count": _get(sensing_sec, "q_count", int, required=True),
            "cluster_width": _get(sensing_sec, "cluster_width_deg", float,
                                  required=True) * DEG,
            "apcs_per_cluster": _get(sensing_sec, "apcs_per_cluster", int,
                                     required=True),
            "freq_center": _get(sensing_sec, "freq_center_hz", float,
                                required=True),
            "bandwidth": _get(sensing_sec, "bandwidth_hz", float, required=True),
            "freq_count": _get(sensing_sec, "freq_count", int, required=True),
            "elevation": _get(sensing_sec, "elevation_deg", float, 30.0) * DEG,
            "snr_db": _get(sensing_sec, "snr_db", _parse_snr, math.inf),
        }
        solver_sec = parser["solver"] if "solver" in parser else {}
        solver_cfg = solvers.SolverConfig(
            mu=_get(solver_sec, "mu", float, 1.0),
            lam=_get(solver_sec, "lambda", float, 1.0),
            beta=_get(solver_sec, "beta", float, 1.0),
            eps_abs=_get(solver_sec, "eps_abs", float, 1e-2),
            eps_rel=_get(solver_sec, "eps_rel", float, 1e-2),
            max_outer_iters=_get(solver_sec, "max_outer_iters", int, 100),
        )
        metrics_sec = parser["metrics"] if "metrics" in parser else {}
        entropy_cfg = metrics.EntropyConfig(
            dynamic_range_db=_get(metrics_sec, "dynamic_range_db", float, 50.0),
            gray_levels=_get(metrics_sec, "gray_levels", int, 256),
        )
        sparsity_threshold = _get(metrics_sec, "sparsity_threshold", float, 1e-3)
        f1_threshold = _get(metrics_sec, "f1_threshold", float, 0.1)
        match_radius = _get(metrics_sec, "match_radius_px", int, 1)
        window = (_get(metrics_sec, "sparsity_window_min", float, 0.0),
                  _get(metrics_sec, "sparsity_window_max", float, 1.0))
        output_sec = parser["output"] if "output" in parser else {}
        out_dir = _get(output_sec, "directory", str, "out")
        formats = [f.strip() for f in
                   _get(output_sec, "formats", str, "pgm,csv").split(",")]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig(grid, seed, spec, sensing, solver_cfg, entropy_cfg,
                            sparsity_threshold, f1_threshold, match_radius,
                            window, out_dir, formats, raw_text)


def build_scenario(cfg):
    """Materialize the SimScenario described by a parsed config."""
    clusters = simulate.make_uniform_clusters(
        cfg.sensing["q_count"], cfg.sensing["cluster_width"],
        cfg.sensing["apcs_per_cluster"], cfg.sensing["elevation"],
        cfg.sensing["freq_center"], cfg.sensing["bandwidth"],
        cfg.sensing["freq_count"])
    if "explicit" in cfg.scatterer_spec:
        scatterers = cfg.scatterer_spec["explicit"]
    else:
        spec = cfg.scatterer_spec
        rng = simulate.scene_rng(cfg.seed)
        hx = cfg.grid.extent_x / 2 * (1 - spec["margin"])
        hy = cfg.grid.extent_y / 2 * (1 - spec["margin"])
        scatterers = []
        for _ in range(spec["num"]):
            x = rng.uniform(-hx, hx)
            y = rng.uniform(-hy, hy)
            phase = rng.uniform(0, 2 * math.pi) if spec["random_phase"] else 0.0
            center = rng.uniform(0, 2 * math.pi)
            scatterers.append(simulate.Scatterer(
                (x, y), spec["amplitude"], phase, center,
                spec["visibility_width"]))
    try:
        return simulate.SimScenario(cfg.grid, clusters, scatterers,
                                    cfg.sensing["snr_db"], cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_complex_csv(path, vec):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "real", "imag"])
        for i, v in enumerate(vec):
            writer.writerow([i, f"{v.real:.17g}", f"{v.imag:.17g}"])


def _read_complex_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["index", "real", "imag"]:
            raise ConfigError(f"{path}: unexpected header {header}")
        try:
            values = [complex(float(r), float(im)) for _, r, im in reader]
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row: {exc}") from exc
    return np.array(values)


def cmd_simulate(config_path, out_dir=None, seed=None):
    """Write a scenario bundle: truth, measurements, manifest, config echo."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    scenario = build_scenario(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    histories = simulate.synthesize_measurements(scenario)
    truth_support = set()
    for q in range(len(scenario.clusters)):
        truth = simulate.rasterize_scene(scenario, q)
        truth_support.update(np.flatnonzero(truth).tolist())
        _write_complex_csv(out / f"truth_q{q:02d}.csv", truth)
        _write_complex_csv(out / f"meas_q{q:02d}.csv", histories[q].data)
    with open(out / "truth_support.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pixel_index"])
        for idx in sorted(truth_support):
            writer.writerow([idx])
    if seed is None:
        config_text = cfg.raw_text
    else:
        # re-emit with the effective seed so the bundle is self-describing
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(cfg.raw_text)
        parser["scene"]["seed"] = str(seed)
        import io
        buf = io.StringIO()
        parser.write(buf)
        config_text = buf.getvalue()
    (out / "config.ini").write_text(config_text)
    lines = [
        f"distradar_version: {__version__}",
        f"numpy_version: {np.__version__}",
        f"seed: {cfg.seed}",
        f"q_count: {len(scenario.clusters)}",
        f"n_pixels: {scenario.grid.n_pixels}",
        f"requested_snr_db: {scenario.snr_db}",
    ]
    for h in histories:
        lines.append(f"cluster_{h.cluster_id:02d}_noise_norm: {h.noise_norm:.17g}")
        lines.append(f"cluster_{h.cluster_id:02d}_realized_snr_db: {h.snr_db}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    return out


def load_bundle(bundle_path):
    """Read a scenario bundle back into (config, operators, measurements, truth)."""
    bundle = Path(bundle_path)
    if not (bundle / "config.ini").exists():
        raise ConfigError(f"{bundle}: not a scenario bundle (no config.ini)")
    cfg = load_config(bundle / "config.ini")
    scenario = build_scenario(cfg)
    operators = [model.make_operator(cfg.grid, c) for c in scenario.clusters]
    measurements = []
    for q, op in enumerate(operators):
        path = bundle / f"meas_q{q:02d}.csv"
        if not path.exists():
            raise ConfigError(f"{bundle}: incomplete bundle, missing {path.name}")
        y = _read_complex_csv(path)
        if y.size != op.n_measurements:
            raise ConfigError(f"{path}: {y.size} samples, expected "
                              f"{op.n_measurements} (freqs x APCs)")
        if not np.all(np.isfinite(y)):
            raise solvers.NumericalError(f"{path}: non-finite sample")
        measurements.append(y)
    truth_path = bundle / "truth_support.csv"
    truth_support = []
    if truth_path.exists():
        with open(truth_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            truth_support = [int(row[0]) for row in reader]
    return cfg, operators, measurements, truth_support


def _fold_phase_matrices(operators, measurements):
    return [op.with_phase_matrix(model.estimate_phase_matrix(op, y))
            for op, y in zip(operators, measurements)]


def cmd_reconstruct(bundle_path, method, out_dir=None, beta=None, ratio=None,
                    max_iters=None, threads=1):
    """Run one reconstruction method on a bundle and write a result bundle."""
    out = Path(os.path.abspath(out_dir if out_dir is not None else
                               Path(bundle_path) / f"recon_{method}"))
    _check_replaceable(out)
    cfg, operators, measurements, truth_support = load_bundle(bundle_path)
    solver_cfg = cfg.solver
    if beta is not None:
        solver_cfg.beta = beta
    if ratio is not None:
        solver_cfg.lam = ratio * solver_cfg.mu
    if max_iters is not None:
        solver_cfg.max_outer_iters = max_iters
    t_start = time.perf_counter()
    result = None
    if method in (solvers.CADMM, solvers.SADMM):
        folded = _fold_phase_matrices(operators, measurements)
        result = solvers.run(method, folded, measurements, solver_cfg,
                             threads=threads)
        image = result.state.global_image
        termination = result.termination
    elif method == "bp":
        image = model.backprojection_image(operators, measurements)
        termination = "n/a"
    elif method == "composite":
        folded = _fold_phase_matrices(operators, measurements)
        image = solvers.composite_baseline(folded, measurements, solver_cfg.lam,
                                           max_iters=1000, threads=threads)
        termination = "n/a"
    else:
        raise ConfigError(f"unknown method {method!r}")
    wall_s = time.perf_counter() - t_start
    # the bundle is written into a temporary sibling and renamed into place
    # once complete, so a failed solve or export leaves neither a partial
    # bundle nor a half-replaced old one
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.partial-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        _write_result(tmp, bundle_path, method, cfg, solver_cfg, image,
                      termination, result, truth_support, wall_s)
        _check_replaceable(out)  # again: it may have appeared since
        if out.exists():
            old = out.with_name(f".{out.name}.old-{os.getpid()}")
            shutil.rmtree(old, ignore_errors=True)
            out.rename(old)
            try:
                tmp.rename(out)
            except OSError:
                old.rename(out)
                raise
            # the new bundle is in place; a leftover old copy is no failure
            shutil.rmtree(old, ignore_errors=True)
        else:
            tmp.rename(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


_RESULT_FILES = frozenset({"image.csv", "image.pgm", "wall_s.txt",
                           "convergence.csv", "timing.csv", "report.txt",
                           "manifest.txt"})


def _check_replaceable(out):
    """Raise ConfigError unless `out` (absolute) is absent, an empty
    directory or an earlier result bundle, since replacing it deletes it."""
    if not out.name:
        raise ConfigError(f"--out {out} names no directory")
    if not (out.exists() or out.is_symlink()):
        return
    cwd = Path.cwd()
    if out.is_symlink() or not out.is_dir() or out == cwd or out in cwd.parents:
        raise ConfigError(f"refusing to replace {out}: not a result bundle "
                          "directory")
    entries = list(out.iterdir())
    names = {p.name for p in entries}
    if entries and ("manifest.txt" not in names or not names <= _RESULT_FILES
                    or not all(p.is_file() for p in entries)):
        raise ConfigError(f"refusing to replace {out}: it holds files that "
                          "are not part of a result bundle")


def _write_result(out, bundle_path, method, cfg, solver_cfg, image,
                  termination, result, truth_support, wall_s):
    if "csv" in cfg.formats:
        metrics.export_image(image, cfg.grid, out / "image.csv", "csv")
    if "pgm" in cfg.formats:
        metrics.export_image(image, cfg.grid, out / "image.pgm", "pgm",
                             cfg.entropy_cfg)
    # wall times live in timing files so convergence.csv, report.txt, and
    # the images are run-to-run reproducible byte for byte
    (out / "wall_s.txt").write_text(f"{wall_s:.3f}\n")
    if result is not None:
        with open(out / "convergence.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "primal_res", "dual_res", "eps_pri",
                             "eps_dual", "objective"])
            for rec, obj in zip(result.state.residual_log,
                                result.objective_history):
                writer.writerow([rec.iteration, f"{rec.primal_norm:.17g}",
                                 f"{rec.dual_norm:.17g}", f"{rec.eps_pri:.17g}",
                                 f"{rec.eps_dual:.17g}", f"{obj:.17g}"])
        with open(out / "timing.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "wall_ms"])
            for rec in result.state.residual_log:
                writer.writerow([rec.iteration, f"{rec.wall_ms:.3f}"])
    entropy = metrics.image_entropy(image, cfg.entropy_cfg)
    sparsity = metrics.normalized_sparsity(image, cfg.sparsity_threshold)
    report = [
        f"method: {method}",
        f"termination: {termination}",
        f"iterations: {result.state.iter if result is not None else 0}",
        f"entropy_bits: {entropy:.6f}",
        f"sparsity: {sparsity:.6f}",
    ]
    if truth_support:
        precision, recall, f1 = metrics.support_f1(
            image, truth_support, cfg.grid.nx, cfg.f1_threshold,
            cfg.match_radius_px)
        report += [f"precision: {precision:.6f}", f"recall: {recall:.6f}",
                   f"f1: {f1:.6f}"]
    (out / "report.txt").write_text("\n".join(report) + "\n")
    manifest = [
        f"distradar_version: {__version__}",
        f"numpy_version: {np.__version__}",
        f"bundle: {bundle_path}",
        f"method: {method}",
        f"beta: {solver_cfg.beta}",
        f"lambda: {solver_cfg.lam}",
        f"mu: {solver_cfg.mu}",
        f"max_outer_iters: {solver_cfg.max_outer_iters}",
        f"seed: {cfg.seed}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")


def cmd_sweep(bundle_path, method, beta_list, ratio_list, out_path=None):
    """Grid sweep over (beta, lambda/mu); emits a table and the pick.

    The pick is the lowest-entropy row whose sparsity falls inside the
    configured sparsity window.
    """
    if not beta_list or not ratio_list:
        raise ConfigError("sweep requires non-empty beta and ratio lists")
    cfg, operators, measurements, _ = load_bundle(bundle_path)
    folded = _fold_phase_matrices(operators, measurements)
    out_path = Path(out_path if out_path is not None else
                    Path(bundle_path) / f"sweep_{method}.csv")
    rows = []
    for beta in beta_list:
        for ratio in ratio_list:
            solver_cfg = replace(cfg.solver, beta=beta,
                                 lam=ratio * cfg.solver.mu)
            t0 = time.perf_counter()
            result = solvers.run(method, folded, measurements, solver_cfg)
            wall_s = time.perf_counter() - t0
            image = result.state.global_image
            rows.append({
                "beta": beta,
                "ratio": ratio,
                "sparsity": metrics.normalized_sparsity(
                    image, cfg.sparsity_threshold),
                "entropy": metrics.image_entropy(image, cfg.entropy_cfg),
                "iterations": result.state.iter,
                "termination": result.termination,
                "wall_s": wall_s,
            })
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    lo, hi = cfg.sparsity_window
    eligible = [r for r in rows if lo <= r["sparsity"] <= hi]
    best_path = out_path.with_name(out_path.stem + "_best.txt")
    if eligible:
        best = min(eligible, key=lambda r: r["entropy"])
        best_path.write_text(
            "\n".join(f"{k}: {v}" for k, v in best.items()) + "\n")
    else:
        best_path.write_text(
            f"no sweep point inside sparsity window [{lo}, {hi}]\n")
    return out_path, rows


def cmd_metrics(image_path, config_path=None, truth_path=None):
    """Print entropy/sparsity (and F1 when truth is given) for an image CSV."""
    if config_path is not None:
        cfg = load_config(config_path)
        entropy_cfg = cfg.entropy_cfg
        sparsity_threshold = cfg.sparsity_threshold
        f1_threshold = cfg.f1_threshold
        match_radius = cfg.match_radius_px
    else:
        entropy_cfg = metrics.EntropyConfig()
        sparsity_threshold = 1e-3
        f1_threshold = 0.1
        match_radius = 1
    with open(image_path, newline="") as fh:
        first_row = next(csv.reader(fh))
    nx = len(first_row)
    image = metrics.load_image_csv(image_path)
    report = {
        "entropy_bits": f"{metrics.image_entropy(image, entropy_cfg):.6f}",
        "sparsity": f"{metrics.normalized_sparsity(image, sparsity_threshold):.6f}",
    }
    if truth_path is not None:
        with open(truth_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            truth = [int(row[0]) for row in reader]
        precision, recall, f1 = metrics.support_f1(
            image, truth, nx, f1_threshold, match_radius)
        report["precision"] = f"{precision:.6f}"
        report["recall"] = f"{recall:.6f}"
        report["f1"] = f"{f1:.6f}"
    return report


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distradar",
        description="Distributed radar imaging with consensus/sharing ADMM")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario bundle")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("reconstruct", help="run a reconstruction method")
    p.add_argument("--config", dest="bundle", required=True,
                   help="scenario bundle directory")
    p.add_argument("--method", required=True,
                   choices=["cadmm", "sadmm", "bp", "composite"])
    p.add_argument("--out", default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None,
                   help="lambda/mu override")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("sweep", help="hyperparameter sweep")
    p.add_argument("--config", dest="bundle", required=True)
    p.add_argument("--method", required=True, choices=["cadmm", "sadmm"])
    p.add_argument("--beta", type=_float_list, required=True,
                   help="comma-separated beta values")
    p.add_argument("--ratio", type=_float_list, required=True,
                   help="comma-separated lambda/mu values")
    p.add_argument("--out", default=None)

    p = sub.add_parser("metrics", help="score an image CSV")
    p.add_argument("--image", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--truth", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            out = cmd_simulate(args.config, args.out, args.seed)
            print(f"bundle written to {out}")
        elif args.command == "reconstruct":
            out = cmd_reconstruct(args.bundle, args.method, args.out,
                                  args.beta, args.ratio, args.max_iters,
                                  args.threads)
            print(f"result written to {out}")
        elif args.command == "sweep":
            out_path, rows = cmd_sweep(args.bundle, args.method, args.beta,
                                       args.ratio, args.out)
            print(f"sweep table written to {out_path} ({len(rows)} rows)")
        elif args.command == "metrics":
            for key, value in cmd_metrics(args.image, args.config,
                                          args.truth).items():
                print(f"{key}: {value}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (solvers.NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
