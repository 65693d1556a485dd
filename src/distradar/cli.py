"""Experiment driver: simulate, reconstruct, sweep, metrics.

Configs are plain INI files (key = value with sections); unknown keys are
a hard error so typos cannot silently change an experiment. Scenario
bundles and result bundles are directories of diffable text files, and
identical config + seed always reproduces identical bytes.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

import argparse
import configparser
import inspect
import io
import math
import os
import re
import shutil
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics, model, simulate, solvers, tables

DEG = math.pi / 180.0
ADMM_METHODS = (solvers.CADMM, solvers.SADMM)
METHODS = ADMM_METHODS + ("bp", "composite")
# the first lines of every bundle's manifest.txt
_PROVENANCE = [f"distradar_version: {__version__}",
               f"numpy_version: {np.__version__}"]


class ConfigError(ValueError):
    pass


def _parse_bool(text):
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value == "true"


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


def _keyword_default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _checked(parse, check):
    """A parser that parses with `parse`, then returns what `check` (which
    raises ValueError for a value out of range) returns."""
    return lambda text: check(parse(text))


_REQUIRED = object()  # the default of a key that must be set
_ENTROPY = fields(metrics.EntropyConfig)
_SCENARIO_DEFAULTS = {f.name: f.default
                      for f in fields(simulate.SimScenario)}

# every config key, as section -> key -> (parser, default); defaults that
# the program declares elsewhere are read from there: SimScenario,
# SolverConfig (whose fields the [solver] keys are, with lambda for lam),
# EntropyConfig and the keyword defaults of the metrics functions
_KEYS = {
    "scene": {
        "nx": (int, _REQUIRED), "ny": (int, _REQUIRED),
        "extent_x": (float, _REQUIRED), "extent_y": (float, _REQUIRED),
        "seed": (int, _SCENARIO_DEFAULTS["seed"]),
        # an explicit scatterer list, or num_scatterers random ones
        "scatterers": (_parse_scatterer_lines, None),
        "num_scatterers": (int, None), "amplitude": (float, 1.0),
        "random_phase": (_parse_bool, False),
        "visibility_width_deg": (float, 360.0), "margin": (float, 0.1)},
    "sensing": {
        "q_count": (int, _REQUIRED), "cluster_width_deg": (float, _REQUIRED),
        "apcs_per_cluster": (int, _REQUIRED),
        "freq_center_hz": (float, _REQUIRED),
        "bandwidth_hz": (float, _REQUIRED), "freq_count": (int, _REQUIRED),
        "elevation_deg": (float, 30.0),
        "snr_db": (float, _SCENARIO_DEFAULTS["snr_db"])},
    "solver": {("lambda" if f.name == "lam" else f.name): (f.type, f.default)
               for f in fields(solvers.SolverConfig)},
    # each value is checked as it is read, by the rule of the metrics code
    # it feeds (EntropyConfig checks its own fields), so a bad one fails
    # before any simulation or solve; every result bundle holds an
    # image.pgm, so gray_levels keeps PGM's bound too
    "metrics": {
        **{f.name: (f.type, f.default) for f in _ENTROPY},
        "gray_levels": (_checked(int, metrics.check_pgm_gray_levels),
                        metrics.EntropyConfig.gray_levels),
        "sparsity_threshold": (
            _checked(float, metrics.check_rel_threshold),
            _keyword_default(metrics.normalized_sparsity, "rel_threshold")),
        "f1_threshold": (
            _checked(float, metrics.check_rel_threshold),
            _keyword_default(metrics.support_f1, "rel_threshold")),
        "match_radius_px": (
            _checked(int, metrics.check_match_radius),
            _keyword_default(metrics.support_f1, "match_radius_px"))},
    "output": {"directory": (str, "out")},
}
# the [scene] keys of a random scene, which an explicit scatterer list leaves
# unused
_RANDOM_SCENE_KEYS = ("num_scatterers", "amplitude", "random_phase",
                      "visibility_width_deg", "margin")


def _read_section(parser, name):
    """Every key of section `name`, parsed, or its default when unset."""
    section = parser[name] if parser.has_section(name) else {}
    values = {}
    for key, (parse, default) in _KEYS[name].items():
        if key not in section and default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        try:
            values[key] = parse(section[key]) if key in section else default
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {exc}") from exc
    return values


@dataclass
class MetricsConfig:
    """The [metrics] section: how images are scored."""
    entropy_cfg: metrics.EntropyConfig
    sparsity_threshold: float
    f1_threshold: float
    match_radius_px: int

    @classmethod
    def from_parser(cls, parser):
        m = _read_section(parser, "metrics")
        entropy_cfg = metrics.EntropyConfig(
            **{f.name: m[f.name] for f in _ENTROPY})
        return cls(entropy_cfg, m["sparsity_threshold"], m["f1_threshold"],
                   m["match_radius_px"])


@dataclass
class ExperimentConfig(MetricsConfig):
    """A parsed config: its [metrics] values plus the other sections; scene
    and sensing hold their sections' values as the config names them, and
    path the file it was read from."""
    grid: model.SceneGrid
    seed: int
    scene: dict
    sensing: dict
    solver: solvers.SolverConfig
    out_dir: str
    raw_text: str
    path: Path


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
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(parser[section]) - set(_KEYS[section])
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {sorted(unknown)}")
    for required in ("scene", "sensing"):
        if required not in parser:
            raise ConfigError(f"{path}: missing section [{required}]")
    try:
        scene = _read_section(parser, "scene")
        unused = [key for key in _RANDOM_SCENE_KEYS if key in parser["scene"]]
        if scene["scatterers"] is not None and unused:
            raise ConfigError(f"'scatterers' lists the scene, so {unused} "
                              "would be ignored")
        if scene["scatterers"] is None and scene["num_scatterers"] is None:
            raise ConfigError("missing required key 'num_scatterers'")
        solver = _read_section(parser, "solver")
        scoring = MetricsConfig.from_parser(parser)
        return ExperimentConfig(
            **vars(scoring),
            grid=model.SceneGrid(scene["nx"], scene["ny"], scene["extent_x"],
                                 scene["extent_y"]),
            seed=scene.pop("seed"), scene=scene,
            sensing=_read_section(parser, "sensing"),
            solver=solvers.SolverConfig(lam=solver.pop("lambda"), **solver),
            out_dir=_read_section(parser, "output")["directory"],
            raw_text=raw_text, path=path)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_scenario(cfg):
    """Materialize the SimScenario described by a parsed config. A scene
    that cannot exist (a NaN or -inf snr_db, a scatterer outside the grid,
    overlapping clusters) raises ConfigError naming the config file."""
    try:
        return _scenario(cfg)
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from exc


def _scenario(cfg):
    sensing, scene = cfg.sensing, cfg.scene
    clusters = simulate.make_uniform_clusters(
        sensing["q_count"], sensing["cluster_width_deg"] * DEG,
        sensing["apcs_per_cluster"], sensing["elevation_deg"] * DEG,
        sensing["freq_center_hz"], sensing["bandwidth_hz"],
        sensing["freq_count"])
    scatterers = scene["scatterers"]
    if scatterers is None:
        rng = simulate.scene_rng(cfg.seed)
        hx = cfg.grid.extent_x / 2 * (1 - scene["margin"])
        hy = cfg.grid.extent_y / 2 * (1 - scene["margin"])
        scatterers = []
        for _ in range(scene["num_scatterers"]):
            x = rng.uniform(-hx, hx)
            y = rng.uniform(-hy, hy)
            phase = rng.uniform(0, 2 * math.pi) if scene["random_phase"] else 0.0
            center = rng.uniform(0, 2 * math.pi)
            scatterers.append(simulate.Scatterer(
                (x, y), scene["amplitude"], phase, center,
                scene["visibility_width_deg"] * DEG))
    return simulate.SimScenario(cfg.grid, clusters, scatterers,
                                sensing["snr_db"], cfg.seed)


def _write_complex_csv(path, values, indices):
    """Write an `index,real,imag` row for each of `indices` (ascending) of
    the complex vector `values`."""
    picked = values[indices]
    rows = zip(indices.tolist(), picked.real.tolist(), picked.imag.tolist())
    tables.write_table(path, ["index", "real", "imag"], (
        (str(i), f"{re:.17g}", f"{im:.17g}") for i, re, im in rows))


def _read_complex_csv(path):
    """The samples of a dense `index,real,imag` file, whose row i must be
    sample i."""
    rows = tables.read_table(path, ["index", "real", "imag"])
    values = tables.parse_rows(path, rows, lambda rows: [
        complex(float(r), float(im)) for _, r, im in rows], 2)
    misplaced = next((k for k, row in enumerate(rows) if row[0] != str(k)),
                     None)
    if misplaced is not None:
        raise ConfigError(f"{path}: line {misplaced + 2} has index "
                          f"{rows[misplaced][0]!r}, expected {misplaced}")
    return np.array(values)


def cmd_simulate(config_path, out_dir=None, seed=None):
    """Write a scenario bundle: truth, measurements, manifest, config echo.

    The bundle replaces --out as a whole (see _write_atomically), so a
    directory that held another scenario keeps none of its files.
    """
    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    scenario = build_scenario(cfg)
    out = Path(os.path.abspath(out_dir if out_dir is not None else cfg.out_dir))
    _check_replaceable(out, _SCENARIO)
    histories = simulate.synthesize_measurements(scenario)
    if seed is None:
        config_text = cfg.raw_text
    else:
        # re-emit with the effective seed so the bundle is self-describing
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(cfg.raw_text)
        parser["scene"]["seed"] = str(seed)
        buf = io.StringIO()
        parser.write(buf)
        config_text = buf.getvalue()
    lines = _PROVENANCE + [
        f"seed: {cfg.seed}",
        f"q_count: {len(scenario.clusters)}",
        f"n_pixels: {scenario.grid.n_pixels}",
        f"requested_snr_db: {scenario.snr_db}",
    ]
    for q, h in enumerate(histories):
        lines.append(f"cluster_{q:02d}_noise_norm: {h.noise_norm:.17g}")
        lines.append(f"cluster_{q:02d}_realized_snr_db: {scenario.snr_db}")

    def write(tmp):
        # a truth file lists its cluster's nonzero pixels only; every pixel
        # it leaves out is 0
        truth_support = set()
        for q, h in enumerate(histories):
            nonzero = np.flatnonzero(h.truth)
            truth_support.update(nonzero.tolist())
            _write_complex_csv(tmp / f"truth_q{q:02d}.csv", h.truth, nonzero)
            _write_complex_csv(tmp / f"meas_q{q:02d}.csv", h.data,
                               np.arange(h.data.size))
        tables.write_table(tmp / "truth_support.csv", ["pixel_index"],
                           ([str(idx)] for idx in sorted(truth_support)))
        (tmp / "config.ini").write_text(config_text)

    _write_atomically(out, _SCENARIO, lines, write)
    return out


def load_bundle(bundle_path):
    """Read a scenario bundle back into (config, operators, measurements, truth)."""
    bundle = Path(bundle_path)
    if not (bundle / "config.ini").exists():
        raise ConfigError(f"{bundle}: not a scenario bundle (no config.ini)")
    cfg = load_config(bundle / "config.ini")
    scenario = build_scenario(cfg)
    operators = [model.ForwardOperator(cfg.grid, c) for c in scenario.clusters]
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
    truth_support = (_read_truth_support(truth_path, cfg.grid.n_pixels)
                     if truth_path.exists() else [])
    return cfg, operators, measurements, truth_support


def _read_truth_support(path, n_pixels):
    """Pixel indices of a truth_support.csv, as cmd_simulate writes it,
    each checked to lie in [0, n_pixels)."""
    rows = tables.read_table(path, ["pixel_index"])
    indices = tables.parse_rows(
        path, rows, lambda rows: [int(row[0]) for row in rows], 2)
    for index in indices:
        if not 0 <= index < n_pixels:
            raise ConfigError(f"{path}: pixel index {index} outside "
                              f"[0, {n_pixels})")
    return indices


def _fold_phase_matrices(operators, measurements):
    return [op.with_phase_matrix(model.estimate_phase_matrix(op, y))
            for op, y in zip(operators, measurements)]


def score_image(image, nx, scoring, truth_support=None):
    """Entropy and sparsity of a flat image of row length nx, plus support
    precision, recall and F1 given a nonempty truth support, in report.txt
    order; scoring is a MetricsConfig (an ExperimentConfig is one)."""
    scores = {
        "entropy_bits": metrics.image_entropy(image, scoring.entropy_cfg),
        "sparsity": metrics.normalized_sparsity(image,
                                                scoring.sparsity_threshold),
    }
    if truth_support:
        scores.update(zip(("precision", "recall", "f1"), metrics.support_f1(
            image, truth_support, nx, scoring.f1_threshold,
            scoring.match_radius_px)))
    return scores


def _with_overrides(solver_cfg, beta=None, ratio=None, max_iters=None):
    """solver_cfg with the given overrides; SolverConfig validates them."""
    changes = {"beta": beta, "max_outer_iters": max_iters,
               "lam": None if ratio is None else ratio * solver_cfg.mu}
    return replace(solver_cfg, **{key: value for key, value in changes.items()
                                  if value is not None})


# the overrides that a method has no use for: bp solves nothing on no
# pool, and composite runs FISTA with the config's lambda and no outer loop
_UNUSED_OVERRIDES = {"bp": ("--beta", "--ratio", "--max-iters", "--threads"),
                     "composite": ("--beta", "--max-iters")}


def cmd_reconstruct(bundle_path, method, out_dir=None, beta=None, ratio=None,
                    max_iters=None, threads=None):
    """Run one reconstruction method on a bundle and write a result bundle;
    the methods that run a pool run it on one thread unless told more."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    overrides = {"--beta": beta, "--ratio": ratio, "--max-iters": max_iters,
                 "--threads": threads}
    unused = [flag for flag in _UNUSED_OVERRIDES.get(method, ())
              if overrides[flag] is not None]
    if unused:
        raise ConfigError(f"--method {method} does not use "
                          f"{', '.join(unused)}")
    threads = 1 if threads is None else threads
    out = Path(os.path.abspath(out_dir if out_dir is not None else
                               Path(bundle_path) / f"recon_{method}"))
    _check_replaceable(out, _RESULT)
    cfg, operators, measurements, truth_support = load_bundle(bundle_path)
    solver_cfg = _with_overrides(cfg.solver, beta, ratio, max_iters)
    t_start = time.perf_counter()
    result = None
    status = ("n/a", 0)  # report.txt's termination and iterations
    if method == "bp":
        image = model.backprojection_image(operators, measurements)
    else:
        folded = _fold_phase_matrices(operators, measurements)
        if method == "composite":
            composite = solvers.composite_baseline(
                folded, measurements, solver_cfg.lam, threads=threads)
            image = composite.image
            status = (composite.termination, max(composite.iterations))
        else:
            result = solvers.run(method, folded, measurements, solver_cfg,
                                 threads=threads)
            image = result.state.global_image
            status = (result.termination, result.state.iter)
    wall_s = time.perf_counter() - t_start
    scores = score_image(image, cfg.grid.nx, cfg, truth_support)
    report = [
        f"method: {method}",
        f"termination: {status[0]}",
        f"iterations: {status[1]}",
    ] + [f"{key}: {value:.6f}" for key, value in scores.items()]
    manifest = _PROVENANCE + [
        f"bundle: {bundle_path}",
        f"method: {method}",
        f"beta: {solver_cfg.beta}",
        f"lambda: {solver_cfg.lam}",
        f"mu: {solver_cfg.mu}",
        f"max_outer_iters: {solver_cfg.max_outer_iters}",
        f"seed: {cfg.seed}",
    ]

    def write(tmp):
        metrics.export_image(image, cfg.grid, tmp / "image.csv", "csv")
        metrics.export_image(image, cfg.grid, tmp / "image.pgm", "pgm",
                             cfg.entropy_cfg)
        # wall times live in timing files so convergence.csv, report.txt,
        # and the images are run-to-run reproducible byte for byte
        (tmp / "wall_s.txt").write_text(f"{wall_s:.3f}\n")
        if result is not None:
            log = result.state.residual_log
            tables.write_table(
                tmp / "convergence.csv",
                ["iter", "primal_res", "dual_res", "eps_pri", "eps_dual",
                 "objective"],
                ((str(rec.iteration), f"{rec.primal_norm:.17g}",
                  f"{rec.dual_norm:.17g}", f"{rec.eps_pri:.17g}",
                  f"{rec.eps_dual:.17g}", f"{obj:.17g}")
                 for rec, obj in zip(log, result.objective_history)))
            tables.write_table(tmp / "timing.csv", ["iter", "wall_ms"],
                               ((str(rec.iteration), f"{rec.wall_ms:.3f}")
                                for rec in log))
        (tmp / "report.txt").write_text("\n".join(report) + "\n")

    _write_atomically(out, _RESULT, manifest, write)
    return out


_SCENARIO, _RESULT, _SWEEP = "scenario", "result", "sweep"
# the files a bundle of each flat kind may hold, its manifest.txt among them
_FLAT_FILES = {
    _RESULT: frozenset({"image.csv", "image.pgm", "wall_s.txt", "report.txt",
                        "convergence.csv", "timing.csv", "manifest.txt"}),
    _SWEEP: frozenset({"sweep.csv", "best.txt", "timing.csv",
                       "manifest.txt"})}
# a scenario bundle's own files
_SCENARIO_FILE = re.compile(r"config\.ini|manifest\.txt|truth_support\.csv"
                            r"|(truth|meas)_q\d{2,}\.csv")
# the bundles that reconstruct and sweep write into it by default
_NESTED = {**{f"recon_{method}": _RESULT for method in METHODS},
           **{f"sweep_{method}": _SWEEP for method in ADMM_METHODS}}


def _is_bundle(directory, kind):
    """Whether `directory` holds exactly one bundle of `kind`: its
    manifest plus only that kind's files (and, in a scenario bundle, the
    result and sweep bundles written into it by default)."""
    entries = list(directory.iterdir())
    names = {p.name for p in entries}
    if kind in _FLAT_FILES:
        return ("manifest.txt" in names and names <= _FLAT_FILES[kind]
                and all(p.is_file() for p in entries))
    return {"config.ini", "manifest.txt"} <= names and all(
        p.is_file() and _SCENARIO_FILE.fullmatch(p.name)
        or p.name in _NESTED and not p.is_symlink() and p.is_dir()
        and _is_bundle(p, _NESTED[p.name])
        for p in entries)


def _check_replaceable(out, kind):
    """Raise ConfigError unless `out` (absolute) is absent, an empty
    directory or an earlier bundle of `kind`, since replacing it deletes it."""
    if not out.name:
        raise ConfigError(f"--out {out} names no directory")
    if not (out.exists() or out.is_symlink()):
        return
    cwd = Path.cwd()
    if out.is_symlink() or not out.is_dir() or out == cwd or out in cwd.parents:
        raise ConfigError(f"refusing to replace {out}: not a {kind} bundle "
                          "directory")
    if any(out.iterdir()) and not _is_bundle(out, kind):
        raise ConfigError(f"refusing to replace {out}: it holds files that "
                          f"are not part of a {kind} bundle")


def _write_atomically(out, kind, manifest, write):
    """Have write(tmp) fill a temporary sibling of `out` (absolute), write
    the `manifest` lines into its manifest.txt, then rename it into place,
    replacing an earlier bundle of `kind` whole.

    A failed write or rename leaves neither a partial bundle nor a
    half-replaced old one, and the old bundle stays as it was.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(f".{out.name}.partial-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        write(tmp)
        (tmp / "manifest.txt").write_text("\n".join(manifest) + "\n")
        _check_replaceable(out, kind)  # again: it may have appeared since
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


def cmd_sweep(bundle_path, method, beta_list, ratio_list, out_dir=None):
    """Grid sweep over (beta, lambda/mu) into a sweep bundle: table, pick
    and wall times.

    The pick is the lowest-entropy row whose sparsity is above 0, so an
    empty image is never picked.
    """
    if not beta_list or not ratio_list:
        raise ConfigError("sweep requires non-empty beta and ratio lists")
    out = Path(os.path.abspath(out_dir if out_dir is not None else
                               Path(bundle_path) / f"sweep_{method}"))
    _check_replaceable(out, _SWEEP)
    cfg, operators, measurements, _ = load_bundle(bundle_path)
    # every point is validated before the first solve
    points = [(beta, ratio, _with_overrides(cfg.solver, beta, ratio))
              for beta in beta_list for ratio in ratio_list]
    folded = _fold_phase_matrices(operators, measurements)
    rows = []
    wall_s = []
    for beta, ratio, solver_cfg in points:
        t0 = time.perf_counter()
        result = solvers.run(method, folded, measurements, solver_cfg)
        wall_s.append(time.perf_counter() - t0)
        scores = score_image(result.state.global_image, cfg.grid.nx, cfg)
        rows.append({
            "beta": beta,
            "ratio": ratio,
            "sparsity": scores["sparsity"],
            "entropy": scores["entropy_bits"],
            "iterations": result.state.iter,
            "termination": result.termination,
        })
    eligible = [r for r in rows if r["sparsity"] > 0]
    if eligible:
        best = min(eligible, key=lambda r: r["entropy"])
        best_text = "".join(f"{k}: {v}\n" for k, v in best.items())
    else:
        best_text = "no sweep point with sparsity above 0\n"
    manifest = _PROVENANCE + [f"bundle: {bundle_path}", f"method: {method}",
                              f"seed: {cfg.seed}"]

    def write(tmp):
        tables.write_table(tmp / "sweep.csv", list(rows[0]),
                           (map(str, row.values()) for row in rows))
        # wall times live in timing.csv, as in a result bundle, so that
        # sweep.csv and best.txt are reproducible byte for byte
        tables.write_table(tmp / "timing.csv", ["beta", "ratio", "wall_s"],
                           ((str(r["beta"]), str(r["ratio"]), f"{t:.3f}")
                            for r, t in zip(rows, wall_s)))
        (tmp / "best.txt").write_text(best_text)

    _write_atomically(out, _SWEEP, manifest, write)
    return out, rows


def cmd_metrics(image_path, config_path=None, truth_path=None):
    """Score an image CSV with the [metrics] values of a config (defaults
    without one), against a truth_support.csv when one is given."""
    scoring = (load_config(config_path) if config_path is not None else
               MetricsConfig.from_parser(configparser.ConfigParser()))
    raster = metrics.load_image_csv(image_path)
    truth = (None if truth_path is None else
             _read_truth_support(truth_path, raster.size))
    scores = score_image(raster.ravel(), raster.shape[1], scoring, truth)
    return {key: f"{value:.6f}" for key, value in scores.items()}


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
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None,
                   help="lambda/mu override")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--threads", type=int,
                   default=_keyword_default(cmd_reconstruct, "threads"))

    p = sub.add_parser("sweep", help="hyperparameter sweep")
    p.add_argument("--config", dest="bundle", required=True)
    p.add_argument("--method", required=True, choices=ADMM_METHODS)
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
            out, rows = cmd_sweep(args.bundle, args.method, args.beta,
                                  args.ratio, args.out)
            print(f"sweep written to {out} ({len(rows)} rows)")
        elif args.command == "metrics":
            for key, value in cmd_metrics(args.image, args.config,
                                          args.truth).items():
                print(f"{key}: {value}")
    except (solvers.NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
