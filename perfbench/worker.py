"""One benchmark child process: prepares a workload or runs one repeat of it.

Usage: python3 perfbench/worker.py '<json spec>'

run.py starts one child per repeat, so each repeat pays its own imports
outside the timed region and reports its own peak RSS. The last stdout
line is a JSON object; everything the child writes stays under the work
directory named in the spec.
"""

import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import distradar  # noqa: E402
from distradar import cli, metrics, model, orchestrate  # noqa: E402

import tracer as tracing  # noqa: E402

# Scatterer layout the shipped presets draw at their seed 7: every workload
# images this fixed scene, and --seed picks the noise realization. Seeding
# the layout too changes the ADMM iteration count by up to a third
# (fvfb sadmm: 73 to 100+ iterations over seeds 1-8), which would swamp
# any layer's change; over noise seeds it stays within 75-78.
SCATTERERS = [
    (0.7881014396094019, 2.5024469461083254),
    (-1.7311947030592711, -1.2589524050592797),
    (-3.116828581236879, 2.023739035811427),
    (-0.20200979708455913, -1.2408957110383247),
    (-1.544321597779015, -0.34601927293932677),
    (0.33703331806930237, 3.1216517856366734),
    (0.7697291454793249, 3.080448930395875),
    (-2.140664186695579, 0.7089995069200938),
    (-2.9252142437263444, 0.09379956770963283),
    (2.628156971114969, 0.8141254032933656),
]

# The shipped presets' sensing and solver values, kept here so that the
# benchmark's inputs do not move when configs/ does.
PRESETS = {
    "fvfb": {"q_count": 8, "cluster_width_deg": 20.0, "bandwidth_hz": 1.5e9,
             "freq_count": 48},
    "fvlb": {"q_count": 8, "cluster_width_deg": 20.0, "bandwidth_hz": 600e6,
             "freq_count": 32},
    "lvlb": {"q_count": 16, "cluster_width_deg": 1.0, "bandwidth_hz": 600e6,
             "freq_count": 32},
}
FULL = {"nx": 64, "apcs_per_cluster": 8}
# Smoke scale: every code path of every workload in a few seconds.
SMOKE = {"nx": 8, "apcs_per_cluster": 8, "q_count": 2, "freq_count": 8}

SIM_PASSES = 5  # bundle simulations in prepare, median reported as simulate_s
SETUP_PASSES = 5  # setups in a mailbox repeat, median reported as setup_s
LVLB_THREADS = 2


def config_text(preset, smoke):
    p = dict(PRESETS[preset], **(SMOKE if smoke else FULL))
    lines = "".join(f"    {x!r} {y!r} 1.0 0.0 0.0 360.0\n" for x, y in SCATTERERS)
    return f"""[scene]
nx = {p['nx']}
ny = {p['nx']}
extent_x = 7.0
extent_y = 7.0
seed = 7
scatterers =
{lines}
[sensing]
q_count = {p['q_count']}
cluster_width_deg = {p['cluster_width_deg']}
apcs_per_cluster = {p['apcs_per_cluster']}
freq_center_hz = 9.6e9
bandwidth_hz = {p['bandwidth_hz']}
freq_count = {p['freq_count']}
elevation_deg = 30.0
snr_db = 15.0

[solver]
mu = 1.0
lambda = 50.0
beta = 10.0
eps_abs = 1e-2
eps_rel = 1e-2
max_outer_iters = 100

[metrics]
dynamic_range_db = 50.0
gray_levels = 256
sparsity_threshold = 1e-3
f1_threshold = 0.1
match_radius_px = 1
"""


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "distradar": distradar.__version__,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


class Repeat:
    """Runs the commands of one repeat and records failed checks."""

    def __init__(self, spec):
        self.work = Path(spec["work"])
        self.out = self.work / f"rep{spec['repeat']}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.commands = []
        self.failures = []
        self.outputs = {}
        self.setup_samples = []
        self.outer_iters = []  # recorded for reading spreads, not a metric
        self.after = None  # untimed, untraced work that runs after the repeat

    def config(self, preset):
        return self.work / f"{preset}.ini"

    def command(self, label, fn, *args, **kwargs):
        self.commands.append(label)
        try:
            return fn(*args, **kwargs)
        except Exception:  # recorded as a failed command, the repeat goes on
            self.fail(label, traceback.format_exc(limit=3))
            return None

    def fail(self, label, why):
        self.failures.append({"command": label, "why": why})

    def check(self, label, ok, why):
        if not ok:
            self.fail(label, why)

    def check_image(self, label, path, n_pixels):
        try:
            with open(path, newline="") as fh:
                values = np.array([float(v) for row in csv.reader(fh) for v in row])
        except (OSError, ValueError) as exc:
            self.fail(label, f"unreadable image {path}: {exc}")
            return
        self.check(label, values.size == n_pixels,
                   f"{path}: {values.size} pixels, expected {n_pixels}")
        self.check(label, bool(np.all(np.isfinite(values))), f"{path}: non-finite pixel")
        self.check(label, bool(np.all(values >= 0)), f"{path}: negative pixel")

    def record_outputs(self, label, directory, names):
        for name in names:
            path = Path(directory) / name
            if path.exists():
                key = f"{label}/{name}"
                self.outputs[key] = sha256(path)
            else:
                self.fail(label, f"missing output {path}")

    def report(self, path):
        fields = {}
        for line in Path(path).read_text().splitlines():
            key, _, value = line.partition(": ")
            fields[key] = value
        return fields

    def reconstruct(self, label, bundle, method, n_pixels, converged, **kwargs):
        out = self.out / label
        done = self.command(label, cli.cmd_reconstruct, bundle, method,
                            out_dir=out, **kwargs)
        if done is None:
            return None
        self.check_image(label, out / "image.csv", n_pixels)
        report = self.report(out / "report.txt")
        if converged:
            self.check(label, report.get("termination") == "converged",
                       f"termination {report.get('termination')!r}")
            self.outer_iters.append(int(report.get("iterations", 0)))
        f1 = float(report.get("f1", "nan"))
        self.check(label, 0.0 <= f1 <= 1.0, f"f1 {f1} outside [0, 1]")
        names = ["image.csv", "image.pgm", "report.txt"]
        if converged:
            names.append("convergence.csv")
        self.record_outputs(label, out, names)
        return out, report


def n_pixels(spec):
    return (SMOKE if spec["smoke"] else FULL)["nx"] ** 2


def lvlb_cadmm(rep, spec):
    rep.reconstruct("reconstruct-cadmm", rep.work / "bundle", "cadmm",
                    n_pixels(spec), converged=True, threads=LVLB_THREADS)


def _mailbox_setup(bundle):
    cfg, operators, measurements, truth = cli.load_bundle(bundle)
    folded = [op.with_phase_matrix(model.estimate_phase_matrix(op, y))
              for op, y in zip(operators, measurements)]
    return cfg, folded, measurements, truth


def fvfb_sadmm_mailbox(rep, spec):
    label = "mailbox-sadmm"
    bundle = rep.work / "bundle"
    out = rep.out / label
    out.mkdir(parents=True, exist_ok=True)
    rep.commands.append(label)
    try:
        t0 = time.perf_counter()
        cfg, folded, measurements, truth = _mailbox_setup(bundle)
        rep.setup_samples.append(time.perf_counter() - t0)
        result, trace = orchestrate.run_message_passing(
            "sadmm", folded, measurements, cfg.solver)
        image = result.state.global_image
        metrics.export_image(image, cfg.grid, out / "image.csv", "csv")
        metrics.export_image(image, cfg.grid, out / "image.pgm", "pgm",
                             cfg.entropy_cfg)
        orchestrate.export_trace(trace, out / "trace.csv")
        with open(out / "convergence.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "primal_res", "dual_res", "eps_pri",
                             "eps_dual", "objective"])
            for rec, obj in zip(result.state.residual_log, result.objective_history):
                writer.writerow([rec.iteration, f"{rec.primal_norm:.17g}",
                                 f"{rec.dual_norm:.17g}", f"{rec.eps_pri:.17g}",
                                 f"{rec.eps_dual:.17g}", f"{obj:.17g}"])
        metrics.image_entropy(image, cfg.entropy_cfg)
        metrics.support_f1(image, truth, cfg.grid.nx, cfg.f1_threshold,
                           cfg.match_radius_px)
    except Exception:  # recorded as a failed command
        rep.fail(label, traceback.format_exc(limit=3))
        return
    q_count, n = len(folded), cfg.grid.n_pixels
    rep.outer_iters.append(result.state.iter)
    rep.check(label, result.termination == "converged",
              f"termination {result.termination!r}")
    per_iter = len(orchestrate.iteration_schedule("sadmm", q_count, n))
    rep.check(label, len(trace) == result.state.iter * per_iter,
              f"trace has {len(trace)} messages, expected "
              f"{result.state.iter} x {per_iter}")
    downlink = {}
    with open(out / "trace.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["direction"] in (orchestrate.BROADCAST, orchestrate.UNICAST):
                downlink[row["iter"]] = downlink.get(row["iter"], 0) + int(row["payload_len"])
    expected = orchestrate.downlink_elements_per_iteration("sadmm", q_count, n)
    rep.check(label, len(downlink) == result.state.iter
              and set(downlink.values()) == {expected},
              f"downlink per iteration {sorted(set(downlink.values()))}, "
              f"expected {expected}")
    rep.check_image(label, out / "image.csv", n)
    rep.record_outputs(label, out, ["image.csv", "image.pgm", "trace.csv",
                                    "convergence.csv"])

    def more_setups():
        for _ in range(SETUP_PASSES - 1):
            t0 = time.perf_counter()
            _mailbox_setup(bundle)
            rep.setup_samples.append(time.perf_counter() - t0)

    rep.after = more_setups


def baselines(rep, spec):
    bundles = {}
    for preset in ("fvfb", "fvlb", "lvlb"):
        bundle = rep.out / preset
        label = f"simulate-{preset}"
        if rep.command(label, cli.cmd_simulate, rep.config(preset), bundle,
                       spec["seed"]) is None:
            continue
        bundles[preset] = bundle
        done = rep.reconstruct(f"reconstruct-bp-{preset}", bundle, "bp",
                               n_pixels(spec), converged=False)
        if done is None:
            continue
        out, report = done
        label = f"metrics-{preset}"
        scores = rep.command(label, cli.cmd_metrics, out / "image.csv",
                             bundle / "config.ini", bundle / "truth_support.csv")
        if scores is not None:
            for key in ("entropy_bits", "sparsity", "f1"):
                rep.check(label, scores.get(key) == report.get(key),
                          f"{key}: metrics says {scores.get(key)}, "
                          f"report says {report.get(key)}")
    if "fvlb" in bundles:
        rep.reconstruct("reconstruct-composite-fvlb", bundles["fvlb"],
                        "composite", n_pixels(spec), converged=False)


WORKLOADS = {
    "lvlb-cadmm": (lvlb_cadmm, "lvlb"),
    "fvfb-sadmm-mailbox": (fvfb_sadmm_mailbox, "fvfb"),
    "baselines": (baselines, None),
}


def prepare(spec):
    """Write the configs; simulate the bundle a workload reads, SIM_PASSES times."""
    work = Path(spec["work"])
    for preset in PRESETS:
        (work / f"{preset}.ini").write_text(config_text(preset, spec["smoke"]))
    preset = WORKLOADS[spec["workload"]][1]
    commands, failures, simulate_s = [], [], []
    if preset is not None:
        digests = []
        for k in range(SIM_PASSES):
            label = f"simulate-{preset}-{k}"
            commands.append(label)
            bundle = work / ("bundle" if k == 0 else f"bundle_check{k}")
            t0 = time.perf_counter()
            try:
                cli.cmd_simulate(work / f"{preset}.ini", bundle, spec["seed"])
            except Exception:  # recorded as a failed command
                failures.append({"command": label, "why": traceback.format_exc(limit=3)})
                continue
            simulate_s.append(time.perf_counter() - t0)
            digests.append({p.name: sha256(p) for p in sorted(bundle.iterdir())})
            if digests[0] != digests[-1]:
                failures.append({"command": label,
                                 "why": "bundle differs from the first simulation"})
    return {"env": environment(), "commands": commands, "failures": failures,
            "simulate_s": simulate_s}


def repeat(spec):
    rep = Repeat(spec)
    run_id = f"{spec['workload']}-seed{spec['seed']}-rep{spec['repeat']}"
    fn = WORKLOADS[spec["workload"]][0]
    tracer = tracing.Tracer(run_id, spec["traced"])
    with tracer:
        t0 = time.perf_counter()
        fn(rep, spec)
        total_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rep.after is not None:
        rep.after()
    e2e = tracing.end_to_end(tracer.spans)
    if rep.setup_samples:
        e2e["setup_s"] = statistics.median(rep.setup_samples)
    result = {
        "total_s": total_s, "peak_rss_mb": peak_rss_mb, **e2e,
        "commands": rep.commands, "failures": rep.failures,
        "outputs": rep.outputs, "outer_iters": rep.outer_iters,
    }
    if spec["traced"]:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(rep.out / "spans.jsonl")
    return result


def main():
    spec = json.loads(sys.argv[1])
    if not Path(distradar.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"distradar imported from {distradar.__file__}, not {ROOT / 'src'}")
    out = prepare(spec) if spec["phase"] == "prepare" else repeat(spec)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
