"""distradar benchmark: one workload, closed loop, one child process per repeat.

    python3 perfbench/run.py --workload lvlb-cadmm --seed 7 --seconds 30 --trace 0

Workloads, metrics and the layer-to-metric map are described in
perfbench/README.md. One client runs one command at a time: a repeat
starts only after the previous one has finished, and each repeat is a
fresh child process (perfbench/worker.py), so its peak RSS is its own.

--trace 0 runs untraced repeats for --seconds and reports the end-to-end
metrics as medians over the repeats. --trace 1 alternates untraced and
traced repeats and reports the per-layer metrics of the traced ones plus
the tracing overhead. Both print one line per metric, then the JSON
result as the last line. Output checks run on every repeat; any failed
command or check makes the exit code non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

# BLAS pinned to one thread, set here rather than inherited, so that the
# only parallelism is the solver's own pool (threads <= nproc = 2).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0  # every run ends within 180 s

END_TO_END = ("setup_s", "solve_s", "total_s", "simulate_s", "peak_rss_mb")


def run_child(spec, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("run deadline passed before the next child started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="8x8 grid, 2 clusters: exercises every path in seconds")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "distradar" / "__init__.py").exists():
        sys.exit(f"no distradar sources under {ROOT / 'src'}")
    for var in THREAD_VARS:
        os.environ[var] = "1"

    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = WORK / (args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = {"workload": args.workload, "seed": args.seed % 2**32,
            "smoke": args.smoke, "work": str(work)}

    prep = run_child(dict(base, phase="prepare"), deadline)
    plain, traced = [], []
    loop_start = time.monotonic()
    while True:
        want_traced = args.trace == 1 and len(traced) < len(plain)
        rep = run_child(dict(base, phase="repeat", repeat=len(plain) + len(traced),
                             traced=want_traced), deadline)
        (traced if want_traced else plain).append(rep)
        elapsed = time.monotonic() - loop_start
        longest = max(r["total_s"] for r in plain + traced)
        if args.trace == 1 and not traced:
            continue
        if elapsed + longest > args.seconds:
            break

    # failed commands are counted once each; every repeat of one
    # invocation must write byte-identical outputs
    repeats = plain + traced
    failures = [("prepare", f) for f in prep["failures"]]
    for i, rep in enumerate(repeats):
        failures += [(i, f) for f in rep["failures"]]
        for key, digest in rep["outputs"].items():
            if digest != repeats[0]["outputs"].get(key):
                failures.append((i, {"command": key.split("/")[0],
                                     "why": f"{key} differs from repeat 0"}))
    attempted = len(prep["commands"]) + sum(len(r["commands"]) for r in repeats)
    failed = len({(i, f["command"]) for i, f in failures})

    if args.trace == 0:
        samples = {k: [r[k] for r in plain] for k in END_TO_END}
        if prep["simulate_s"]:
            samples["simulate_s"] = prep["simulate_s"]
        kinds = bench["end_to_end"]
    else:
        samples = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
        samples["trace.overhead_s"] = [
            statistics.median(r["total_s"] for r in traced)
            - statistics.median(r["total_s"] for r in plain)]
        kinds = bench["per_layer"]
    result_metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(plain)} untraced + "
          f"{len(traced)} traced repeats, closed loop, one client")
    print("env " + json.dumps(prep["env"]))
    for kind in kinds:
        values = samples[kind["name"]]
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        result_metrics[kind["name"]] = {"value": med, "unit": kind["unit"]}
        print(f"  {kind['name']:<28} {med:>14.6g} {kind['unit']:<8} "
              f"n={len(values)} q1={q1:.6g} q3={q3:.6g}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6g} ratio    "
          f"{failed}/{attempted} commands")
    for i, f in failures:
        print(f"FAILED repeat {i} {f['command']}: {f['why']}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": prep["env"], "prepare": prep, "untraced": plain,
              "traced": traced, "metrics": result_metrics,
              "attempted": attempted, "failed": failed}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
