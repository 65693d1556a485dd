"""Spans around calls into distradar, recorded from outside the package.

The tracer replaces module and class attributes of distradar with thin
wrappers and restores them on uninstall; nothing under src/ is edited.
Each wrapped call becomes one Span (name, start, end, parent, thread).
Spans stay in memory and are written out when the repeat ends.

Two target sets exist. CORE holds the command and solver entry points
that the end-to-end metrics need, so an untraced repeat pays for a
handful of spans only. LAYERS adds every per-layer boundary for the
traced repeat.
"""

import json
import threading
import time
import weakref
from functools import wraps
from pathlib import Path

import numpy as np

from distradar import cli, metrics, model, orchestrate, simulate, solvers

SOLVE_NAMES = ("solvers.run", "orchestrate.run_message_passing",
               "model.backprojection_image", "solvers.composite_baseline")
LOCAL_NAMES = ("solvers.local_update_cadmm", "solvers.local_update_sadmm")
GLOBAL_NAMES = ("solvers.global_update_cadmm", "solvers.global_update_sadmm")
SOLVER_LOOPS = ("solvers.run", "orchestrate.run_message_passing")

CORE = [
    ("cli", cli, "cmd_simulate"), ("cli", cli, "cmd_reconstruct"),
    ("cli", cli, "cmd_metrics"),
    ("solvers", solvers, "run"), ("solvers", solvers, "composite_baseline"),
    ("orchestrate", orchestrate, "run_message_passing"),
    ("model", model, "backprojection_image"),
]
OP = model.ForwardOperator
LAYERS = CORE + [
    ("cli", cli, "load_bundle"),
    ("model.ForwardOperator", OP, "__init__"),
    ("model", OP, "apply"), ("model", OP, "adjoint"),
    ("model", OP, "normal_apply"), ("model", OP, "with_phase_matrix"),
    ("model", model, "estimate_phase_matrix"),
    ("simulate", simulate, "synthesize_measurements"),
    ("solvers", solvers, "local_update_cadmm"),
    ("solvers", solvers, "local_update_sadmm"),
    ("solvers", solvers, "cg_solve"),
    ("solvers", solvers, "global_update_cadmm"),
    ("solvers", solvers, "global_update_sadmm"),
    ("solvers", solvers, "dual_update"),
    ("solvers", solvers, "residuals_and_tolerances"),
    ("orchestrate", orchestrate, "export_trace"),
    ("metrics", metrics, "export_image"), ("metrics", metrics, "image_entropy"),
    ("metrics", metrics, "support_f1"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, name, parent, thread):
        self.name = name
        self.start = None
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = {}

    @property
    def dur(self):
        return self.end - self.start

    def has_ancestor(self, names):
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


class Tracer:
    """Installs wrappers for one repeat; collects spans until uninstall."""

    def __init__(self, run_id, traced):
        self.run_id = run_id
        self.traced = traced
        self.spans = []
        self.inner_solves = []  # (op, mu, beta, rhs, v), checked after the run
        self._local = threading.local()
        self._main_stack = self._stack()
        self._main = threading.get_ident()
        self._seen_ops = weakref.WeakSet()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        for layer, owner, attr in (LAYERS if self.traced else CORE):
            original = getattr(owner, attr, None)
            if original is None:  # a later version may drop a layer function
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main:
                # pool threads inherit the span that is open on the main thread
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            else:
                parent = None
            span = Span(name, parent, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            tracer._annotate(span, args, kwargs, out)
            return out

        return wrapper

    def _annotate(self, span, args, kwargs, out):
        name = span.name
        if name == "model.normal_apply":
            op = args[0]
            if op not in self._seen_ops:
                self._seen_ops.add(op)
                span.attrs["first"] = True
        elif name == "model.ForwardOperator.__init__":
            span.attrs["bytes"] = sum(v.nbytes for v in vars(args[0]).values()
                                      if isinstance(v, np.ndarray))
        elif name == "cli.load_bundle":
            bundle = Path(args[0])
            span.attrs["bytes"] = sum(p.stat().st_size for p in bundle.iterdir()
                                      if p.is_file())
        elif name == "solvers.run":
            span.attrs["threads"] = kwargs.get("threads", args[4] if len(args) > 4 else 1)
        elif name == "solvers.cg_solve":
            op, mu, beta, rhs, max_iters = args[:5]
            span.attrs["max_iters"] = max_iters
            self.inner_solves.append((op, mu, beta, rhs, out))
        elif name == "orchestrate.run_message_passing":
            trace = out[1]
            span.attrs["messages"] = len(trace)
            span.attrs["payload_elements"] = sum(r.payload_len for r in trace)
        elif name == "metrics.support_f1":
            span.attrs["value"] = out[2]
        elif name == "metrics.image_entropy":
            span.attrs["value"] = out

    def write(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": self.run_id, "name": s.name,
                    "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "thread": s.thread,
                    "attrs": s.attrs}) + "\n")


def _union(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def end_to_end(spans):
    """setup_s, solve_s and simulate_s of one repeat, from CORE spans.

    setup_s runs from a cmd_reconstruct call to the start of its solver or
    imaging call; spans outside cmd_reconstruct are not counted here (the
    mailbox workload times its own setup).
    """
    setup = solve = sim = 0.0
    children = _children(spans)
    for s in spans:
        if s.name == "cli.cmd_reconstruct":
            solves = _solves_in(s, children)
            if solves:
                setup += min(c.start for c in solves) - s.start
        elif s.name == "cli.cmd_simulate":
            sim += s.dur
        if s.name in SOLVE_NAMES and not s.has_ancestor(SOLVE_NAMES):
            solve += s.dur
    return {"setup_s": setup, "solve_s": solve, "simulate_s": sim}


def _children(spans):
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    return children


def _solves_in(span, children):
    return [c for c in children.get(id(span), []) if c.name in SOLVE_NAMES]


def _self_time(span, children):
    kids = [(max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), [])]
    return span.dur - _union(kids)


def _parallel_eff(loop, children):
    """Local-update busy time, and threads x local-phase wall time, of one loop.

    A local phase is the set of local updates between two global updates.
    """
    kids = children.get(id(loop), [])
    locals_ = sorted((c for c in kids if c.name in LOCAL_NAMES), key=lambda c: c.start)
    ends = sorted(c.end for c in kids if c.name in GLOBAL_NAMES)
    phases = {}
    for c in locals_:
        k = sum(e <= c.start for e in ends)
        phases.setdefault(k, []).append(c)
    busy = sum(c.dur for c in locals_)
    wall = sum(max(c.end for c in p) - min(c.start for c in p)
               for p in phases.values())
    threads = loop.attrs.get("threads", 1)
    return busy, threads * wall


def layer_metrics(tracer):
    """Per-layer counts and times of one traced repeat (see README.md)."""
    spans = tracer.spans
    children = _children(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def get(name):
        return by_name.get(name, [])

    def dur(*names):
        return sum(s.dur for n in names for s in get(n))

    def per_call_us(name):
        calls = get(name)
        return 1e6 * dur(name) / len(calls) if calls else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    builds = [s for s in get("model.ForwardOperator.__init__")
              if not s.has_ancestor(("cli.cmd_simulate",))]
    locals_ = [s for n in LOCAL_NAMES for s in get(n)]
    local_gram = sum(1 for s in get("model.normal_apply")
                     if s.has_ancestor(LOCAL_NAMES))
    cg = get("solvers.cg_solve")
    capped = sum(1 for s in cg
                 if sum(c.name == "model.normal_apply"
                        for c in children.get(id(s), [])) >= s.attrs["max_iters"])
    iters = len(get("solvers.residuals_and_tolerances"))
    loops = [s for n in SOLVER_LOOPS for s in get(n)]
    busy = wall = 0.0
    for loop in loops:
        b, w = _parallel_eff(loop, children)
        busy, wall = busy + b, wall + w
    write_result = 0.0
    for s in get("cli.cmd_reconstruct"):
        solves = _solves_in(s, children)
        if solves:
            write_result += s.end - max(c.end for c in solves)
    residual = 0.0
    for op, mu, beta, rhs, v in tracer.inner_solves:
        rhs = np.asarray(rhs, dtype=complex)
        norm = np.linalg.norm(rhs)
        if norm > 0:
            r = mu * op.normal_apply(v) + beta * v - rhs
            residual = max(residual, float(np.linalg.norm(r) / norm))
    mailbox = get("orchestrate.run_message_passing")
    return {
        "cli.load_bundle_s": dur("cli.load_bundle"),
        "cli.bundle_bytes": sum(s.attrs["bytes"] for s in get("cli.load_bundle")),
        "cli.write_result_s": write_result,
        "model.op_build_s": sum(s.dur for s in builds),
        "model.kernel_bytes": sum(s.attrs["bytes"] for s in builds),
        "model.phase_fold_s": dur("model.estimate_phase_matrix",
                                  "model.with_phase_matrix"),
        "model.gram_first_call_s": sum(s.dur for s in get("model.normal_apply")
                                       if s.attrs.get("first")),
        "model.normal_apply_calls": len(get("model.normal_apply")),
        "model.normal_apply_us": per_call_us("model.normal_apply"),
        "model.adjoint_calls": len(get("model.adjoint")),
        "model.adjoint_us": per_call_us("model.adjoint"),
        "model.apply_calls": len(get("model.apply")),
        "model.apply_us": per_call_us("model.apply"),
        "simulate.synthesize_s": dur("simulate.synthesize_measurements"),
        "solvers.outer_iters": iters,
        "solvers.iter_s": dur(*SOLVER_LOOPS) / iters if iters else 0.0,
        "solvers.local_update_s": dur(*LOCAL_NAMES),
        "solvers.cg_calls": len(cg),
        "solvers.gram_per_solve": local_gram / len(locals_) if locals_ else 0.0,
        "solvers.cg_capped_ratio": capped / len(cg) if cg else 0.0,
        "solvers.local_residual_max": residual,
        "solvers.local_parallel_eff": busy / wall if wall else 0.0,
        "solvers.global_update_s": dur(*GLOBAL_NAMES),
        "solvers.dual_update_s": dur("solvers.dual_update"),
        "solvers.residuals_s": dur("solvers.residuals_and_tolerances"),
        "solvers.run_self_s": sum(_self_time(s, children)
                                  for s in get("solvers.run")),
        "orchestrate.messages": sum(s.attrs["messages"] for s in mailbox),
        "orchestrate.payload_bytes": 8 * sum(s.attrs["payload_elements"]
                                             for s in mailbox),
        "orchestrate.self_s": sum(_self_time(s, children) for s in mailbox),
        "orchestrate.export_trace_s": dur("orchestrate.export_trace"),
        "metrics.export_image_s": dur("metrics.export_image"),
        "metrics.entropy_s": dur("metrics.image_entropy"),
        "metrics.support_f1_s": dur("metrics.support_f1"),
        "metrics.f1": mean([s.attrs["value"] for s in get("metrics.support_f1")]),
        "metrics.entropy_bits": mean([s.attrs["value"]
                                      for s in get("metrics.image_entropy")]),
        "trace.spans": len(spans),
    }
