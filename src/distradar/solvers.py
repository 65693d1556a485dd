"""CADMM and SADMM reconstruction engines plus the shared numerics.

Both engines optimize

    sum_q (mu/2)*||y_q - A_q x_q||^2 + lambda*||x_G||_1

over nonnegative magnitude images, differing only in the coupling
constraint: consensus ties every local image to the global one
(x_q = x_G for all q), sharing ties their sum (sum_q x_q = x_G). One
loop, run, serves both forms. Local updates are exact solves through the
matrix-inversion lemma on each cluster's cached real inverse of
beta*I + mu*A_q A_q^H; global updates are exact one-sided soft-thresholds.
FISTA is kept only for the per-cluster composite baseline.

Per-cluster work (the solve-matrix build, the local update with its
data-fit term, a composite FISTA problem) runs on one thread pool when
threads > 1. All sums over clusters use a fixed ascending-q order so
results are bit reproducible regardless of scheduling.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

CADMM = "cadmm"
SADMM = "sadmm"


class NumericalError(RuntimeError):
    """Raised when an inner solve receives non-finite inputs."""


@dataclass
class SolverConfig:
    mu: float = 1.0
    lam: float = 1.0  # l1 weight on the global image
    beta: float = 1.0  # augmented Lagrangian parameter
    eps_abs: float = 1e-2
    eps_rel: float = 1e-2
    max_outer_iters: int = 100

    def __post_init__(self):
        for name in ("mu", "lam", "beta", "eps_abs", "eps_rel"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")


@dataclass
class IterationRecord:
    iteration: int
    primal_norm: float
    dual_norm: float
    eps_pri: float
    eps_dual: float
    wall_ms: float


@dataclass
class SolverState:
    local_images: np.ndarray  # (Q, N), nonnegative
    global_image: np.ndarray  # (N,), nonnegative
    dual: np.ndarray  # (Q*N,) for CADMM, (N,) for SADMM
    iter: int = 0
    residual_log: list = field(default_factory=list)


@dataclass
class ReconstructionResult:
    state: SolverState
    termination: str  # "converged" | "max_iters"
    objective_history: list


def local_solve(op, mu, beta, rhs):
    """Exact solve of (mu*A^H A + beta*I) v = rhs.

    The matrix-inversion lemma trades the N x N system for an MW x MW one
    (MW <= N in every preset): with M = (beta*I + mu*A A^H)^-1 from
    op.solve_matrix(mu, beta), v = (rhs - mu*A^H M A rhs)/beta. M is real,
    so it multiplies the (re, im) columns of A rhs as one real
    (MW x MW) @ (MW x 2) product; M @ z with a complex z would cast M to
    complex on every call.
    """
    rhs = np.asarray(rhs, dtype=complex)
    if not np.all(np.isfinite(rhs.view(float))):
        raise NumericalError("local_solve: non-finite right-hand side")
    m = op.solve_matrix(mu, beta)
    ar = op.apply(rhs).view(float).reshape(-1, 2)
    mar = (m @ ar).view(complex).reshape(-1)
    return (rhs - mu * op.adjoint(mar)) / beta


def accelerated_prox_gradient(grad, lipschitz, lam, n, max_iters, tol):
    """Restarted FISTA for min_z f(z) + lam*||z||_1 over z >= 0, from zero.

    grad evaluates the gradient of the smooth part f; lipschitz bounds its
    Lipschitz constant, and the step is 1/lipschitz. The prox of
    lam*||.||_1 restricted to the nonnegative orthant is the one-sided
    soft-threshold. The momentum restarts (t = 1) whenever the
    prox-gradient step from y opposes the last move,
    (y - z_new).(z_new - z) > 0: the gradient scheme of O'Donoghue &
    Candes (2015).

    The stop is certified: the prox-gradient mapping (y - z_new)/step is
    zero exactly at a minimiser, and the loop ends once its norm falls
    below tol times its value at the zero start. tol = 0 never stops
    early, so every one of max_iters iterations runs; a zero start that is
    already optimal ends after one. Returns the last z_new, the number of
    iterations and the final residual relative to the zero start.
    """
    step = 1.0 / lipschitz
    z = np.zeros(n)
    y = z.copy()
    t = 1.0
    for k in range(1, max_iters + 1):
        z_new = np.maximum(y - step * (grad(y) + lam), 0.0)
        mapping, move = y - z_new, z_new - z
        res = np.linalg.norm(mapping) / step
        if k == 1:
            res0 = res
        if np.dot(mapping, move) > 0:
            t = 1.0
        t_new = (1 + math.sqrt(1 + 4 * t * t)) / 2
        y = z_new + ((t - 1) / t_new) * move
        z, t = z_new, t_new
        if res0 == 0 or res < tol * res0:
            break
    return z, k, (res / res0 if res0 > 0 else 0.0)


def local_update_cadmm(op, mu_ahy, x_global, sigma_q, cfg):
    """Closed-form local image update of the consensus engine.

    Solves (mu*A^H A + beta*I) v = mu*A^H y + beta*x_G - sigma_q exactly,
    then projects onto the real nonnegative orthant. mu_ahy is the
    iteration-invariant term mu*A^H y.
    """
    rhs = mu_ahy + cfg.beta * x_global - sigma_q
    return np.maximum(local_solve(op, cfg.mu, cfg.beta, rhs).real, 0.0)


def local_update_sadmm(op, mu_ahy, x_global, x_bar_prev, x_q_prev, sigma, cfg):
    """Closed-form local image update of the sharing engine.

    The right-hand side replaces beta*x_G with
    beta*(x_G - (x_bar_prev - x_q_prev)), the sum of the other clusters'
    previous images entering through x_bar_prev.
    """
    rhs = mu_ahy + cfg.beta * (x_global - (x_bar_prev - x_q_prev)) - sigma
    return np.maximum(local_solve(op, cfg.mu, cfg.beta, rhs).real, 0.0)


def _sum_ascending(vectors):
    # fixed reduction order for bit reproducibility
    acc = np.zeros_like(vectors[0])
    for v in vectors:
        acc = acc + v
    return acc


def global_update_cadmm(local_images, sigma, cfg):
    """Global image update of the consensus engine, in closed form.

    Minimizes lam*||z||_1 - (sum_q sigma_q)^T z + (beta/2)*sum_q||x_q - z||^2
    over z >= 0. The dual-term sign follows the augmented Lagrangian; the
    minimizer is the one-sided soft-threshold
    max((beta*sum_q x_q + sum_q sigma_q - lam)/(Q*beta), 0).
    """
    local_images = np.asarray(local_images)
    q_count, n = local_images.shape
    x_sum = _sum_ascending(list(local_images))
    sigma_sum = _sum_ascending(list(sigma.reshape(q_count, n)))
    return np.maximum((cfg.beta * x_sum + sigma_sum - cfg.lam)
                      / (q_count * cfg.beta), 0.0)


def global_update_sadmm(x_bar, sigma, cfg):
    """Global image update of the sharing engine, in closed form.

    Minimizes lam*||z||_1 + (beta/2)*||z - x_bar||^2 - sigma^T z over
    z >= 0; the minimizer is max(x_bar + (sigma - lam)/beta, 0).
    """
    return np.maximum(x_bar + (sigma - cfg.lam) / cfg.beta, 0.0)


def dual_update(method, local_images, x_global_new, sigma, cfg):
    """Dual ascent step; returns the updated dual variable.

    CADMM: sigma_q += beta*(x_q - x_G) per cluster slice.
    SADMM: sigma += beta*(sum_q x_q - x_G).
    """
    local_images = np.asarray(local_images)
    if method == CADMM:
        q_count, n = local_images.shape
        return sigma + cfg.beta * (local_images.reshape(q_count * n)
                                   - np.tile(x_global_new, q_count))
    x_bar = _sum_ascending(list(local_images))
    return sigma + cfg.beta * (x_bar - x_global_new)


def residuals_and_tolerances(method, x_global_prev, state, cfg):
    """Primal/dual residual norms and their feasibility tolerances.

    The dual residual is beta*(x_G_new - x_G_prev) for both methods. The
    primal residual is the stacked consensus gap for CADMM and the sharing
    gap sum_q x_q - x_G for SADMM; tolerances combine eps_abs and eps_rel
    with the method's own norms.
    """
    local = np.asarray(state.local_images)
    q_count, n = local.shape
    x_global = state.global_image
    dual_norm = np.linalg.norm(cfg.beta * (x_global - x_global_prev))
    if method == CADMM:
        primal = local.reshape(q_count * n) - np.tile(x_global, q_count)
        primal_norm = np.linalg.norm(primal)
        eps_pri = (math.sqrt(q_count * n) * cfg.eps_abs
                   + cfg.eps_rel * max(np.linalg.norm(local),
                                       math.sqrt(q_count) * np.linalg.norm(x_global)))
        eps_dual = (math.sqrt(q_count * n) * cfg.eps_abs
                    + cfg.eps_rel * np.linalg.norm(state.dual))
    else:
        x_bar = _sum_ascending(list(local))
        primal_norm = np.linalg.norm(x_bar - x_global)
        eps_pri = (math.sqrt(n) * cfg.eps_abs
                   + cfg.eps_rel * max(np.linalg.norm(x_bar),
                                       np.linalg.norm(x_global)))
        eps_dual = (math.sqrt(n) * cfg.eps_abs
                    + cfg.eps_rel * np.linalg.norm(state.dual))
    return float(primal_norm), float(dual_norm), float(eps_pri), float(eps_dual)


def _thread_pool(threads):
    # a context manager yielding the executor, or None for the serial path
    return ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()


def _map_clusters(pool, task, q_count):
    # task(q) for q = 0..Q-1, results in cluster order whatever the schedule
    if pool is None:
        return [task(q) for q in range(q_count)]
    return list(pool.map(task, range(q_count)))


def run(method, operators, measurements, cfg, threads=1, on_iteration=None):
    """Full ADMM loop for either method.

    Starts from all-zero primal and dual variables. Each outer iteration
    performs local updates (reading only iteration-k shared state), the
    global update, the dual update, and the stopping check. on_iteration,
    when given, receives the SolverState after every outer iteration.

    Every per-cluster stage runs as one task per cluster, on a thread pool
    when threads > 1: before the loop, building (or reusing, from an
    earlier run on the same geometry and values) the solve matrix for
    (cfg.mu, cfg.beta) and forming mu*A_q^H y_q; in the loop, the local
    update followed by that cluster's data-fit term of the objective.
    Results are collected and summed in ascending q, so the iterates and
    the objective do not depend on the schedule. A record's wall_ms covers
    the whole iteration, data-fit terms included.
    """
    if method not in (CADMM, SADMM):
        raise ValueError(f"unknown method {method!r}")
    if len(operators) != len(measurements):
        raise ValueError("need exactly one measurement vector per operator")
    if len(operators) == 0:
        raise ValueError("need at least one cluster")
    q_count = len(operators)
    n = operators[0].grid.n_pixels
    local = np.zeros((q_count, n))
    x_global = np.zeros(n)
    dual = np.zeros(q_count * n if method == CADMM else n)
    state = SolverState(local, x_global, dual)
    objective_history = []
    termination = "max_iters"

    def setup(q):
        operators[q].solve_matrix(cfg.mu, cfg.beta)
        return cfg.mu * operators[q].adjoint(measurements[q])

    with _thread_pool(threads) as pool:
        mu_ahy = _map_clusters(pool, setup, q_count)
        for k in range(cfg.max_outer_iters):
            t0 = time.perf_counter()
            if method == SADMM:
                x_bar_prev = _sum_ascending(list(local))

            def one(q):
                if method == CADMM:
                    x_q = local_update_cadmm(
                        operators[q], mu_ahy[q], x_global,
                        dual[q * n:(q + 1) * n], cfg)
                else:
                    x_q = local_update_sadmm(
                        operators[q], mu_ahy[q], x_global,
                        x_bar_prev, local[q], dual, cfg)
                r = measurements[q] - operators[q].apply(x_q)  # data-fit term
                return x_q, (cfg.mu / 2) * float(np.vdot(r, r).real)

            new_local, fits = zip(*_map_clusters(pool, one, q_count))
            local = np.stack(new_local)
            if method == CADMM:
                x_global_new = global_update_cadmm(local, dual, cfg)
            else:
                x_global_new = global_update_sadmm(_sum_ascending(list(local)),
                                                   dual, cfg)
            dual = dual_update(method, local, x_global_new, dual, cfg)
            x_global_prev, x_global = x_global, x_global_new
            state = SolverState(local, x_global, dual, iter=k + 1,
                                residual_log=state.residual_log)
            primal, dual_res, eps_pri, eps_dual = residuals_and_tolerances(
                method, x_global_prev, state, cfg)
            objective = 0.0
            for fit in fits:  # left to right; sum() compensates from Python 3.12
                objective += fit
            objective_history.append(
                objective + cfg.lam * float(np.sum(np.abs(x_global))))
            wall_ms = (time.perf_counter() - t0) * 1e3
            state.residual_log.append(IterationRecord(
                k + 1, primal, dual_res, eps_pri, eps_dual, wall_ms))
            if on_iteration is not None:
                on_iteration(state)
            if primal <= eps_pri and dual_res <= eps_dual:
                termination = "converged"
                break
    return ReconstructionResult(state, termination, objective_history)


@dataclass
class CompositeResult:
    image: np.ndarray  # (N,), the per-cluster images fused by maximum
    iterations: list  # FISTA iterations per cluster
    residuals: list  # final relative prox-gradient residual per cluster
    termination: str  # "converged" if every cluster met tol, else "max_iters"


def composite_lipschitz(op):
    """2*lambda_max(A A^H) = 2*||A||_2^2, from the real MW x MW row Gram.

    It bounds the Lipschitz constant 2*lambda_max(Re(A^H A)) of the
    gradient of ||y - A x||^2 over real x. The Gram is built per call and
    dropped: a cached Gram per cluster would stay resident for the run.
    """
    return 2.0 * np.linalg.eigvalsh(op.row_gram())[-1]


def composite_baseline(operators, measurements, lambda_c, max_iters=10_000,
                       tol=1e-7, threads=1):
    """Per-cluster sparse reconstruction fused by pixel-wise maximum.

    Each cluster solves min ||y_q - A_q x||^2 + lambda_c*||x||_1 over
    nonnegative real x with restarted FISTA until its prox-gradient
    residual falls below tol times its value at zero; max_iters only
    guards the loop, and a cluster that reaches it makes the termination
    "max_iters". The step is 1/composite_lipschitz(A_q). The problems
    run one task per cluster on a thread pool when threads > 1; the fused
    image is the element-wise maximum across clusters, taken in
    ascending q.
    """
    if len(operators) == 0:
        raise ValueError("need at least one cluster")
    if len(operators) != len(measurements):
        raise ValueError("need exactly one measurement vector per operator")
    if not 0 <= lambda_c < math.inf:  # a negative weight is unbounded below
        raise ValueError("lambda_c must be nonnegative and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    def solve(q):
        op = operators[q]
        lipschitz = composite_lipschitz(op)
        ahy = op.adjoint(measurements[q])

        def grad(x):
            return 2.0 * (op.normal_apply(x.astype(complex)) - ahy).real

        return accelerated_prox_gradient(
            grad, lipschitz, lambda_c, op.grid.n_pixels, max_iters, tol)

    with _thread_pool(threads) as pool:
        images, iterations, residuals = zip(*_map_clusters(
            pool, solve, len(operators)))
    fused = images[0]
    for img in images[1:]:
        fused = np.maximum(fused, img)
    # a cluster that stopped before the cap met the stop rule; at the cap
    # only its residual tells
    converged = all(it < max_iters or r < tol
                    for it, r in zip(iterations, residuals))
    return CompositeResult(fused, list(iterations), list(residuals),
                           "converged" if converged else "max_iters")
