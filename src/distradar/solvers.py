"""CADMM and SADMM reconstruction engines plus the shared numerics.

Both engines optimize

    sum_q (mu/2)*||y_q - A_q x_q||^2 + lambda*||x_G||_1

over nonnegative magnitude images, differing only in the coupling
constraint: consensus ties every local image to the global one
(x_q = x_G for all q), sharing ties their sum (sum_q x_q = x_G). One
loop, run, serves both forms. Local updates are exact solves through the
matrix-inversion lemma on each cluster's cached real inverse of
beta*I + mu*A_q A_q^H; global updates are exact one-sided soft-thresholds.
solve_lasso, restarted FISTA on the nonnegative lasso of any cluster set,
serves the per-cluster composite baseline.

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

from . import model

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
    dual: np.ndarray  # sized like the coupling gap: (Q*N,) CADMM, (N,) SADMM
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


def local_update(op, mu_ahy, target, sigma_q, cfg):
    """Closed-form local image update, shared by both coupling forms.

    Solves (mu*A^H A + beta*I) v = mu*A^H y + beta*target - sigma_q
    exactly, then projects onto the real nonnegative orthant. mu_ahy is
    the iteration-invariant term mu*A^H y. run picks the other two: x_G
    and the cluster's dual slice for consensus; for sharing
    x_G - (x_bar_prev - x_q_prev), the sum of the other clusters' previous
    images entering through x_bar_prev, and the full dual.
    """
    rhs = mu_ahy + cfg.beta * target - sigma_q
    return np.maximum(local_solve(op, cfg.mu, cfg.beta, rhs).real, 0.0)


def _sum_ascending(rows):
    # sum of the rows of a 2-D array or of a list of arrays, first to last:
    # a fixed reduction order for bit reproducibility
    acc = rows[0]
    for row in rows[1:]:
        acc = acc + row
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
    x_sum = _sum_ascending(local_images)
    sigma_sum = _sum_ascending(sigma.reshape(q_count, n))
    return np.maximum((cfg.beta * x_sum + sigma_sum - cfg.lam)
                      / (q_count * cfg.beta), 0.0)


def global_update_sadmm(x_bar, sigma, cfg):
    """Global image update of the sharing engine, in closed form.

    Minimizes lam*||z||_1 + (beta/2)*||z - x_bar||^2 - sigma^T z over
    z >= 0; the minimizer is max(x_bar + (sigma - lam)/beta, 0).
    """
    return np.maximum(x_bar + (sigma - cfg.lam) / cfg.beta, 0.0)


def residuals_and_tolerances(gap, sizes, x_global, x_global_prev, dual, cfg):
    """Primal/dual residual norms and their feasibility tolerances.

    gap is the coupling residual r = Ax + Bz - c of Boyd et al. (2011,
    section 3.3): the stacked x_q - x_G for consensus, sum_q x_q - x_G for
    sharing. sizes holds the norms of its two sides. The primal residual
    is ||gap|| and the dual residual beta*||x_G - x_G_prev||; both
    tolerances are sqrt(gap.size)*eps_abs plus eps_rel times max(sizes)
    for the primal one, ||dual|| for the dual one.
    """
    root = math.sqrt(gap.size)
    primal_norm = np.linalg.norm(gap)
    dual_norm = np.linalg.norm(cfg.beta * (x_global - x_global_prev))
    eps_pri = root * cfg.eps_abs + cfg.eps_rel * max(sizes)
    eps_dual = root * cfg.eps_abs + cfg.eps_rel * np.linalg.norm(dual)
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

    Starts from all-zero primal and dual variables. Past the dual's size,
    the coupling form is decided in two places: the local targets, and the
    global step with its coupling gap. Everything else is shared. Each outer iteration performs
    the local updates (reading only iteration-k shared state), the global
    update, the dual step dual + beta*gap, and the stopping check on the
    same gap. on_iteration, when given, receives the SolverState after
    every outer iteration.

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
    model.check_cluster_set(operators, measurements)
    q_count = len(operators)
    n = operators[0].grid.n_pixels
    local = np.zeros((q_count, n))
    x_bar = np.zeros(n)  # sharing's sum_q x_q, kept for the next targets
    x_global = np.zeros(n)
    dual = np.zeros(q_count * n if method == CADMM else n)
    state = SolverState(local, x_global, dual)
    objective_history = []
    termination = "max_iters"

    def setup(q):
        operators[q].solve_matrix(cfg.mu, cfg.beta)
        return cfg.mu * operators[q].adjoint(measurements[q])

    def one(q):
        if method == CADMM:
            target, sigma_q = x_global, dual[q * n:(q + 1) * n]
        else:
            target, sigma_q = x_global - (x_bar - local[q]), dual
        x_q = local_update(operators[q], mu_ahy[q], target, sigma_q, cfg)
        r = measurements[q] - operators[q].apply(x_q)  # data-fit term
        return x_q, (cfg.mu / 2) * float(np.vdot(r, r).real)

    with _thread_pool(threads) as pool:
        mu_ahy = _map_clusters(pool, setup, q_count)
        for k in range(cfg.max_outer_iters):
            t0 = time.perf_counter()
            new_local, fits = zip(*_map_clusters(pool, one, q_count))
            local = np.stack(new_local)
            x_global_prev = x_global
            if method == CADMM:
                x_global = global_update_cadmm(local, dual, cfg)
                gap = (local - x_global).reshape(-1)
                sizes = (np.linalg.norm(local),
                         math.sqrt(q_count) * np.linalg.norm(x_global))
            else:
                x_bar = _sum_ascending(local)
                x_global = global_update_sadmm(x_bar, dual, cfg)
                gap = x_bar - x_global
                sizes = (np.linalg.norm(x_bar), np.linalg.norm(x_global))
            dual = dual + cfg.beta * gap
            state = SolverState(local, x_global, dual, iter=k + 1,
                                residual_log=state.residual_log)
            primal, dual_res, eps_pri, eps_dual = residuals_and_tolerances(
                gap, sizes, x_global, x_global_prev, dual, cfg)
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


def lasso_lipschitz(operators, mu):
    """mu*sum_q lambda_max(A_q A_q^H) from each cluster's real row Gram, a
    bound on the Lipschitz constant of solve_lasso's gradient, exact
    (mu*||A||_2^2) for one cluster. Each Gram is built per call and
    dropped: a cached Gram per cluster would stay resident for the run."""
    return mu * sum(np.linalg.eigvalsh(op.row_gram())[-1] for op in operators)


def solve_lasso(operators, measurements, mu, lam, max_iters, tol):
    """min sum_q (mu/2)*||y_q - A_q x||^2 + lam*||x||_1 over real x >= 0, by
    accelerated_prox_gradient with step 1/lasso_lipschitz(operators, mu);
    returns its (x, iterations, relative residual). The gradient
    mu*Re sum_q (A_q^H A_q x - A_q^H y_q) is summed in ascending q."""
    model.check_cluster_set(operators, measurements)
    lipschitz = lasso_lipschitz(operators, mu)  # its Grams freed before A^H y
    ahy = [op.adjoint(y) for op, y in zip(operators, measurements)]

    def grad(x):
        x = x.astype(complex)
        return mu * _sum_ascending([op.normal_apply(x) - b
                                    for op, b in zip(operators, ahy)]).real

    return accelerated_prox_gradient(
        grad, lipschitz, lam, operators[0].grid.n_pixels, max_iters, tol)


@dataclass
class CompositeResult:
    image: np.ndarray  # (N,), the per-cluster images fused by maximum
    iterations: list  # FISTA iterations per cluster
    residuals: list  # final relative prox-gradient residual per cluster
    termination: str  # "converged" if every cluster met tol, else "max_iters"


def composite_baseline(operators, measurements, lambda_c, max_iters=10_000,
                       tol=1e-7, threads=1):
    """Per-cluster sparse reconstruction fused by pixel-wise maximum.

    Each cluster solves min ||y_q - A_q x||^2 + lambda_c*||x||_1 over
    nonnegative real x, solve_lasso at mu = 2, until its prox-gradient
    residual falls below tol times its value at zero; max_iters only
    guards the loop, and a cluster that reaches it makes the termination
    "max_iters". The problems run one task per cluster on a thread pool
    when threads > 1; the fused image is the element-wise maximum across
    clusters, taken in ascending q.
    """
    model.check_cluster_set(operators, measurements)
    if not 0 <= lambda_c < math.inf:  # a negative weight is unbounded below
        raise ValueError("lambda_c must be nonnegative and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    def solve(q):
        return solve_lasso([operators[q]], [measurements[q]], 2.0, lambda_c,
                           max_iters, tol)

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
