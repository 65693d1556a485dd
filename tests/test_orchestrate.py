import math

import numpy as np
import pytest

from distradar.model import SceneGrid, make_operator
from distradar.orchestrate import (BROADCAST, UNICAST, UPLINK,
                                   downlink_elements_per_iteration,
                                   export_trace, iteration_schedule,
                                   memory_audit, run_message_passing)
from distradar.simulate import (Scatterer, SimScenario, make_uniform_clusters,
                                synthesize_measurements)
from distradar.solvers import CADMM, SADMM, SolverConfig, run


def _setup(q_count=4, seed=0):
    grid = SceneGrid(8, 8, 4.0, 4.0)
    clusters = make_uniform_clusters(q_count, math.radians(3.0), 3,
                                     math.radians(25.0), 9.6e9, 1.0e9, 4)
    rng = np.random.default_rng(seed)
    scatterers = [Scatterer((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)), 1.0)
                  for _ in range(3)]
    scenario = SimScenario(grid, clusters, scatterers, 20.0, seed)
    histories = synthesize_measurements(scenario)
    ops = [make_operator(grid, c) for c in clusters]
    return ops, [h.data for h in histories]


def test_schedule_cadmm_counts():
    records = iteration_schedule(CADMM, 5, 100)
    assert len(records) == 2 * 5 + 1
    assert sum(r.direction == UPLINK for r in records) == 5
    assert sum(r.direction == BROADCAST for r in records) == 1
    assert sum(r.direction == UNICAST for r in records) == 5
    assert all(r.payload_len == 100 for r in records)


def test_schedule_sadmm_counts():
    records = iteration_schedule(SADMM, 5, 100)
    assert len(records) == 5 + 3
    assert sum(r.direction == UPLINK for r in records) == 5
    assert sum(r.direction == BROADCAST for r in records) == 3
    assert all(r.payload_len == 100 for r in records)


def test_schedule_validation():
    with pytest.raises(ValueError):
        iteration_schedule(CADMM, 0, 10)
    with pytest.raises(ValueError):
        iteration_schedule("bogus", 2, 10)


def test_downlink_volume_scaling():
    n = 64
    for q in (1, 2, 8, 32):
        assert downlink_elements_per_iteration(CADMM, q, n) == (q + 1) * n
        assert downlink_elements_per_iteration(SADMM, q, n) == 3 * n


def test_memory_audit():
    assert memory_audit(CADMM, 64) == {"persistent": 64,
                                       "received_per_iter": 128}
    assert memory_audit(SADMM, 64) == {"persistent": 64,
                                       "received_per_iter": 192}
    with pytest.raises(ValueError):
        memory_audit("bogus", 64)


@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_message_passing_bitwise_matches_monolithic(method):
    ops, ys = _setup()
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, eps_abs=1e-3, eps_rel=1e-3,
                       max_outer_iters=50)
    mono = run(method, ops, ys, cfg)
    dist, trace = run_message_passing(method, ops, ys, cfg)
    np.testing.assert_array_equal(dist.state.global_image,
                                  mono.state.global_image)
    np.testing.assert_array_equal(dist.state.local_images,
                                  mono.state.local_images)
    np.testing.assert_array_equal(dist.state.dual, mono.state.dual)
    assert dist.termination == mono.termination
    assert dist.objective_history == mono.objective_history
    for a, b in zip(dist.state.residual_log, mono.state.residual_log):
        assert (a.iteration, a.primal_norm, a.dual_norm, a.eps_pri,
                a.eps_dual) == (b.iteration, b.primal_norm, b.dual_norm,
                                b.eps_pri, b.eps_dual)


@pytest.mark.parametrize("method", [CADMM, SADMM])
def test_trace_matches_schedule(method):
    ops, ys = _setup(q_count=3)
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, max_outer_iters=4)
    result, trace = run_message_passing(method, ops, ys, cfg)
    iters = result.state.iter
    per_iter = len(iteration_schedule(method, 3, 64))
    assert len(trace) == iters * per_iter
    for k in range(1, iters + 1):
        chunk = [r for r in trace if r.iter == k]
        expected = iteration_schedule(method, 3, 64, iteration=k)
        assert chunk == expected


def test_message_passing_validation():
    ops, ys = _setup(q_count=2)
    with pytest.raises(ValueError):
        run_message_passing(CADMM, ops, ys[:1], SolverConfig())
    with pytest.raises(ValueError):
        run_message_passing(CADMM, [], [], SolverConfig())
    with pytest.raises(ValueError, match="unknown method"):
        run_message_passing("bogus", ops, ys, SolverConfig())


def test_export_trace_csv(tmp_path):
    ops, ys = _setup(q_count=2)
    cfg = SolverConfig(mu=1.0, lam=5.0, beta=5.0, max_outer_iters=2)
    _, trace = run_message_passing(CADMM, ops, ys, cfg)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,direction,sender,payload_kind,payload_len"
    assert len(lines) == 1 + len(trace)
    assert lines[1] == "1,uplink,cluster:0,local_image,64"
