import numpy as np
import pytest

from zojade import (
    BaselineConfig,
    ConfigurationError,
    JadeConfig,
    ProblemInstance,
    QuadraticObjective,
    SmoothnessConstants,
    consensus_gd_step,
    draw_initial_iterates,
    gradient_tracking_step,
    initial_state,
    jade_step,
    metropolis_hastings,
    run,
    separable_quadratic_instance,
    spectral_gap,
    topology_from_spec,
)


def single_agent_quadratic(a: float, b: float) -> ProblemInstance:
    model = QuadraticObjective(np.array([[a]]), np.array([b]))
    return ProblemInstance(
        models=[model],
        d=1,
        x_star=np.array([-b / a]),
        f_star=-0.5 * b * b / a,
        constants=SmoothnessConstants(a, a, 0.0, 0.0),
    )


def replicated_instance(model, n, d):
    x_star = np.zeros(d)
    return ProblemInstance(
        models=[model] * n,
        d=d,
        x_star=x_star,
        f_star=float(model.value_many(x_star[None])[0]),
        constants=SmoothnessConstants(None, None, None, None),
    )


def test_single_agent_full_jump_lands_on_minimizer():
    # exact estimates on a quadratic: one epsilon = 1 step solves it
    inst = single_agent_quadratic(a=2.5, b=1.7)
    P = metropolis_hastings(topology_from_spec("complete", 1))
    cfg = JadeConfig(mu=0.3, epsilon=1.0, budget=10)
    state = initial_state(np.array([[4.0]]), P)
    state = jade_step(state, inst.black_boxes(), cfg)
    assert abs(state.x[0, 0] - (-1.7 / 2.5)) <= 1e-10


def test_identical_quadratics_fixed_point_is_invariant():
    a = np.array([2.0, 0.5, 1.5])
    b = np.array([1.0, -0.4, 0.3])
    model = QuadraticObjective(np.diag(a), b)
    inst = replicated_instance(model, n=4, d=3)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    cfg = JadeConfig(mu=0.05, epsilon=0.3, budget=10_000)
    x_fix = -b / a
    state = initial_state(np.tile(x_fix, (4, 1)), P)
    objectives = inst.black_boxes()
    for _ in range(5):
        state = jade_step(state, objectives, cfg)
        assert np.max(np.abs(state.x - x_fix)) <= 1e-12


def test_jade_query_cost_per_step():
    inst = separable_quadratic_instance(5, 4, seed=1)
    P = metropolis_hastings(topology_from_spec("ring", 5))
    cfg = JadeConfig(mu=0.1, epsilon=0.2, budget=10_000)
    state = initial_state(draw_initial_iterates(3, 5, 4, 1.0), P)
    objectives = inst.black_boxes()
    for t in range(1, 4):
        state = jade_step(state, objectives, cfg)
        assert all(o.query_count == 9 * t for o in objectives)


def test_gradient_tracking_one_step_quadratic():
    inst = single_agent_quadratic(a=3.0, b=0.0)
    P = metropolis_hastings(topology_from_spec("complete", 1))
    cfg = BaselineConfig(mu=0.2, eta=1.0 / 3.0, budget=10)
    state = initial_state(np.array([[2.0]]), P)
    state = gradient_tracking_step(state, inst.black_boxes(), cfg)
    assert abs(state.x[0, 0]) <= 1e-12


def test_gradient_tracking_zero_step_size_keeps_single_agent_fixed():
    inst = single_agent_quadratic(a=1.0, b=2.0)
    P = metropolis_hastings(topology_from_spec("complete", 1))
    cfg = BaselineConfig(mu=0.1, eta=0.0, budget=100)
    state = initial_state(np.array([[1.5]]), P)
    objectives = inst.black_boxes()
    for _ in range(5):
        state = gradient_tracking_step(state, objectives, cfg)
        assert state.x[0, 0] == 1.5


def test_gradient_tracking_preserves_mean_at_zero_step_size():
    inst = separable_quadratic_instance(5, 2, seed=3)
    P = metropolis_hastings(topology_from_spec("ring", 5))
    cfg = BaselineConfig(mu=0.1, eta=0.0, budget=10_000)
    state = initial_state(draw_initial_iterates(1, 5, 2, 1.0), P)
    mean0 = state.x.mean(axis=0)
    objectives = inst.black_boxes()
    for _ in range(20):
        state = gradient_tracking_step(state, objectives, cfg)
    assert np.max(np.abs(state.x.mean(axis=0) - mean0)) <= 1e-12


def test_gradient_tracking_conservation_each_step():
    inst = separable_quadratic_instance(6, 3, seed=4)
    P = metropolis_hastings(topology_from_spec("path", 6))
    cfg = BaselineConfig(mu=0.05, eta=0.05, budget=10_000)
    state = initial_state(draw_initial_iterates(2, 6, 3, 1.0), P)
    objectives = inst.black_boxes()
    for _ in range(30):
        state = gradient_tracking_step(state, objectives, cfg)
        gap = np.max(np.abs(state.y.sum(axis=0) - state.g.sum(axis=0)))
        assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(state.g))))


def test_consensus_gd_single_agent_is_plain_descent():
    inst = single_agent_quadratic(a=2.0, b=0.5)
    P = metropolis_hastings(topology_from_spec("complete", 1))
    cfg = BaselineConfig(mu=0.1, eta=0.1, budget=10_000)
    state = initial_state(np.array([[1.0]]), P)
    x = 1.0
    objectives = inst.black_boxes()
    for _ in range(10):
        state = consensus_gd_step(state, objectives, cfg)
        x = x - 0.1 * (2.0 * x + 0.5)
        assert abs(state.x[0, 0] - x) <= 1e-12


def test_consensus_gd_pure_consensus_contracts_at_gap_rate():
    inst = separable_quadratic_instance(8, 2, seed=5)
    graph = topology_from_spec("ring", 8)
    P = metropolis_hastings(graph)
    gap = spectral_gap(P)
    cfg = BaselineConfig(mu=0.1, eta=0.0, budget=100_000)
    state = initial_state(draw_initial_iterates(4, 8, 2, 1.0), P)
    base = state.consensus_error()
    objectives = inst.black_boxes()
    for t in range(1, 60):
        state = consensus_gd_step(state, objectives, cfg)
        assert state.consensus_error() <= gap**t * base + 1e-9


def test_consensus_gd_identical_agents_track_centralized_descent():
    a = np.array([1.0, 2.0])
    model = QuadraticObjective(np.diag(a), np.array([0.3, -0.2]))
    inst = replicated_instance(model, n=5, d=2)
    P = metropolis_hastings(topology_from_spec("complete", 5))
    cfg = BaselineConfig(mu=0.05, eta=0.1, budget=100_000)
    x0 = np.array([0.7, -1.1])
    state = initial_state(np.tile(x0, (5, 1)), P)
    x = x0.copy()
    objectives = inst.black_boxes()
    for _ in range(25):
        state = consensus_gd_step(state, objectives, cfg)
        x = x - 0.1 * model.gradient(x)
        assert np.max(np.abs(state.x - x)) <= 1e-9


def test_run_budget_smaller_than_one_step_records_initial_row_only():
    inst = separable_quadratic_instance(3, 4, seed=6)
    P = metropolis_hastings(topology_from_spec("ring", 3))
    cfg = JadeConfig(mu=0.1, epsilon=0.2, budget=2 * 4)  # < 2d + 1 = 9
    trace = run("zo_jade", inst, P, cfg, seed=1)
    assert len(trace.rows) == 1
    assert trace.rows[0].iteration == 0
    assert trace.rows[0].queries_per_agent == 0


def test_run_is_deterministic_per_seed():
    inst = separable_quadratic_instance(4, 3, seed=7)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    cfg = JadeConfig(mu=0.05, epsilon=0.2, budget=7 * 40, record_every=3)
    a = run("zo_jade", inst, P, cfg, seed=9)
    b = run("zo_jade", inst, P, cfg, seed=9)
    assert [r.__dict__ for r in a.rows] == [r.__dict__ for r in b.rows]
    assert np.array_equal(a.final_x, b.final_x)
    c = run("zo_jade", inst, P, cfg, seed=10)
    assert not np.array_equal(a.final_x, c.final_x)


def test_trajectories_independent_of_mu_on_quadratics():
    # exact estimates at both steps; the only trajectory difference is
    # float cancellation noise, which stays below 1e-8 at O(1) problem scale
    inst = separable_quadratic_instance(5, 3, seed=8, b_scale=0.5)
    P = metropolis_hastings(topology_from_spec("complete", 5))
    x0 = draw_initial_iterates(2, 5, 3, 0.7)
    states = [initial_state(x0, P), initial_state(x0, P)]
    cfgs = [
        JadeConfig(mu=1e-1, epsilon=0.3, budget=10**6),
        JadeConfig(mu=1e-4, epsilon=0.3, budget=10**6),
    ]
    objectives = [inst.black_boxes(), inst.black_boxes()]
    for _ in range(300):
        states = [jade_step(s, f, c) for s, f, c in zip(states, objectives, cfgs)]
        assert np.max(np.abs(states[0].x - states[1].x)) <= 1e-8


def test_budget_exhaustion_and_query_accounting():
    inst = separable_quadratic_instance(4, 5, seed=9)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    budget = 11 * 17 + 3  # 17 full steps of 2d + 1 = 11, plus change
    trace = run("zo_jade", inst, P, JadeConfig(mu=0.1, epsilon=0.2, budget=budget), 1)
    assert trace.rows[-1].iteration == 17
    assert trace.rows[-1].queries_per_agent == 17 * 11
    trace = run(
        "gradient_tracking", inst, P, BaselineConfig(mu=0.1, eta=0.05, budget=100), 1
    )
    assert trace.rows[-1].queries_per_agent == 10 * (100 // 10)


def test_monotone_loss_decrease_on_separable_suite():
    inst = separable_quadratic_instance(6, 3, seed=11)
    P = metropolis_hastings(topology_from_spec("complete", 6))
    cfg = JadeConfig(mu=0.05, epsilon=0.1, budget=7 * 500, record_every=1)
    trace = run("zo_jade", inst, P, cfg, seed=5)
    efs = trace.ef_values()
    # after the two-step warm-up the loss decreases until the float floor
    for prev, nxt in zip(efs[2:], efs[3:]):
        if prev < 1e-13:
            break
        assert nxt <= prev * (1.0 + 1e-12)


def test_consensus_error_vanishes_on_converged_runs():
    inst = separable_quadratic_instance(8, 4, seed=14)
    P = metropolis_hastings(topology_from_spec("ring", 8))
    trace = run("zo_jade", inst, P, JadeConfig(mu=0.05, epsilon=0.2, budget=9 * 600), 7)
    assert not trace.failed
    x_bar_norm = float(np.linalg.norm(trace.final_x.mean(axis=0)))
    assert trace.rows[-1].consensus_error <= 1e-6 * (1.0 + x_bar_norm)


def test_baseline_total_query_accounting():
    inst = separable_quadratic_instance(4, 5, seed=9)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    cfg = BaselineConfig(mu=0.1, eta=0.05, budget=10 * 12)
    state = initial_state(draw_initial_iterates(1, 4, 5, 1.0), P)
    objectives = inst.black_boxes()
    for t in range(1, 4):
        state = gradient_tracking_step(state, objectives, cfg)
        assert all(o.query_count == 10 * t for o in objectives)


def test_clamp_counter_stays_zero_on_strongly_convex_runs():
    inst = separable_quadratic_instance(6, 3, seed=12)
    P = metropolis_hastings(topology_from_spec("ring", 6))
    trace = run("zo_jade", inst, P, JadeConfig(mu=0.05, epsilon=0.2, budget=7 * 300), 3)
    assert trace.rows[-1].clamp_count == 0


class Explosive:
    """exp(||x||^2), whose value overflows once ||x||^2 passes about 709."""

    def value_many(self, X):
        with np.errstate(over="ignore"):
            return np.exp(np.sum(X * X, axis=1))


def test_divergent_run_fails_with_probe_diagnostic():
    inst = ProblemInstance(
        models=[Explosive()],
        d=1,
        x_star=np.zeros(1),
        f_star=1.0,
        constants=SmoothnessConstants(None, None, None, None),
    )
    P = metropolis_hastings(topology_from_spec("complete", 1))
    # overshooting steps on exp(x^2) oscillate outward until exp overflows
    cfg = BaselineConfig(mu=0.1, eta=1.0, budget=10**6, x0_scale=2.0)
    trace = run("consensus_gd", inst, P, cfg, seed=1)
    assert trace.failed
    assert "probe point" in trace.diagnostic


def test_epsilon_validation():
    with pytest.raises(ConfigurationError):
        JadeConfig(mu=0.1, epsilon=0.0)
    with pytest.raises(ConfigurationError):
        JadeConfig(mu=0.1, epsilon=1.5)
    with pytest.raises(ConfigurationError):
        JadeConfig(mu=-0.1, epsilon=0.5)


def test_unknown_algorithm_rejected():
    inst = separable_quadratic_instance(2, 2, seed=1)
    P = metropolis_hastings(topology_from_spec("complete", 2))
    with pytest.raises(ConfigurationError):
        run("newton", inst, P, JadeConfig(mu=0.1), 1)

