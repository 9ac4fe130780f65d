import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ridge_synthetic,
    separable_quadratic_instance,
    spectral_gap,
    topology_from_spec,
)


def single_agent_quadratic(a: float, b: float) -> ProblemInstance:
    family = QuadraticObjective(np.array([[[a]]]), np.array([[b]]))
    return ProblemInstance(
        family=family,
        d=1,
        x_star=np.array([-b / a]),
        f_star=-0.5 * b * b / a,
        constants=SmoothnessConstants(a, a, 0.0, 0.0),
    )


def replicated_instance(A, b, n):
    """n agents that share the quadratic 0.5 x^T A x + b^T x."""
    family = QuadraticObjective(np.tile(A, (n, 1, 1)), np.tile(b, (n, 1)))
    return ProblemInstance(
        family=family,
        d=len(b),
        x_star=np.zeros(len(b)),
        f_star=0.0,
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
    inst = replicated_instance(np.diag(a), b, n=4)
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
    objective = inst.black_boxes()
    for t in range(1, 4):
        state = jade_step(state, objective, cfg)
        assert objective.agent_queries.tolist() == [9 * t] * 5
        assert objective.query_count == 5 * 9 * t


@pytest.mark.parametrize("step, cfg", [
    # every tracked z lies below the floor, so every round clamps all of them
    (jade_step, JadeConfig(mu=0.1, epsilon=0.2, z_floor=1e3)),
    (gradient_tracking_step, BaselineConfig(mu=0.1, eta=0.05)),
    (consensus_gd_step, BaselineConfig(mu=0.1, eta=0.05)),
], ids=["zo_jade", "gradient_tracking", "consensus_gd"])
def test_a_step_returns_a_new_state_and_leaves_its_input_as_it_was(step, cfg):
    inst = separable_quadratic_instance(5, 3, seed=2)
    P = metropolis_hastings(topology_from_spec("ring", 5))
    state = initial_state(np.stack([draw_initial_iterates(s, 5, 3, 1.0) for s in (1, 2)]), P)
    objective = inst.black_boxes(2)
    for t in range(3):
        before = [getattr(state, k).tobytes() for k in "xghyz"] + [state.clamps.tolist()]
        new = step(state, objective, cfg)
        assert [getattr(state, k).tobytes() for k in "xghyz"] + [state.clamps.tolist()] == before
        assert (state.iteration, new.iteration) == (t, t + 1)
        added = new.clamps - state.clamps
        assert added.tolist() == ([5 * 3] * 2 if step is jade_step else [0, 0])
        state = new


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


@settings(max_examples=25, deadline=None)
@given(
    algorithm=st.sampled_from(["zo_jade", "gradient_tracking"]),
    family=st.sampled_from(["separable", "ridge"]),
    n=st.integers(1, 8),
    d=st.integers(1, 4),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**16),
)
@example(algorithm="zo_jade", family="ridge", n=1, d=3, p=0.5, seed=1)
@example(algorithm="gradient_tracking", family="separable", n=1, d=3, p=0.5, seed=1)
def test_tracked_sums_conserved_on_random_graphs_and_instances(algorithm, family, n, d, p, seed):
    P = metropolis_hastings(topology_from_spec("erdos_renyi", n, p=p, seed=seed))
    if family == "separable":
        inst = separable_quadratic_instance(n, d, seed=seed)
    else:
        inst = ridge_synthetic(d, 3, n, seed=seed)
    if algorithm == "zo_jade":
        step, cfg = jade_step, JadeConfig(mu=0.05, epsilon=0.3)
    else:
        step, cfg = gradient_tracking_step, BaselineConfig(mu=0.05, eta=0.5 / inst.constants.L1)
    state = initial_state(draw_initial_iterates(seed, n, d, 1.0), P)
    objective = inst.black_boxes()
    # rounding accumulates over the steps, so the scale is the largest
    # summand of each tracked pair seen so far
    scales = [0.0, 0.0]
    for _ in range(15):
        state = step(state, objective, cfg)
        for k, (tracked, signal) in enumerate([(state.y, state.g), (state.z, state.h)]):
            scales[k] = max(scales[k], np.max(np.abs(tracked)), np.max(np.abs(signal)))
            gap = np.max(np.abs(tracked.sum(axis=0) - signal.sum(axis=0)))
            assert gap <= 1e-12 * scales[k]


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(["zo_jade", "gradient_tracking", "consensus_gd"]),
    n=st.integers(1, 5),
    d=st.integers(1, 4),
    budget=st.integers(1, 60),
    record_every=st.integers(1, 4),
)
@example(algorithm="zo_jade", n=2, d=3, budget=6, record_every=1)
@example(algorithm="consensus_gd", n=1, d=2, budget=3, record_every=2)
def test_query_totals_equal_iterations_times_step_cost(algorithm, n, d, budget, record_every):
    inst = separable_quadratic_instance(n, d, seed=n + d)
    P = metropolis_hastings(topology_from_spec("ring", n))
    counters = []
    fresh = inst.black_boxes

    def counted_black_boxes(*args):
        counters.append(fresh(*args))
        return counters[-1]

    inst.black_boxes = counted_black_boxes  # keeps the counter that run() queries through
    config = JadeConfig if algorithm == "zo_jade" else BaselineConfig
    (trace,) = run(algorithm, inst, P,
                   [(config(mu=0.05, budget=budget, record_every=record_every), 1)])
    per_step = 2 * d + 1 if algorithm == "zo_jade" else 2 * d
    iterations = budget // per_step  # zero when the budget is below one step
    assert trace.rows[-1].iteration == iterations
    assert trace.rows[-1].queries_per_agent == iterations * per_step
    assert len(counters) == 1
    assert counters[0].agent_queries.tolist() == [[iterations * per_step] * n]


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
    inst = replicated_instance(np.diag(a), np.array([0.3, -0.2]), n=5)
    P = metropolis_hastings(topology_from_spec("complete", 5))
    cfg = BaselineConfig(mu=0.05, eta=0.1, budget=100_000)
    x0 = np.array([0.7, -1.1])
    state = initial_state(np.tile(x0, (5, 1)), P)
    x = x0.copy()
    objectives = inst.black_boxes()
    for _ in range(25):
        state = consensus_gd_step(state, objectives, cfg)
        x = x - 0.1 * inst.family.gradient(x)[0]
        assert np.max(np.abs(state.x - x)) <= 1e-9


def test_run_budget_smaller_than_one_step_records_initial_row_only():
    inst = separable_quadratic_instance(3, 4, seed=6)
    P = metropolis_hastings(topology_from_spec("ring", 3))
    cfg = JadeConfig(mu=0.1, epsilon=0.2, budget=2 * 4)  # < 2d + 1 = 9
    (trace,) = run("zo_jade", inst, P, [(cfg, 1)])
    assert len(trace.rows) == 1
    assert trace.rows[0].iteration == 0
    assert trace.rows[0].queries_per_agent == 0


def test_run_is_deterministic_per_seed():
    inst = separable_quadratic_instance(4, 3, seed=7)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    cfg = JadeConfig(mu=0.05, epsilon=0.2, budget=7 * 40, record_every=3)
    (a,) = run("zo_jade", inst, P, [(cfg, 9)])
    (b,) = run("zo_jade", inst, P, [(cfg, 9)])
    assert [r.__dict__ for r in a.rows] == [r.__dict__ for r in b.rows]
    assert np.array_equal(a.final_x, b.final_x)
    (c,) = run("zo_jade", inst, P, [(cfg, 10)])
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
    (trace,) = run("zo_jade", inst, P, [(JadeConfig(mu=0.1, epsilon=0.2, budget=budget), 1)])
    assert trace.rows[-1].iteration == 17
    assert trace.rows[-1].queries_per_agent == 17 * 11
    (trace,) = run(
        "gradient_tracking", inst, P, [(BaselineConfig(mu=0.1, eta=0.05, budget=100), 1)]
    )
    assert trace.rows[-1].queries_per_agent == 10 * (100 // 10)


def test_monotone_loss_decrease_on_separable_suite():
    inst = separable_quadratic_instance(6, 3, seed=11)
    P = metropolis_hastings(topology_from_spec("complete", 6))
    cfg = JadeConfig(mu=0.05, epsilon=0.1, budget=7 * 500, record_every=1)
    (trace,) = run("zo_jade", inst, P, [(cfg, 5)])
    efs = trace.ef_values()
    # after the two-step warm-up the loss decreases until the float floor
    for prev, nxt in zip(efs[2:], efs[3:]):
        if prev < 1e-13:
            break
        assert nxt <= prev * (1.0 + 1e-12)


def test_consensus_error_vanishes_on_converged_runs():
    inst = separable_quadratic_instance(8, 4, seed=14)
    P = metropolis_hastings(topology_from_spec("ring", 8))
    (trace,) = run("zo_jade", inst, P, [(JadeConfig(mu=0.05, epsilon=0.2, budget=9 * 600), 7)])
    assert not trace.failed
    x_bar_norm = float(np.linalg.norm(trace.final_x.mean(axis=0)))
    assert trace.rows[-1].consensus_error <= 1e-6 * (1.0 + x_bar_norm)


def test_baseline_total_query_accounting():
    inst = separable_quadratic_instance(4, 5, seed=9)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    cfg = BaselineConfig(mu=0.1, eta=0.05, budget=10 * 12)
    state = initial_state(draw_initial_iterates(1, 4, 5, 1.0), P)
    objective = inst.black_boxes()
    for t in range(1, 4):
        state = gradient_tracking_step(state, objective, cfg)
        assert objective.agent_queries.tolist() == [10 * t] * 4
        assert objective.query_count == 4 * 10 * t


def test_clamp_counter_stays_zero_on_strongly_convex_runs():
    inst = separable_quadratic_instance(6, 3, seed=12)
    P = metropolis_hastings(topology_from_spec("ring", 6))
    (trace,) = run("zo_jade", inst, P, [(JadeConfig(mu=0.05, epsilon=0.2, budget=7 * 300), 3)])
    assert trace.rows[-1].clamp_count == 0


class Explosive:
    """Agent i's cost exp(s_i ||x||^2), which overflows once s_i ||x||^2
    passes about 709."""

    row_elements = 1

    def __init__(self, scales):
        self.scales = np.asarray(scales, dtype=float)
        self.n = len(self.scales)

    def value_many(self, X, agents=slice(None)):
        with np.errstate(over="ignore"):
            return np.exp(self.scales[agents, None] * np.sum(X * X, axis=-1))


def test_divergent_run_fails_with_probe_diagnostic():
    inst = ProblemInstance(
        family=Explosive([1.0]),
        d=1,
        x_star=np.zeros(1),
        f_star=1.0,
        constants=SmoothnessConstants(None, None, None, None),
    )
    P = metropolis_hastings(topology_from_spec("complete", 1))
    # overshooting steps on exp(x^2) oscillate outward until exp overflows
    cfg = BaselineConfig(mu=0.1, eta=1.0, budget=10**6, x0_scale=2.0)
    (trace,) = run("consensus_gd", inst, P, [(cfg, 1)])
    assert trace.failed
    assert "probe point" in trace.diagnostic


def test_divergence_diagnostic_names_the_failing_agent():
    # agent 2's steep cost throws its iterate far out after one step, and its
    # next probe overflows while the two flat agents stay finite
    inst = ProblemInstance(
        family=Explosive([0.01, 0.01, 1.0]),
        d=1,
        x_star=np.zeros(1),
        f_star=1.0,
        constants=SmoothnessConstants(None, None, None, None),
    )
    P = metropolis_hastings(topology_from_spec("complete", 3))
    cfg = BaselineConfig(mu=0.1, eta=1.0, budget=10**6, x0_scale=2.0)
    (trace,) = run("consensus_gd", inst, P, [(cfg, 1)])
    assert trace.failed
    assert "agent 2 returned inf at probe point" in trace.diagnostic
    assert "(coordinate 0, +mu)" in trace.diagnostic


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
        run("newton", inst, P, [(JadeConfig(mu=0.1), 1)])


def test_run_rejects_a_consensus_matrix_of_the_wrong_size():
    inst = separable_quadratic_instance(2, 2, seed=1)
    P = metropolis_hastings(topology_from_spec("complete", 3))
    with pytest.raises(ConfigurationError, match="^consensus matrix is 3x3 but the instance has 2"):
        run("zo_jade", inst, P, [(JadeConfig(mu=0.1), 1)])


@pytest.mark.parametrize("shape", [(4,), (3, 2), (2, 3, 2), (1, 2, 4, 2)])
def test_initial_state_rejects_iterates_of_the_wrong_shape(shape):
    P = metropolis_hastings(topology_from_spec("ring", 4))
    with pytest.raises(ConfigurationError, match=rf"^x0 must be .* n=4, got \({shape[0]},"):
        initial_state(np.zeros(shape), P)


@pytest.mark.parametrize("algorithm, replicas, named", [
    ("gradient_tracking", [(JadeConfig(mu=0.1, budget=40), 1)],
     ["gradient_tracking", "BaselineConfig", "JadeConfig(mu=0.1, budget=40"]),
    ("zo_jade", [(BaselineConfig(mu=0.1, budget=40), 1)],
     ["zo_jade", "JadeConfig", "BaselineConfig(mu=0.1, budget=40"]),
    ("zo_jade", [], ["zo_jade", "got []"]),
    ("zo_jade", JadeConfig(mu=0.1), ["zo_jade", "got JadeConfig(mu=0.1"]),
    ("consensus_gd",
     [(BaselineConfig(mu=0.1, budget=40), 1), (BaselineConfig(mu=0.1, budget=50), 2)],
     ["consensus_gd", "budget", "[40, 50]"]),
    ("zo_jade", [(JadeConfig(mu=0.1, record_every=2), 1), (JadeConfig(mu=0.2, record_every=3), 1)],
     ["zo_jade", "record_every", "[2, 3]"]),
    ("zo_jade", [(JadeConfig(mu=0.1), 1), (JadeConfig(mu=0.2), 1), (JadeConfig(mu=0.1), 1)],
     ["zo_jade", "replica 2", "(JadeConfig(mu=0.1, ", "), 1)"]),
], ids=["baseline-given-jade", "jade-given-baseline", "empty", "not-a-list", "budgets",
        "record-strides", "repeated-pair"])
def test_run_rejects_a_malformed_replica_list(algorithm, replicas, named):
    inst = separable_quadratic_instance(2, 2, seed=1)
    P = metropolis_hastings(topology_from_spec("complete", 2))
    with pytest.raises(ConfigurationError) as info:
        run(algorithm, inst, P, replicas)
    for text in named:
        assert text in str(info.value)
