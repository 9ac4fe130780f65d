import json
import math
import os
import re
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from zojade import (
    BlackBoxObjective,
    ConfigurationError,
    ExperimentConfig,
    JadeConfig,
    ProblemInstance,
    QuadraticObjective,
    SmoothnessConstants,
    Xoshiro256,
    aggregate_traces,
    descent_coefficient,
    estimate_both,
    estimate_gradient,
    fit_exponential_rate,
    gamma_mu_scaling_check,
    gradient_tracking_step,
    loss_metric,
    lyapunov_bounds_check,
    metropolis_hastings,
    quartic_instance,
    read_trace_csv,
    ridge_instance_from_shards,
    run,
    run_experiment,
    separable_quadratic_instance,
    solve_estimator_zero,
    synthetic_classification,
    topology_from_spec,
)
from zojade import harness
from zojade.algorithms import NetworkState
from zojade.cli import main as cli_main
from zojade.metrics import TRACE_DTYPE, RunTrace, ef_mode, squares
from zojade.objectives import FAMILIES
from zojade.oracle import gradient_lipschitz_bound, hessian_error_bound

ROOT = Path(__file__).resolve().parents[1]


def tiny_config(tmp_path=None, **overrides):
    data = {
        "topology": {"name": "ring", "n": 4},
        "instance": {"family": "separable_quadratic", "d": 3, "seed": 1},
        "mu": 0.05,
        "budget": 7 * 80,
        "seeds": [1, 2],
        "record_every": 4,
        "algorithms": [{"name": "zo_jade", "epsilon": 0.2}],
    }
    data.update(overrides)
    if tmp_path is not None:
        data["out_dir"] = str(tmp_path / "out")
    return ExperimentConfig(data)


def shifted_parabola_instance():
    # f(x) = (x - 1)^2 + 1, so f* = 1 and e_f at x = 2 is exactly 1
    family = QuadraticObjective(np.array([[[2.0]]]), np.array([[-2.0]]), c=np.array([2.0]))
    return ProblemInstance(
        family=family,
        d=1,
        x_star=np.array([1.0]),
        f_star=1.0,
        constants=SmoothnessConstants(2.0, 2.0, 0.0, 0.0),
    )


# --- loss metric ---------------------------------------------------------------


def test_loss_metric_zero_at_optimum():
    inst = separable_quadratic_instance(4, 3, seed=2)
    x = np.tile(inst.x_star, (4, 1))
    assert abs(loss_metric(inst, x)) <= 1e-14


def test_loss_metric_hand_value():
    inst = shifted_parabola_instance()
    assert abs(loss_metric(inst, np.array([[2.0]])) - 1.0) <= 1e-15


def test_loss_metric_absolute_fallback():
    inst = ridge_instance_from_shards(np.ones((2, 1)), np.zeros(2), n=1, lam=0.5)
    assert inst.f_star == 0.0
    assert ef_mode(inst) == "absolute"
    value = loss_metric(inst, np.array([[0.5]]))
    assert abs(value - inst.global_value(np.array([0.5]))) <= 1e-15


# --- rate fitting ----------------------------------------------------------------


def test_fit_rate_exact_geometric_curve():
    t = np.arange(40)
    rate, r2 = fit_exponential_rate(t, 0.5**t)
    assert abs(rate - math.log(0.5)) <= 1e-9
    assert r2 == 1.0


def test_fit_rate_constant_curve():
    t = np.arange(30)
    rate, r2 = fit_exponential_rate(t, np.full(30, 0.25))
    assert rate == 0.0
    assert r2 == 1.0


def test_fit_rate_needs_enough_points():
    with pytest.raises(ValueError, match="at least 10"):
        fit_exponential_rate(np.arange(5), np.full(5, 0.5))
    with pytest.raises(ValueError, match="at least 10"):
        fit_exponential_rate(np.arange(30), np.full(30, 1e-15))


# --- aggregation -----------------------------------------------------------------


def test_identical_seeds_aggregate_to_zero_std(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[3])
    a = run_experiment(cfg, out_dir=str(tmp_path / "a"), quiet=True).traces["zo_jade"][3]
    b = run_experiment(cfg, out_dir=str(tmp_path / "b"), quiet=True).traces["zo_jade"][3]
    curve = aggregate_traces("zo_jade", [a, b])
    assert np.max(curve.ef_std) == 0.0
    assert np.array_equal(curve.ef_mean, a.ef_values())


def test_single_trace_aggregate_equals_trace(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[5])
    result = run_experiment(cfg, quiet=True)
    curve = result.curves["zo_jade"]
    trace = result.traces["zo_jade"][5]
    assert np.array_equal(curve.queries, trace.queries())
    assert np.array_equal(curve.ef_mean, trace.ef_values())


def test_aggregate_rejects_mismatched_query_grids():
    def mk(qs, efs, seed):
        t = RunTrace(algorithm="a", seed=seed)
        t.rows = np.zeros(len(qs), TRACE_DTYPE)
        t.rows["iteration"], t.rows["queries_per_agent"], t.rows["e_f"] = range(len(qs)), qs, efs
        return t

    a = mk([0, 10, 20], [1.0, 0.5, 0.25], 1)
    b = mk([0, 10, 20], [1.0, 0.25, 0.75], 2)
    curve = aggregate_traces("a", [a, b])
    assert curve.queries.tolist() == [0, 10, 20]
    assert curve.ef_mean.tolist() == [1.0, 0.375, 0.5]
    assert curve.ef_std.tolist() == [0.0, 0.125, 0.25]
    with pytest.raises(ValueError, match="different query grids"):
        aggregate_traces("a", [a, mk([0, 15], [1.0, 0.4], 3)])
    with pytest.raises(ValueError, match="different query grids"):
        aggregate_traces("a", [a, mk([0, 10], [1.0, 0.4], 3)])


# --- gamma scaling ----------------------------------------------------------------


def test_queries_to_threshold_reads_the_first_row_at_or_below_it():
    rows = np.zeros(5, TRACE_DTYPE)
    rows["queries_per_agent"] = [0, 21, 42, 63, 84]
    rows["e_f"] = [1.0, np.nan, 1e-6, 1e-7, 1e-9]
    trace = RunTrace("zo_jade", 1, rows)
    assert harness.queries_to_threshold(trace, 1e-6) == 42.0
    assert harness.queries_to_threshold(trace, 1e-8) == 84.0
    assert harness.queries_to_threshold(trace, 1e-12) == math.inf


def test_gamma_scaling_rejects_short_or_irregular_lists():
    inst = quartic_instance(3)
    cfg = JadeConfig(mu=0.1, epsilon=0.5, budget=3 * 500)
    with pytest.raises(ConfigurationError, match="at least two"):
        gamma_mu_scaling_check(inst, [0.1], cfg)
    with pytest.raises(ConfigurationError, match="halve"):
        gamma_mu_scaling_check(inst, [0.1, 0.07], cfg)
    with pytest.raises(ConfigurationError, match="admissible"):
        gamma_mu_scaling_check(inst, [0.4, 0.2], cfg)
    # a zero or negative mu is named before the halving check divides by it
    with pytest.raises(ConfigurationError, match=r"^mu_list\[1\] must be .*, got 0\.0$"):
        gamma_mu_scaling_check(inst, [0.1, 0.0], cfg)
    with pytest.raises(ConfigurationError, match=r"^mu_list\[0\] must be .*, got -0\.1$"):
        gamma_mu_scaling_check(inst, [-0.1, -0.05], cfg)


def test_gamma_scaling_on_quadratic_sits_at_float_floor():
    inst = separable_quadratic_instance(4, 2, seed=3)
    cfg = JadeConfig(mu=0.2, epsilon=0.4, budget=5 * 1500, record_every=50)
    distances, _, _ = gamma_mu_scaling_check(inst, [0.2, 0.1], cfg)
    assert all(d <= 1e-8 for d in distances)


def test_gamma_scaling_excludes_runs_that_stop_short_of_stationarity():
    # negative control: 20 rounds leave each run's mean iterate far from the estimator zero
    cfg = JadeConfig(mu=0.2, epsilon=0.5, budget=3 * 20)
    _, ratios, excluded = gamma_mu_scaling_check(quartic_instance(4), [0.2, 0.1, 0.05], cfg)
    assert [mu for mu, _ in excluded] == [0.2, 0.1, 0.05]
    assert all(why.startswith("not stationary: ||grad est|| = ") for _, why in excluded)
    assert ratios == []


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_gamma_scaling_excludes_failed_runs():
    # negative control: initial iterates of order 1e100 make the quartic's probe values overflow
    cfg = JadeConfig(mu=0.2, epsilon=0.5, budget=3 * 20, x0_scale=1e100)
    _, ratios, excluded = gamma_mu_scaling_check(quartic_instance(4), [0.2, 0.1, 0.05], cfg)
    assert [mu for mu, _ in excluded] == [0.2, 0.1, 0.05]
    assert all(why.startswith("run failed: objective 'quartic' agent 0 returned inf")
               for _, why in excluded)
    assert ratios == []


def test_solve_estimator_zero_quartic():
    inst = quartic_instance(4)
    mu = 0.2
    gamma = solve_estimator_zero(inst, mu)
    gb = inst.global_black_box()
    assert np.max(np.abs(estimate_gradient(gb, gamma[None], mu))) <= 1e-12
    # tilted quartic: the zero sits strictly between the origin and x*
    assert 0.0 < gamma[0] < inst.x_star[0]


# --- bound battery ----------------------------------------------------------------


def test_lyapunov_rejects_inadmissible_mu():
    inst = quartic_instance(4)
    with pytest.raises(ConfigurationError, match="admissible"):
        lyapunov_bounds_check(inst, 5, mu=0.5)


def test_lyapunov_isotropic_quadratic_equality_case():
    # f = (m/2)||x||^2: V = m^2 dist^2, so upper and lower coincide with V
    m = 1.7
    family = QuadraticObjective(m * np.eye(2)[None], np.zeros((1, 2)))
    inst = ProblemInstance(
        family=family,
        d=2,
        x_star=np.zeros(2),
        f_star=0.0,
        constants=SmoothnessConstants(m, m, 0.0, 0.0),
    )
    alpha, failures = lyapunov_bounds_check(inst, 25, mu=0.05, radius=1.5)
    assert failures == []
    assert alpha == -1.0  # -m / L1 with L1 = m


def test_lyapunov_flags_understated_curvature():
    # negative control: f = ||x||^2 has curvature 2, declared as m = L1 = 1, so
    # V = 4 dist^2 exceeds K^2 dist^2 = dist^2 and ||dV/dx|| = 8 dist exceeds
    # 2 L1 K dist = 2 dist; the lower and descent bounds still hold
    family = QuadraticObjective(2.0 * np.eye(2)[None], np.zeros((1, 2)))
    inst = ProblemInstance(
        family=family,
        d=2,
        x_star=np.zeros(2),
        f_star=0.0,
        constants=SmoothnessConstants(1.0, 1.0, 0.0, 0.0),
    )
    _, failures = lyapunov_bounds_check(inst, 5, mu=0.05)
    kinds = [line.split(" failed at ")[0] for line in failures]
    assert kinds == ["upper bound", "derivative-norm bound"] * 5


def test_lyapunov_trivial_at_gamma_itself():
    inst = quartic_instance(3)
    # radius 0 puts the sample point on the estimator zero gamma itself
    _, failures = lyapunov_bounds_check(inst, 1, mu=0.1, radius=0.0)
    assert failures == []


def _quadratic(A, m, L1):
    """The quadratic 0.5 x^T A x of one agent, declared with the constants m and L1."""
    d = len(A)
    return ProblemInstance(
        family=QuadraticObjective(np.asarray(A, dtype=float)[None], np.zeros((1, d))),
        d=d,
        x_star=np.zeros(d),
        f_star=0.0,
        constants=SmoothnessConstants(m, L1, 0.0, 0.0),
    )


def _wavy():
    """x^2 / 2 - cos(2 pi x) / 4 of one agent, declared with m = L1 = 1."""
    def value_many(X, agents):
        x = X[..., 0]
        return 0.5 * x * x - 0.25 * np.cos(2.0 * np.pi * x)

    family = SimpleNamespace(n=1, row_elements=1, value_many=value_many)
    return ProblemInstance(family=family, d=1, x_star=np.zeros(1), f_star=-0.25,
                           constants=SmoothnessConstants(1.0, 1.0, 0.0, 0.0))


#: A convex quadratic outside the descent bound's scope (see the test below).
COUPLED = np.array([[17.5, 3.3], [3.3, 1.2]])


def _failed_bounds(failures):
    return [line.split(" at ")[0] for line in failures]


def test_lyapunov_flags_overstated_strong_convexity():
    # negative control: f = ||x||^2 declared with m = L1 = 3 gives V = 4 dist^2,
    # below the lower bound m^2 dist^2 = 9 dist^2; the other three bounds hold
    _, failures = lyapunov_bounds_check(_quadratic(2.0 * np.eye(2), 3.0, 3.0), 5, mu=0.05)
    assert _failed_bounds(failures) == ["lower bound failed"] * 5


def test_lyapunov_flags_a_curvature_estimate_that_is_not_positive():
    # negative control: the concave f = -||x||^2 / 2 declared with m = L1 = 1
    # meets the three norm bounds, but its curvature estimate is -1
    _, failures = lyapunov_bounds_check(_quadratic(-np.eye(2), 1.0, 1.0), 5, mu=0.05)
    assert _failed_bounds(failures) == ["curvature estimate not positive"] * 5


def test_lyapunov_flags_a_curvature_estimate_that_breaks_descent():
    # negative control: f = x^2 / 2 - cos(2 pi x) / 4 declared with m = L1 = 1.
    # At mu = 1/2 the cosine drops out of the gradient estimate, which is x, but
    # adds 4 cos(2 pi x) to the curvature estimate; near 0 that is above 2, so
    # dV/dx . phi = -2 V / hdiag exceeds alpha V = -V
    alpha, failures = lyapunov_bounds_check(_wavy(), 5, mu=0.5, radius=0.05)
    assert alpha == -1.0
    assert _failed_bounds(failures) == ["descent bound failed"] * 5


def test_lyapunov_descent_bound_does_not_cover_a_coupled_convex_quadratic():
    # outside the descent bound's scope, with exact constants: the symmetric
    # part of A D^-1 has eigenvalue 1 - 1.469 < m / (2 L1), so the Jacobi
    # direction -D^-1 g raises V near the eigenvector; the norm bounds hold
    A = COUPLED
    m, L1 = np.linalg.eigvalsh(A)
    M = A / np.diag(A)
    smallest = 1.0 - 3.3 * (1.0 / 1.2 + 1.0 / 17.5) / 2.0
    assert np.linalg.eigvalsh((M + M.T) / 2.0)[0] == pytest.approx(smallest)
    assert smallest < m / (2.0 * L1)
    alpha, failures = lyapunov_bounds_check(_quadratic(A, m, L1), 400, mu=0.05)
    assert alpha == -m / L1 == pytest.approx(-0.0307, abs=1e-4)
    assert _failed_bounds(failures) == ["descent bound failed"] * 5


def _reference_lyapunov_bounds_check(inst, points, mu, radius=1.0):
    """The battery as first written: one sample at a time, and V's central
    differences one coordinate at a time, each V one oracle call on a box that
    adapts the averaged cost to one point.  Returns alpha, the failures, the
    (coarse, fine) differences of V at each sample and the box's queries."""
    c, d = inst.constants, inst.d
    gamma = solve_estimator_zero(inst, mu)
    K = gradient_lipschitz_bound(c.L1, c.L2, mu, d)
    u = d * mu * mu * c.L3 / 6.0
    lower_coef = c.m * c.m - 2.0 * c.L1 * u - u * u
    dv_coef = (2.0 * c.L1 + mu * c.L3 * d / 3.0) * K
    alpha = descent_coefficient(mu, c.m, c.L1, c.L3, d)
    samples = gamma + radius * Xoshiro256(2024).normals(points, d)
    gb = BlackBoxObjective(lambda X, block: inst.global_value_many(X[0])[None], d)

    def V(x):
        grad = estimate_gradient(gb, x[None], mu)[0]
        return float(grad @ grad)

    def fd_grad_of_V(x, h):
        out = np.empty(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            out[k] = (V(x + e) - V(x - e)) / (2.0 * h)
        return out

    failures, differences = [], []
    mu_in = mu / 100.0
    for x in samples:
        (grad,), (hdiag,) = estimate_both(gb, x[None], mu)
        v = float(grad @ grad)
        dist2 = float(np.sum((x - gamma) ** 2))
        dist = math.sqrt(dist2)
        slack = 1e-9 * (1.0 + v + K * K * dist2)
        if v > K * K * dist2 + slack:
            failures.append(f"upper bound failed at {x.tolist()}")
        if v < lower_coef * dist2 - slack:
            failures.append(f"lower bound failed at {x.tolist()}")
        coarse = fd_grad_of_V(x, mu_in)
        fine = fd_grad_of_V(x, mu_in / 2.0)
        differences.append((coarse, fine))
        fd_error = 4.0 / 3.0 * float(np.linalg.norm(coarse - fine)) + 1e-10 * (
            1.0 + float(np.linalg.norm(fine))
        )
        dv_norm = float(np.linalg.norm(fine))
        if dv_norm > dv_coef * dist + fd_error + 1e-9 * (1.0 + dv_coef * dist):
            failures.append(f"derivative-norm bound failed at {x.tolist()}")
        if np.any(hdiag <= 0.0):
            failures.append(f"curvature estimate not positive at {x.tolist()}")
            continue
        phi = -grad / hdiag
        q = float(fine @ phi)
        q_slack = fd_error * float(np.linalg.norm(phi)) + 1e-9 * (1.0 + abs(alpha) * v)
        if q > alpha * v + q_slack:
            failures.append(f"descent bound failed at {x.tolist()}")
    return alpha, failures, np.array(differences), gb.query_count


@pytest.mark.parametrize("make, points, mu, radius", [
    # the three instances of check_lyapunov at the desk scale of zojade verify,
    # then at the acceptance scale of criterion 8
    *[case for points in (40, 100) for case in (
        (lambda: separable_quadratic_instance(4, 3, seed=21), points, 0.05, 1.0),
        (lambda: synthetic_classification(4, 12, 4, seed=22, w=0.1, separation=1.5), points,
         0.02, 0.5),
        (lambda: quartic_instance(4), points, 0.15, 0.4))],
    # the negative controls and the pinned counterexample above
    (lambda: _quadratic(2.0 * np.eye(2), 1.0, 1.0), 5, 0.05, 1.0),
    (lambda: _quadratic(2.0 * np.eye(2), 3.0, 3.0), 5, 0.05, 1.0),
    (lambda: _quadratic(-np.eye(2), 1.0, 1.0), 5, 0.05, 1.0),
    (_wavy, 5, 0.5, 0.05),
    (lambda: quartic_instance(3), 1, 0.1, 0.0),
    (lambda: _quadratic(COUPLED, *np.linalg.eigvalsh(COUPLED)), 400, 0.05, 1.0),
], ids=["quadratic", "logistic", "quartic", "quadratic-100", "logistic-100", "quartic-100",
        "understated", "overstated", "concave", "wavy", "at-gamma", "coupled"])
def test_lyapunov_battery_is_the_per_point_loop(make, points, mu, radius):
    # the same alpha and failures, bitwise the same differences of V, and the
    # same queries: 2d + 1 at each sample plus 2d for each of its 4d values of V
    inst = make()
    alpha, failures, differences, queries = _reference_lyapunov_bounds_check(
        inst, points, mu, radius)
    boxes, gradients = [], []
    global_black_box, estimate = inst.global_black_box, harness.estimate_gradient

    def counted_box(*points):  # the battery names its point count, the zero solve does not
        box = global_black_box(*points)
        if points:
            boxes.append(box)
        return box

    def kept_gradient(box, x, step):
        gradients.append(estimate(box, x, step))
        return gradients[-1]

    with mock.patch.object(inst, "global_black_box", counted_box), \
            mock.patch.object(harness, "estimate_gradient", kept_gradient):
        assert lyapunov_bounds_check(inst, points, mu, radius=radius) == (alpha, failures)
    d = inst.d
    assert sum(box.query_count for box in boxes) == queries == points * (2 * d + 1 + 8 * d * d)
    plus_coarse, minus_coarse, plus_fine, minus_fine = (
        squares(g).reshape(points, d) for g in gradients[-4:])
    h = mu / 100.0
    batched = np.stack([(plus_coarse - minus_coarse) / (2.0 * h),
                        (plus_fine - minus_fine) / (2.0 * (h / 2.0))], axis=1)
    assert batched.tobytes() == differences.tobytes()


# --- config handling ---------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        tiny_config(None, extra=1)
    with pytest.raises(ConfigurationError, match="unknown keys"):
        tiny_config(None, topology={"name": "ring", "n": 4, "k": 2})
    with pytest.raises(ConfigurationError, match="unknown keys"):
        tiny_config(
            None, instance={"family": "separable_quadratic", "d": 3, "seed": 1, "n": 9}
        )
    with pytest.raises(ConfigurationError, match="unknown keys"):
        tiny_config(None, algorithms=[{"name": "zo_jade", "eta": 0.1}])
    # a config built from a Python dict may hold keys that are not strings
    with pytest.raises(ConfigurationError, match=r"^config: unknown keys \[1, 'x'\]$"):
        ExperimentConfig({**tiny_config(None).data, 1: 0, "x": 0})


def test_config_requires_core_fields():
    with pytest.raises(ConfigurationError, match="missing required"):
        ExperimentConfig({"topology": {"name": "ring", "n": 3}})


def test_config_rejects_bad_values():
    bad_values = [
        {"seeds": []},
        {"seeds": ["a"]},
        {"seeds": [1, True]},
        {"seeds": [1, 2, 1]},
        {"budget": 0},
        {"budget": True},
        {"mu": -1.0},
        {"mu": True},
        {"mu": math.nan},
        {"mu": math.inf},
        {"record_every": True},
        {"x0_scale": math.nan},
        {"x0_scale": "abc"},
        {"topology": {"name": "ring", "n": True}},
        {"topology": {"name": "ring", "n": 0}},
        {"topology": {"name": "ring", "n": 4, "p": 0.5}},
        {"topology": {"name": "ring", "n": 4, "seed": 3}},
        {"topology": {"name": "mystery", "n": 4}},
        {"topology": {"name": "erdos_renyi", "n": 4, "p": 0.5}},
        {"topology": {"name": "erdos_renyi", "n": 4, "p": 2.0, "seed": 1}},
        {"topology": {"name": "erdos_renyi", "n": 4, "p": 0, "seed": 1}},
        {"topology": {"name": "erdos_renyi", "n": 4, "p": -0.5, "seed": 1}},
        {"instance": {"family": "separable_quadratic", "d": 0, "seed": 1}},
        {"instance": {"family": "quartic", "d": -2}},
        {"instance": {"family": "ridge_synthetic", "d": 3, "per_agent": 0, "seed": 1}},
        {"instance": {"family": "synthetic_classification", "d": -1, "per_agent": 2, "seed": 1}},
        {"instance": {"family": "separable_quadratic", "seed": 1}},
        {"instance": {"family": "separable_quadratic", "d": "3", "seed": 1}},
        {"instance": {"family": "separable_quadratic", "d": True, "seed": 1}},
        {"instance": {"family": "separable_quadratic", "d": 3, "seed": "x"}},
        {"instance": {"family": "separable_quadratic", "d": 3, "seed": 1, "b_scale": math.nan}},
        {"instance": {"family": "separable_quadratic", "d": 3, "seed": 1, "curvature_range": 2}},
        {"instance": {"family": "ridge_synthetic", "d": 3, "per_agent": 2.5, "seed": 1}},
        {"instance": {"family": "ridge_synthetic", "d": 3, "per_agent": 2, "seed": 1,
                      "standardize": "yes"}},
        {"instance": {"family": ["separable_quadratic"], "d": 3, "seed": 1}},
        {"topology": {"name": "erdos_renyi", "n": 4, "p": "x", "seed": 1}},
        {"topology": {"name": ["ring"], "n": 4}},
        {"algorithms": [{"name": ["zo_jade"]}]},
        {"algorithms": [{"name": "zo_jade", "epsilon": "x"}]},
        {"algorithms": [{"name": "zo_jade", "z_floor": True}]},
        {"algorithms": [{"name": "consensus_gd", "eta": True}]},
        {"algorithms": [{"name": "gradient_tracking", "mu": math.inf}]},
        {"mu": -1.0, "algorithms": [{"name": "zo_jade", "mu": 0.1}]},
        {"algorithms": [{"name": "zo_jade", "label": "../escaped"}]},
        {"algorithms": [{"name": "zo_jade", "label": ["a"]}]},
        {"algorithms": [{"name": "zo_jade", "label": "sub/x"}]},
        {"algorithms": [{"name": "zo_jade", "label": "sub\\x"}]},
        {"algorithms": [{"name": "zo_jade", "label": ".."}]},
        {"algorithms": [{"name": "zo_jade", "label": "."}]},
        {"algorithms": [{"name": "zo_jade", "label": ""}]},
        {"algorithms": [{"name": "zo_jade", "label": "a\0b"}]},
        {"algorithms": [{"name": "zo_jade", "label": "a\nb"}]},
        {"algorithms": [{"name": "zo_jade", "label": "a\x7fb"}]},
        {"out_dir": 5},
        {"out_dir": None},
        {"out_dir": ""},
        {"out_dir": "a\0b"},
        {"instance": {"family": "ridge_synthetic", "d": 3, "per_agent": 2, "seed": 1, "lambda": 0}},
        {"instance": {"family": "ridge_synthetic", "d": 3, "per_agent": 2, "seed": 1,
                      "scale_spread": -1.0}},
        {"instance": {"family": "synthetic_classification", "d": 3, "per_agent": 2, "seed": 1,
                      "w": 0.0}},
        {"instance": {"family": "synthetic_classification", "d": 3, "per_agent": 2, "seed": 1,
                      "scale_spread": 0}},
        {"instance": {"family": "ridge_csv", "path": "data.csv", "lambda": -0.5}},
        {"instance": {"family": "logistic_csv", "path": "data.csv", "w": 0}},
        {"instance": {"family": "quartic", "box": -1}},
        {"instance": {"family": "quartic", "box": 0.0}},
        {"instance": {"family": "quartic", "quad": 0}},
        {"instance": {"family": "quartic", "quartic": -1.0}},
    ]
    for overrides in bad_values:
        with pytest.raises(ConfigurationError):
            tiny_config(None, **overrides)
    with pytest.raises(ConfigurationError, match="duplicate"):
        tiny_config(
            None,
            algorithms=[{"name": "zo_jade"}, {"name": "zo_jade"}],
        )
    with pytest.raises(ConfigurationError, match="family"):
        tiny_config(None, instance={"family": "mystery"})


def test_config_hash_stable_and_sensitive():
    a = tiny_config(None)
    b = tiny_config(None)
    c = tiny_config(None, mu=0.06)
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


@pytest.mark.parametrize(
    "path, digest",
    [
        ("configs/quickstart.json", "b4e476b8e046caa9"),
        ("configs/logistic.json", "116f941080c1c710"),
        ("bench/scale_n200.json", "a6f537e5e9378f15"),
    ],
)
def test_shipped_config_hashes_are_pinned(path, digest):
    # every output file carries the hash of the defaulted config, so a moved
    # default or schema key changes the bytes of every CSV the config writes
    assert ExperimentConfig.from_file(str(ROOT / path)).config_hash == digest


def test_per_algorithm_mu_override():
    from zojade.harness import algorithm_config

    cfg = tiny_config(
        None,
        algorithms=[
            {"name": "zo_jade", "mu": 0.007},
            {"name": "gradient_tracking"},
        ],
    )
    jade_cfg = algorithm_config(cfg, cfg.data["algorithms"][0])
    gt_cfg = algorithm_config(cfg, cfg.data["algorithms"][1])
    assert jade_cfg.mu == 0.007
    assert gt_cfg.mu == cfg.data["mu"]


def _write_rows(path, rows):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "family, params, d",
    [
        ("separable_quadratic", {"d": 3, "seed": 1}, 3),
        ("ridge_synthetic", {"d": 3, "per_agent": 4, "seed": 1}, 3),
        ("synthetic_classification", {"d": 3, "per_agent": 4, "seed": 1}, 3),
        ("quartic", {"d": 2}, 2),
        ("ridge_csv", {}, 2),
        ("logistic_csv", {}, 3),
    ],
)
def test_build_instance_every_family(tmp_path, family, params, d):
    from zojade.harness import build_instance

    params = _csv_params(tmp_path, family) or params
    inst = build_instance(tiny_config(None, instance={"family": family, **params}))
    assert (inst.n, inst.d) == (4, d)
    assert np.linalg.norm(inst.global_gradient(inst.x_star)) <= 1e-10


def _csv_params(tmp_path, family):
    """The path key of a CSV family, to twelve rows of two features whose last
    column is the target (ridge) or the +-1 label (logistic); None otherwise."""
    if family == "ridge_csv":
        rows = [(k % 5 - 2.0, k * k % 7 / 3.0, 0.5 * k - 2.0) for k in range(12)]
        return {"path": _write_rows(tmp_path / "ridge.csv", rows)}
    if family == "logistic_csv":
        rows = [(k % 5 - 2.0, k * k % 7 / 3.0, 1.0 if k % 3 else -1.0) for k in range(12)]
        return {"path": _write_rows(tmp_path / "logistic.csv", rows)}
    return None


def _readme_defaults():
    """family -> {optional key: its default}, read from the README's list of
    instance families (a trailing `*` marks a tuned default)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    families = text.split("\nInstance families", 1)[1].split("\n\n")[1]
    defaults = {}
    for line in families.splitlines():
        family, keys = re.fullmatch(r"\* `(\w+)`: (.*)", line).groups()
        pairs = re.findall(r"`(\w+)` \(([^)]*)\)", keys)
        defaults[family] = {key: json.loads(value.rstrip(" *")) for key, value in pairs}
    return defaults


_README_DEFAULTS = _readme_defaults()
_REQUIRED_PARAMS = {
    "separable_quadratic": {"d": 3, "seed": 1},
    "ridge_synthetic": {"d": 3, "per_agent": 4, "seed": 1},
    "synthetic_classification": {"d": 3, "per_agent": 4, "seed": 1},
    "quartic": {},
}


def test_readme_lists_the_optional_keys_of_every_family():
    assert {family: set(defaults) for family, defaults in _README_DEFAULTS.items()} == {
        family: set(optional) for family, (_, _, optional) in FAMILIES.items()
    }


@pytest.mark.parametrize(
    "family, key",
    [(family, key) for family, (_, _, optional) in FAMILIES.items() for key in optional],
)
def test_every_optional_key_reaches_its_builder_with_its_readme_default(tmp_path, family, key):
    from zojade.harness import build_instance

    params = _csv_params(tmp_path, family) or _REQUIRED_PARAMS[family]
    value = _README_DEFAULTS[family][key]
    default = build_instance(tiny_config(None, instance={"family": family, **params}))
    explicit = build_instance(tiny_config(None, instance={"family": family, **params, key: value}))
    assert np.array_equal(explicit.x_star, default.x_star)
    assert explicit.f_star == default.f_star


# --- experiment outputs --------------------------------------------------------------


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[1, 2])
    result = run_experiment(cfg, quiet=True)
    assert result.ok
    names = sorted(os.listdir(result.out_dir))
    assert names == ["zo_jade_aggregate.csv", "zo_jade_seed1.csv", "zo_jade_seed2.csv"]
    with open(os.path.join(result.out_dir, "zo_jade_seed1.csv"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("# algorithm=zo_jade")
    assert cfg.config_hash in text
    header = text.splitlines()[1]
    assert header == (
        "iteration,queries_per_agent,e_f,consensus_error,"
        "tracking_residual_y,tracking_residual_z,clamp_count"
    )
    with open(os.path.join(result.out_dir, "zo_jade_aggregate.csv"), encoding="utf-8") as fh:
        agg = fh.read()
    assert cfg.config_hash in agg
    assert agg.splitlines()[1] == "queries,ef_mean,ef_std"


def test_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    cfg = tiny_config(tmp_path)
    a_dir = str(tmp_path / "a")
    b_dir = str(tmp_path / "b")
    run_experiment(cfg, out_dir=a_dir, quiet=True)
    run_experiment(cfg, out_dir=b_dir, quiet=True)
    for name in sorted(os.listdir(a_dir)):
        with open(os.path.join(a_dir, name), "rb") as fa:
            with open(os.path.join(b_dir, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_final_row_ef_matches_recomputation(tmp_path):
    cfg = tiny_config(tmp_path, record_every=7)
    result = run_experiment(cfg, quiet=True)
    from zojade.harness import build_instance

    inst = build_instance(cfg)
    for trace in result.traces["zo_jade"].values():
        recomputed = loss_metric(inst, trace.final_x)
        assert abs(recomputed - trace.rows[-1].e_f) <= 1e-12


def test_trace_csv_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[4])
    result = run_experiment(cfg, quiet=True)
    path = os.path.join(result.out_dir, "zo_jade_seed4.csv")
    iterations, efs = read_trace_csv(path)
    trace = result.traces["zo_jade"][4]
    assert np.array_equal(iterations, trace.iterations())
    assert np.array_equal(efs, trace.ef_values())


def test_trace_csv_writes_each_field_as_its_python_repr(tmp_path):
    # the rows' fields are numpy scalars; the file holds the text that
    # Python's int and float repr give them
    rows = np.array([(0, 0, 0.1, 1e-300, -0.0, 0.0, 0),
                     (7, 63, np.inf, np.nan, 2.5e-17, -np.inf, 2**40)], TRACE_DTYPE)
    trace = RunTrace("zo_jade", 3, rows, config_hash="abc", label="ring", failed=True,
                     diagnostic="agent 0's probe")
    path = tmp_path / "trace.csv"
    harness.write_trace_csv(str(path), trace)
    assert path.read_bytes() == (
        b"# algorithm=zo_jade label=ring seed=3 config_hash=abc ef_mode=relative failed=True "
        b"diagnostic=\"agent 0's probe\"\n"
        b"iteration,queries_per_agent,e_f,consensus_error,tracking_residual_y,"
        b"tracking_residual_z,clamp_count\n"
        b"0,0,0.1,1e-300,-0.0,0.0,0\n"
        b"7,63,inf,nan,2.5e-17,-inf,1099511627776\n"
    )


def test_verify_suite_default_battery_all_green(monkeypatch):
    from zojade import verify_suite

    # keep every objective the battery builds, as the benchmark's hooks do, to
    # read the queries of the whole suite from their own counters
    objectives = []
    objective_init = BlackBoxObjective.__init__

    def registered_init(obj, *args, **kwargs):
        objective_init(obj, *args, **kwargs)
        objectives.append(obj)

    monkeypatch.setattr(BlackBoxObjective, "__init__", registered_init)
    quickstart = os.path.join(os.path.dirname(__file__), "..", "configs", "quickstart.json")
    report = verify_suite(ExperimentConfig.from_file(quickstart))
    # the count the benchmark's verify_desk workload pins
    pins = json.loads((ROOT / "bench" / "pinned.json").read_text(encoding="utf-8"))
    assert sum(obj.query_count for obj in objectives) == pins["verify_desk"]["queries"]
    failed = [c for c in report.checks if not c["passed"]]
    assert report.all_passed, failed
    parsed = json.loads(report.to_json())
    assert parsed["all_passed"] is True
    # the two config checks, then the default battery in its fixed order
    assert [c["name"] for c in parsed["checks"]] == [
        "config_consensus_matrix",
        "config_instance_x_star",
        "consensus_matrix_invariants",
        "matrix_checker_negative_control",
        "averaging_contraction",
        "oracle_query_accounting",
        "sharding_conservation",
        "analytic_vs_zo_gradients",
        "ground_truth_optimality",
        "reported_constants",
        "quadratic_exactness",
        "error_bound_tightness",
        "tracking_conservation",
        "separable_fixed_point",
        "mu_independence_quadratic",
        "baseline_runs",
        "baseline_tracking_conservation",
        "division_clamp_neutral",
        "exponential_convergence",
        "gamma_mu_scaling",
        "lyapunov_bound_battery",
        "descent_coefficient_sign_flip",
        "byte_for_byte_determinism",
    ]


# A Python max keeps its current value against a NaN that comes after it, so
# each verify row below reduces with np.max, and a NaN injected after a finite
# value fails the row.


def test_quadratic_exactness_fails_on_a_nan_error_after_a_finite_one(monkeypatch):
    calls = []

    def estimate(objective, x, mu):
        grads, hdiags = estimate_both(objective, x, mu)
        calls.append(mu)
        return grads, hdiags * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(harness, "estimate_both", estimate)
    report = harness.VerifyReport()
    harness.check_quadratic_exactness(report, seed=11, trials=2, d_max=4, mus=(0.1,))
    assert report.checks == [
        {"name": "quadratic_exactness", "passed": False, "detail": "worst relative error nan"}]


def test_error_bound_tightness_fails_on_a_nan_deviation_after_a_finite_one(monkeypatch):
    monkeypatch.setattr(harness, "hessian_error_bound",
                        lambda L3, mu: np.nan if mu < 0.2 else hessian_error_bound(L3, mu))
    report = harness.VerifyReport()
    harness.check_error_bounds(report)
    assert report.checks == [{"name": "error_bound_tightness", "passed": False,
                              "detail": "worst relative deviation nan"}]


def test_tracking_conservation_fails_on_a_nan_residual_after_a_finite_one(monkeypatch):
    # a run measures its records in batches, whose iteration is one per row:
    # the y residual turns NaN on every row past step 0
    residuals = NetworkState.tracking_residuals
    monkeypatch.setattr(NetworkState, "tracking_residuals", lambda state: (
        residuals(state)[0] * np.where(state.iteration > 0, np.nan, 1.0), residuals(state)[1]))
    report = harness.VerifyReport()
    harness.check_tracking_conservation(
        report, separable_quadratic_instance(4, 2, seed=5),
        metropolis_hastings(topology_from_spec("ring", 4)),
        JadeConfig(mu=0.05, epsilon=0.2, budget=5 * 10, record_every=5), seed=1)
    assert report.checks == [{"name": "tracking_conservation", "passed": False,
                              "detail": "10 rounds, max residual nan"}]


def test_separable_fixed_point_fails_on_a_nan_gap_after_a_finite_one(monkeypatch):
    def second_ends_nan(*args):
        traces = run(*args)
        traces[1].final_x = traces[1].final_x * np.nan
        return traces

    monkeypatch.setattr(harness, "run", second_ends_nan)
    report = harness.VerifyReport()
    harness.check_fixed_point_and_mu_independence(
        report, separable_quadratic_instance(5, 3, seed=9),
        metropolis_hastings(topology_from_spec("complete", 5)), epsilon=0.3, iterations=300,
        seed=4)
    row = report.checks[0]
    assert row["name"] == "separable_fixed_point" and not row["passed"]
    assert row["detail"].endswith("|x - x_cf| = nan")


def test_baseline_tracking_conservation_fails_on_a_nan_residual_after_a_finite_one(monkeypatch):
    def step(state, objective, cfg):
        new = gradient_tracking_step(state, objective, cfg)
        if new.iteration == 50:  # the last step of the check
            new.y = new.y * np.nan
        return new

    monkeypatch.setattr(harness, "gradient_tracking_step", step)
    report = harness.VerifyReport()
    harness._check_baseline_sanity(report)
    assert report.checks[1] == {"name": "baseline_tracking_conservation", "passed": False,
                                "detail": "residual nan"}


def test_all_algorithms_share_initial_iterates_per_seed(tmp_path):
    # with a budget below one step, the final state is exactly x(0)
    cfg = tiny_config(
        tmp_path,
        budget=1,
        algorithms=[
            {"name": "zo_jade"},
            {"name": "gradient_tracking"},
            {"name": "consensus_gd"},
        ],
    )
    result = run_experiment(cfg, quiet=True)
    for seed in cfg.seeds:
        x0s = [result.traces[label][seed].final_x for label in result.traces]
        assert np.array_equal(x0s[0], x0s[1])
        assert np.array_equal(x0s[0], x0s[2])


def test_trace_rows_satisfy_metric_invariants(tmp_path):
    cfg = tiny_config(tmp_path, budget=7 * 300, record_every=3)
    result = run_experiment(cfg, quiet=True)
    for trace in result.traces["zo_jade"].values():
        queries = trace.queries()
        assert np.all(np.diff(queries) >= 0)
        assert np.all(trace.ef_values() >= -1e-12)


# --- CLI ------------------------------------------------------------------------------


def _write_config(tmp_path, cfg):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg.data), encoding="utf-8")
    return str(path)


def test_cli_run_and_rate(tmp_path, capsys):
    cfg = tiny_config(tmp_path, budget=7 * 200, record_every=2)
    path = _write_config(tmp_path, cfg)
    out_dir = str(tmp_path / "cli_out")
    assert cli_main(["run", "--config", path, "--out", out_dir]) == 0
    capsys.readouterr()
    trace_path = os.path.join(out_dir, "zo_jade_seed1.csv")
    assert cli_main(["rate", "--trace", trace_path, "--tail", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "rate_per_iteration=" in out


def test_cli_seed_override(tmp_path):
    cfg = tiny_config(tmp_path)
    path = _write_config(tmp_path, cfg)
    out_dir = str(tmp_path / "cli_out2")
    assert cli_main(["run", "--config", path, "--out", out_dir, "--seeds", "7"]) == 0
    assert sorted(os.listdir(out_dir)) == ["zo_jade_aggregate.csv", "zo_jade_seed7.csv"]


def test_cli_rejects_a_seed_list_that_is_not_integers(tmp_path, capsys):
    path = _write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["run", "--config", path, "--seeds", "1,x"]) == 2
    assert "bad --seeds value" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_cli_rate_rejects_a_csv_that_is_not_a_trace(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    assert cli_main(["rate", "--trace", str(path)]) == 2
    assert f"{path}: not a trace CSV" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology": {"name": "ring", "n": 3}}), encoding="utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 2
    missing = tmp_path / "absent.json"
    assert cli_main(["run", "--config", str(missing)]) == 2
    bad.write_bytes(b'{"topology": "\xff"}')  # not UTF-8
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert cli_main(["verify", "--config", str(bad)]) == 2
    malformed = tiny_config(None).data
    malformed["algorithms"] = [{"name": "zo_jade", "epsilon": "x"}]
    bad.write_text(json.dumps(malformed), encoding="utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 2
    mistyped = tiny_config(None).data
    mistyped["instance"]["d"] = "3"
    bad.write_text(json.dumps(mistyped), encoding="utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 2
    mistyped["instance"]["d"] = 0
    bad.write_text(json.dumps(mistyped), encoding="utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 2
    good = _write_config(tmp_path, tiny_config(tmp_path))
    assert cli_main(["run", "--config", good, "--seeds", "1,1"]) == 2
    for overrides in (
        {"algorithms": [{"name": "zo_jade", "label": "../escaped"}]},
        {"algorithms": [{"name": "zo_jade", "label": ["a"]}]},
        {"algorithms": [{"name": "zo_jade", "label": "sub/x"}]},
        {"algorithms": [{"name": "zo_jade", "label": "a\0b"}]},
        {"algorithms": [{"name": "zo_jade", "label": "a\nb"}]},
        {"algorithms": [{"name": "zo_jade", "label": "a\x7fb"}]},
        {"out_dir": 5},
        {"out_dir": None},
    ):
        unsafe = {**tiny_config(tmp_path).data, **overrides}
        bad.write_text(json.dumps(unsafe), encoding="utf-8")
        assert cli_main(["run", "--config", str(bad)]) == 2, overrides
    # nothing was written, inside the output directory or next to it
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "exp.json"]
    # an --out override that cannot be a directory
    for out in ("", "a\0b", good):
        assert cli_main(["run", "--config", good, "--out", out]) == 2, out
    # a CSV instance whose data file is missing, a directory, or not UTF-8
    data = tmp_path / "data"
    data.mkdir()
    (data / "latin1.csv").write_bytes("1,2\n3,\xe9\n".encode("latin-1"))
    for path in (data / "absent.csv", data, data / "latin1.csv"):
        unreadable = {**tiny_config(tmp_path).data, "instance": {"family": "ridge_csv",
                                                                 "path": str(path)}}
        bad.write_text(json.dumps(unreadable), encoding="utf-8")
        assert cli_main(["run", "--config", str(bad)]) == 2, path
        assert cli_main(["verify", "--config", str(bad)]) == 2, path


@pytest.mark.parametrize("text, key", [
    ('"mu": 0.05, "mu": 0.01', "mu"),
    ('"topology": {"name": "ring", "n": 5, "n": 6}', "n"),
    ('"algorithms": [{"name": "zo_jade", "epsilon": 0.2, "epsilon": 0.5}]', "epsilon"),
], ids=["top_level", "nested", "in_a_list"])
def test_cli_rejects_a_key_given_twice(tmp_path, capsys, text, key):
    # json.load would keep the last of two values without a word; the file is refused
    data = tiny_config(tmp_path).data
    name = text.split('"')[1]
    body = json.dumps({k: v for k, v in data.items() if k != name})
    path = tmp_path / "repeat.json"
    path.write_text(body[:-1] + ", " + text + "}", encoding="utf-8")
    for command in ("run", "verify"):
        assert cli_main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: cannot read config {path}: key '{key}' given twice\n")
    assert not os.path.exists(tmp_path / "out")


def test_cli_rate_refuses_a_trace_whose_e_f_turns_infinite(tmp_path, capsys):
    # the suite turns numpy's RuntimeWarning into an error, so a fit that
    # reached log(inf) fails here before it could print a nan rate
    header = ",".join(harness.TRACE_COLUMNS)
    rows = [f"{10 * k},{20 * k},{0.5**k if k < 15 else math.inf!r},0.0,0.0,0.0,0"
            for k in range(20)]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(["# diverged", header, *rows]) + "\n", encoding="utf-8")
    assert cli_main(["rate", "--trace", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "rate fit failed: e_f is inf at iteration 150\n")
    # a nan, which the floor filter would drop without a word, is refused too
    steps, efs = harness.read_trace_csv(str(path))
    efs[3] = math.nan
    with pytest.raises(ValueError, match=r"^e_f is nan at iteration 30$"):
        fit_exponential_rate(steps, efs)


@pytest.mark.parametrize("family, cell", [("ridge_csv", "nan"), ("logistic_csv", "inf")])
def test_cli_rejects_a_non_finite_data_cell(tmp_path, capsys, family, cell):
    # such a cell ended a ridge run in a non-finite ground truth and a logistic
    # run in a LinAlgError traceback, both with exit 1
    params = _csv_params(tmp_path, family)
    data = Path(params["path"])
    rows = data.read_text(encoding="utf-8").splitlines()
    rows[4] = cell + rows[4][rows[4].index(","):]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    path = _write_config(tmp_path, tiny_config(tmp_path, instance={"family": family, **params}))
    assert cli_main(["run", "--config", path]) == 2
    assert f"{data}: row 5: non-finite value in ['{cell}', " in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_builder_failure_creates_no_output_directory(tmp_path):
    # a decreasing curvature range passes the kind check at parse time; the
    # builder rejects it
    instance = {"family": "separable_quadratic", "d": 3, "seed": 1, "curvature_range": [2, 1]}
    cfg = tiny_config(tmp_path, instance=instance)
    with pytest.raises(ConfigurationError, match="curvature range"):
        run_experiment(cfg, quiet=True)
    path = _write_config(tmp_path, cfg)
    assert cli_main(["run", "--config", path]) == 2
    assert not os.path.exists(cfg.out_dir)


def test_cli_verify_reports_json_and_exit_codes(tmp_path, capsys, monkeypatch):
    import zojade.cli as cli
    from zojade.harness import VerifyReport

    healthy = VerifyReport()
    healthy.add("sample_check", True, "fine")
    monkeypatch.setattr(cli, "verify_suite", lambda cfg=None: healthy)
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["all_passed"] is True
    assert parsed["checks"][0]["name"] == "sample_check"

    broken = VerifyReport()
    broken.add("sample_check", False, "row sum off by 0.1")
    monkeypatch.setattr(cli, "verify_suite", lambda cfg=None: broken)
    assert cli_main(["verify"]) == 3


_TRACE_HEADER = (
    "# algorithm=x\niteration,queries_per_agent,e_f,consensus_error,"
    "tracking_residual_y,tracking_residual_z,clamp_count\n"
)


def _decay_rows(fields):
    """Twelve rows of an exponential decay, each cut or padded to `fields` fields."""
    rows = [[str(k), str(3 * k), repr(0.5**k), "0.0", "0.0", "0.0", "0"] for k in range(12)]
    return "".join(",".join((row + ["0"] * fields)[:fields]) + "\n" for row in rows)


def test_cli_rate_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEADER + "0,0,1.0,0.0,0.0,0.0,0\n", encoding="utf-8")
    assert cli_main(["rate", "--trace", str(path)]) == 1
    assert cli_main(["rate", "--trace", str(tmp_path / "absent.csv")]) == 2
    assert "absent.csv" in capsys.readouterr().err
    for bad_row in ("1,9,abc,0.0,0.0,0.0,0", "1,9"):
        path.write_text(_TRACE_HEADER + "0,0,1.0,0.0,0.0,0.0,0\n" + bad_row + "\n", encoding="utf-8")
        assert cli_main(["rate", "--trace", str(path)]) == 2
        assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [3, 6, 8])
def test_cli_rate_rejects_rows_with_the_wrong_field_count(tmp_path, capsys, fields):
    # a trace of 3-field rows under the right header used to be fitted
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEADER + _decay_rows(7), encoding="utf-8")
    assert cli_main(["rate", "--trace", str(path)]) == 0
    path.write_text(_TRACE_HEADER + _decay_rows(fields), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["rate", "--trace", str(path)]) == 2
    assert f"line 3: {fields} fields, expected 7" in capsys.readouterr().err


@pytest.mark.parametrize("tail", ["0", "1.5", "nan", "-0.5", "inf"])
def test_cli_rate_checks_tail_before_reading_the_trace(tmp_path, capsys, tail):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEADER + _decay_rows(7), encoding="utf-8")
    assert cli_main(["rate", "--trace", str(path), "--tail", tail]) == 2
    assert "--tail must be a number in (0, 1]" in capsys.readouterr().err
    assert cli_main(["rate", "--trace", str(tmp_path / "absent.csv"), "--tail", tail]) == 2
    assert "--tail must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"mu": 10**400},
        {"instance": {"family": "separable_quadratic", "d": 3, "seed": 1, "b_scale": -10**400}},
        {"instance": {"family": "separable_quadratic", "d": 3, "seed": 1,
                      "curvature_range": [1, 10**400]}},
        {"instance": {"family": "ridge_synthetic", "d": 2, "per_agent": 3, "seed": 1,
                      "noise": 10**400}},
    ],
    ids=["mu", "b_scale", "curvature_range", "noise"],
)
def test_cli_rejects_integers_past_the_float_range(tmp_path, capsys, overrides):
    # math.isfinite raised OverflowError on these, a traceback with exit 1
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**tiny_config(tmp_path).data, **overrides}), encoding="utf-8")
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "must be a" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cli_failed_run_exit_code(tmp_path, capsys):
    # the huge feature scale makes the squared residual overflow after one
    # aggressive descent step, so the run aborts and is surfaced as exit 1
    data = tmp_path / "huge.csv"
    data.write_text("1e140,0\n1e140,0\n", encoding="utf-8")
    cfg = {
        "topology": {"name": "complete", "n": 2},
        "instance": {"family": "ridge_csv", "path": str(data), "standardize": False},
        "mu": 0.001,
        "budget": 100,
        "seeds": [1],
        "out_dir": str(tmp_path / "out"),
        "algorithms": [{"name": "consensus_gd", "eta": 0.1}],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli_main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "FAILED consensus_gd seed 1" in err
    with open(os.path.join(cfg["out_dir"], "consensus_gd_seed1.csv"), encoding="utf-8") as fh:
        trace_text = fh.read()
    assert "failed=True" in trace_text
    # no aggregate when every seed failed
    assert not os.path.exists(os.path.join(cfg["out_dir"], "consensus_gd_aggregate.csv"))
