"""Acceptance gate: one test per quantitative criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion with its measured margin and runtime.
"""

import math
import os
import time

import numpy as np

from zojade import (
    BaselineConfig,
    BlackBoxObjective,
    ExperimentConfig,
    JadeConfig,
    Xoshiro256,
    descent_coefficient,
    estimate_both,
    estimate_gradient,
    fit_exponential_rate,
    gamma_mu_scaling_check,
    gradient_error_bound,
    hessian_error_bound,
    lyapunov_bounds_check,
    metropolis_hastings,
    mu2,
    quartic_instance,
    queries_to_threshold,
    ridge_synthetic,
    run,
    run_experiment,
    separable_quadratic_instance,
    spectral_gap,
    synthetic_classification,
    topology_from_spec,
)
from zojade.harness import random_dominant_quadratic


def _report(num, name, t0, detail=""):
    elapsed = time.time() - t0
    extra = f" ({detail})" if detail else ""
    print(f"PASS criterion {num}: {name}{extra} [{elapsed:.2f}s]")
    return elapsed


def test_criterion_1_quadratic_exactness():
    t0 = time.time()
    rng = Xoshiro256(101)
    worst = 0.0
    for _ in range(100):
        d = 1 + int(rng.uniform() * 20)
        A, b, c = random_dominant_quadratic(rng, d)
        obj = BlackBoxObjective(
            lambda X, A=A, b=b, c=c: 0.5 * np.einsum("ij,ij->i", X, X @ A) + X @ b + c, d
        )
        x = 0.5 * rng.normals(d)
        out = estimate_both(obj, x, 0.05)
        g_true = A @ x + b
        h_true = np.diag(A)
        g_rel = np.linalg.norm(out.grad_estimate - g_true) / np.linalg.norm(g_true)
        h_rel = np.linalg.norm(out.hessian_diag_estimate - h_true) / np.linalg.norm(h_true)
        worst = max(worst, g_rel, h_rel)
    assert worst <= 1e-9
    elapsed = _report(1, "quadratic exactness", t0, f"worst rel err {worst:.2e}")
    assert elapsed < 3.0


def test_criterion_2_error_bound_equalities():
    t0 = time.time()
    cube = BlackBoxObjective(lambda X: X[:, 0] ** 3, 1)
    quart = BlackBoxObjective(lambda X: X[:, 0] ** 4, 1)
    worst = 0.0
    for mu in (0.2, 0.1, 0.05):
        grad_err = abs(estimate_gradient(cube, np.array([1.0]), mu)[0] - 3.0)
        bound = gradient_error_bound(6.0, mu, 1)
        worst = max(worst, abs(grad_err - bound) / bound)
        hess_err = abs(
            estimate_both(quart, np.array([0.0]), mu).hessian_diag_estimate[0] - 0.0
        )
        bound = hessian_error_bound(24.0, mu)
        worst = max(worst, abs(hess_err - bound) / bound)
    assert worst <= 1e-12
    elapsed = _report(2, "error-bound equalities", t0, f"worst rel dev {worst:.2e}")
    assert elapsed < 3.0


def test_criterion_3_tracking_conservation():
    t0 = time.time()
    instance = separable_quadratic_instance(20, 10, seed=33)
    P = metropolis_hastings(topology_from_spec("ring", 20))
    cfg = JadeConfig(mu=0.05, epsilon=0.05, budget=21 * 500, record_every=1)
    trace = run("zo_jade", instance, P, cfg, seed=1)
    assert not trace.failed
    assert trace.rows[-1].iteration == 500
    worst = max(max(r.tracking_residual_y, r.tracking_residual_z) for r in trace.rows)
    assert worst <= 1e-9
    elapsed = _report(3, "tracking conservation", t0, f"max residual {worst:.2e}")
    assert elapsed < 30.0


def test_criterion_4_fixed_point_and_mu_independence():
    t0 = time.time()
    instance = separable_quadratic_instance(10, 5, seed=44)
    a_bar = sum(np.diag(m.A) for m in instance.models) / 10
    b_bar = sum(m.b for m in instance.models) / 10
    closed_form = -b_bar / a_bar
    assert np.max(np.abs(closed_form - instance.x_star)) <= 1e-12
    P = metropolis_hastings(topology_from_spec("complete", 10))
    finals = []
    for mu in (1e-1, 1e-4):
        cfg = JadeConfig(mu=mu, epsilon=0.3, budget=11 * 400, record_every=50)
        trace = run("zo_jade", instance, P, cfg, seed=2)
        assert not trace.failed
        finals.append(trace.final_x)
        gap = np.max(np.abs(trace.final_x - closed_form))
        assert gap <= 1e-8
    mu_gap = np.max(np.abs(finals[0] - finals[1]))
    assert mu_gap <= 1e-8
    elapsed = _report(4, "fixed point and mu-independence", t0, f"mu gap {mu_gap:.2e}")
    assert elapsed < 30.0


def test_criterion_5_exponential_convergence():
    t0 = time.time()
    instance = separable_quadratic_instance(10, 5, seed=55)
    P = metropolis_hastings(topology_from_spec("ring", 10))
    cfg = JadeConfig(mu=0.05, epsilon=0.1, budget=11 * 600, record_every=1)
    trace = run("zo_jade", instance, P, cfg, seed=3)
    rate, r2 = fit_exponential_rate(trace.iterations(), trace.ef_values())
    assert rate < 0.0
    assert r2 >= 0.95
    elapsed = _report(5, "exponential convergence", t0, f"rate {rate:.3e}, r2 {r2:.4f}")
    assert elapsed < 30.0


def test_criterion_6_gamma_mu_scaling():
    t0 = time.time()
    instance = quartic_instance(4)
    cfg = JadeConfig(mu=0.2, epsilon=0.5, budget=3 * 4000, record_every=100)
    report = gamma_mu_scaling_check(instance, [0.2, 0.1, 0.05], cfg)
    assert not report.excluded
    assert len(report.ratios) == 2
    for ratio in report.ratios:
        assert 2.0 <= ratio <= 8.0
    detail = "ratios " + ", ".join(f"{r:.3f}" for r in report.ratios)
    elapsed = _report(6, "distance-to-optimum mu^2 scaling", t0, detail)
    assert elapsed < 180.0


def _grid_best_queries(algorithm, instance, P, mu, budget, seeds, threshold):
    """Mean queries-to-threshold at the best step size from the coarse grid."""
    grid = [m / instance.constants.L1 for m in (1.0, 0.3, 0.1, 0.03, 0.01)]
    best = math.inf
    best_eta = None
    for eta in grid:
        cfg = BaselineConfig(mu=mu, eta=eta, budget=budget, record_every=10)
        totals = []
        for seed in seeds:
            trace = run(algorithm, instance, P, cfg, seed)
            totals.append(queries_to_threshold(trace, threshold))
        mean = sum(totals) / len(totals)
        if mean < best:
            best = mean
            best_eta = eta
    return best, best_eta


def test_criterion_7_query_efficiency_ordering():
    t0 = time.time()
    P = metropolis_hastings(topology_from_spec("erdos_renyi", 20, p=0.3, seed=7))
    seeds = [1, 2, 3, 4, 5]
    suites = [
        ("ridge", ridge_synthetic(10, 25, 20, seed=3, lam=0.1), 1e-6, 12_000),
        (
            "logistic",
            synthetic_classification(
                10, 25, 20, seed=5, w=0.1, separation=2.0, scale_spread=8.0
            ),
            1e-4,
            8_000,
        ),
    ]
    details = []
    for name, instance, threshold, budget in suites:
        jade_cfg = JadeConfig(mu=1e-3, epsilon=0.2, budget=budget, record_every=10)
        jade_queries = []
        for seed in seeds:
            trace = run("zo_jade", instance, P, jade_cfg, seed)
            jade_queries.append(queries_to_threshold(trace, threshold))
        jade_mean = sum(jade_queries) / len(jade_queries)
        assert jade_mean < math.inf, f"{name}: tracking run missed the target"
        gt_best, gt_eta = _grid_best_queries(
            "gradient_tracking", instance, P, 1e-3, budget, seeds, threshold
        )
        cgd_best, cgd_eta = _grid_best_queries(
            "consensus_gd", instance, P, 1e-3, budget, seeds, threshold
        )
        assert jade_mean < gt_best, f"{name}: {jade_mean} vs tracking {gt_best}"
        assert jade_mean < cgd_best, f"{name}: {jade_mean} vs consensus {cgd_best}"
        details.append(
            f"{name}: jade {jade_mean:.0f} < gt {gt_best:.0f} "
            f"(eta {gt_eta:.3g}), cgd {cgd_best if cgd_best < math.inf else math.inf}"
        )
    elapsed = _report(7, "query-efficiency ordering", t0, "; ".join(details))
    assert elapsed < 300.0


def test_criterion_8_lyapunov_bound_battery():
    t0 = time.time()
    quad = separable_quadratic_instance(4, 3, seed=21)
    logi = synthetic_classification(4, 12, 4, seed=22, w=0.1, separation=1.5)
    quart = quartic_instance(4)
    alphas = []
    for instance, mu, radius in ((quad, 0.05, 1.0), (logi, 0.02, 0.5), (quart, 0.15, 0.4)):
        report = lyapunov_bounds_check(instance, 100, mu, radius=radius)
        assert report.all_passed, report.details[:3]
        assert report.alpha < 0.0
        alphas.append(report.alpha)
    # the closed-form descent coefficient loses its sign exactly above mu_2
    c = quart.constants
    d = quart.d
    flip = mu2(c.m, c.L1, c.L3, d)
    below = descent_coefficient(0.98 * flip, c.m, c.L1, c.L3, d)
    above = descent_coefficient(1.02 * flip, c.m, c.L1, c.L3, d)
    assert below < 0.0 < above
    detail = f"alphas {', '.join(f'{a:.3f}' for a in alphas)}; flip at mu2 {flip:.4f}"
    elapsed = _report(8, "squared-gradient bound battery", t0, detail)
    assert elapsed < 180.0


def test_criterion_9_weight_construction_property_suite():
    t0 = time.time()
    rng = Xoshiro256(909)
    worst_sum = 0.0
    worst_gap = 0.0
    for _ in range(200):
        n = 2 + int(rng.uniform() * 39)
        p = 0.1 + 0.8 * rng.uniform()
        graph = topology_from_spec(
            "erdos_renyi", n, p=p, seed=int(rng.uniform() * 2**31)
        )
        P = metropolis_hastings(graph)
        W = P.weights
        assert np.array_equal(W, W.T)
        row_dev = float(np.max(np.abs(W.sum(axis=1) - 1.0)))
        col_dev = float(np.max(np.abs(W.sum(axis=0) - 1.0)))
        assert row_dev <= 1e-12 and col_dev <= 1e-12
        gap = spectral_gap(P)
        assert gap < 1.0
        worst_sum = max(worst_sum, row_dev, col_dev)
        worst_gap = max(worst_gap, gap)
    detail = f"200 graphs, worst sum dev {worst_sum:.2e}, max gap {worst_gap:.4f}"
    elapsed = _report(9, "mixing-weight property suite", t0, detail)
    assert elapsed < 30.0


def test_criterion_10_byte_for_byte_determinism(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        {
            "topology": {"name": "erdos_renyi", "n": 8, "p": 0.4, "seed": 3},
            "instance": {"family": "ridge_synthetic", "d": 4, "per_agent": 6, "seed": 2},
            "mu": 0.01,
            "budget": 9 * 150,
            "seeds": [1, 2, 3],
            "record_every": 5,
            "algorithms": [
                {"name": "zo_jade", "epsilon": 0.2},
                {"name": "gradient_tracking", "eta": 0.05},
                {"name": "consensus_gd", "eta": 0.05},
            ],
        }
    )
    a_dir = str(tmp_path / "a")
    b_dir = str(tmp_path / "b")
    run_experiment(cfg, out_dir=a_dir, quiet=True)
    run_experiment(cfg, out_dir=b_dir, quiet=True)
    names = sorted(os.listdir(a_dir))
    assert names == sorted(os.listdir(b_dir))
    assert len(names) == 3 * 3 + 3
    for name in names:
        with open(os.path.join(a_dir, name), "rb") as fa:
            with open(os.path.join(b_dir, name), "rb") as fb:
                assert fa.read() == fb.read(), name
    _report(10, "byte-for-byte determinism", t0, f"{len(names)} files compared")
