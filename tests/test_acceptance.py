"""Acceptance gate: one test per quantitative criterion.

Criteria 1-6 and 8-10 run the checks of `zojade verify` (`harness.check_*`)
at acceptance scale; criterion 7 exists only here.  Run with
`pytest -s tests/test_acceptance.py` to see one PASS line per criterion
with its measured margin and runtime.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

from zojade import (
    BaselineConfig,
    ExperimentConfig,
    JadeConfig,
    harness,
    metropolis_hastings,
    queries_to_threshold,
    run,
    separable_quadratic_instance,
    topology_from_spec,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, t0, detail=""):
    elapsed = time.time() - t0
    extra = f" ({detail})" if detail else ""
    print(f"PASS criterion {num}: {name}{extra} [{elapsed:.2f}s]")
    return elapsed


@contextmanager
def _criterion(num, name, max_seconds):
    """Collect `zojade verify` checks run at acceptance scale, require them all
    to pass, print the PASS line and bound the elapsed time."""
    t0 = time.time()
    report = harness.VerifyReport()
    yield report
    assert report.all_passed, [c for c in report.checks if not c["passed"]]
    elapsed = _report(num, name, t0, "; ".join(c["detail"] for c in report.checks))
    assert elapsed < max_seconds


def test_criterion_1_quadratic_exactness():
    with _criterion(1, "quadratic exactness", 3.0) as report:
        harness.check_quadratic_exactness(report, seed=101, trials=100, d_max=20, mus=(0.05,))


def test_criterion_2_error_bound_equalities():
    with _criterion(2, "error-bound equalities", 3.0) as report:
        harness.check_error_bounds(report)


def test_criterion_3_tracking_conservation():
    with _criterion(3, "tracking conservation", 30.0) as report:
        instance = separable_quadratic_instance(20, 10, seed=33)
        P = metropolis_hastings(topology_from_spec("ring", 20))
        cfg = JadeConfig(mu=0.05, epsilon=0.05, budget=21 * 500, record_every=1)
        harness.check_tracking_conservation(report, instance, P, cfg, seed=1)


def test_criterion_4_fixed_point_and_mu_independence():
    with _criterion(4, "fixed point and mu-independence", 30.0) as report:
        instance = separable_quadratic_instance(10, 5, seed=44)
        P = metropolis_hastings(topology_from_spec("complete", 10))
        harness.check_fixed_point_and_mu_independence(
            report, instance, P, epsilon=0.3, iterations=400, seed=2
        )


def test_criterion_5_exponential_convergence():
    with _criterion(5, "exponential convergence", 30.0) as report:
        instance = separable_quadratic_instance(10, 5, seed=55)
        P = metropolis_hastings(topology_from_spec("ring", 10))
        cfg = JadeConfig(mu=0.05, epsilon=0.1, budget=11 * 600, record_every=1)
        harness.check_exponential_convergence(report, instance, P, cfg, seed=3)


def test_criterion_6_gamma_mu_scaling():
    with _criterion(6, "distance-to-optimum mu^2 scaling", 180.0) as report:
        harness.check_gamma_scaling(report)


def _grid_best_queries(algorithm, instance, P, jade_cfg, seeds, threshold):
    """Mean queries-to-threshold at the best step size from the coarse grid,
    every (step size, seed) pair one replica of one run."""
    grid = [m / instance.constants.L1 for m in (1.0, 0.3, 0.1, 0.03, 0.01)]
    replicas = [
        (BaselineConfig(mu=jade_cfg.mu, eta=eta, budget=jade_cfg.budget,
                        record_every=jade_cfg.record_every), seed)
        for eta in grid
        for seed in seeds
    ]
    traces = run(algorithm, instance, P, replicas)
    best = math.inf
    best_eta = None
    for k, eta in enumerate(grid):
        totals = [queries_to_threshold(trace, threshold)
                  for trace in traces[k * len(seeds):(k + 1) * len(seeds)]]
        mean = sum(totals) / len(totals)
        if mean < best:
            best = mean
            best_eta = eta
    return best, best_eta


def test_criterion_7_query_efficiency_ordering():
    # each suite is a shipped config: its graph, instance, budget, seeds and
    # zo_jade entry; the baselines get a step-size grid in place of their entries
    t0 = time.time()
    details = []
    for name, threshold in (("quickstart", 1e-6), ("logistic", 1e-4)):
        cfg = ExperimentConfig.from_file(str(CONFIGS / f"{name}.json"))
        _, P = harness.build_topology(cfg)
        instance = harness.build_instance(cfg)
        entry = next(e for e in cfg.data["algorithms"] if e["name"] == "zo_jade")
        jade_cfg = harness.algorithm_config(cfg, entry)
        jade_queries = [
            queries_to_threshold(trace, threshold)
            for trace in run("zo_jade", instance, P, [(jade_cfg, s) for s in cfg.seeds])
        ]
        jade_mean = sum(jade_queries) / len(jade_queries)
        assert jade_mean < math.inf, f"{name}: tracking run missed the target"
        gt_best, gt_eta = _grid_best_queries(
            "gradient_tracking", instance, P, jade_cfg, cfg.seeds, threshold
        )
        cgd_best, cgd_eta = _grid_best_queries(
            "consensus_gd", instance, P, jade_cfg, cfg.seeds, threshold
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
    with _criterion(8, "squared-gradient bound battery", 180.0) as report:
        harness.check_lyapunov(report, points=100)
        harness.check_descent_sign_flip(report)


def test_criterion_9_weight_construction_property_suite():
    with _criterion(9, "mixing-weight property suite", 30.0) as report:
        harness.check_consensus_matrices(report, seed=909, count=200)


def test_criterion_10_byte_for_byte_determinism():
    with _criterion(10, "byte-for-byte determinism", math.inf) as report:
        harness.check_determinism(
            report,
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
            },
        )
