import math

import numpy as np
import pytest

from zojade import (
    BlackBoxObjective,
    EvaluationError,
    Xoshiro256,
    admissible_mu,
    descent_coefficient,
    estimate_both,
    estimate_gradient,
    estimate_hessian_diag,
    gradient_error_bound,
    gradient_lipschitz_bound,
    hessian_error_bound,
    mu2,
    synthetic_classification,
)
from zojade.harness import VerifyReport, check_quadratic_exactness, random_dominant_quadratic


def sphere(d):
    return BlackBoxObjective(lambda X: np.sum(X * X, axis=1), d)


def cube():
    return BlackBoxObjective(lambda X: X[:, 0] ** 3, 1)


def quartic_fn():
    return BlackBoxObjective(lambda X: X[:, 0] ** 4, 1)


# --- gradient estimator -----------------------------------------------------


def test_gradient_exact_on_sphere():
    g = estimate_gradient(sphere(2), np.array([1.0, 2.0]), 0.1)
    assert np.max(np.abs(g - np.array([2.0, 4.0]))) <= 1e-12


def test_gradient_on_cube_has_mu_squared_offset():
    g = estimate_gradient(cube(), np.array([1.0]), 0.1)
    assert abs(g[0] - 3.01) <= 1e-12


def test_gradient_of_constant_is_zero():
    obj = BlackBoxObjective(lambda X: np.full(X.shape[0], 4.2), 3)
    g = estimate_gradient(obj, np.array([0.3, -1.0, 2.0]), 0.05)
    assert np.array_equal(g, np.zeros(3))


def test_gradient_consumes_exactly_2d_queries():
    for d in range(1, 51):
        obj = sphere(d)
        estimate_gradient(obj, np.zeros(d), 0.1)
        assert obj.query_count == 2 * d
        both = sphere(d)
        estimate_both(both, np.zeros(d), 0.1)
        assert both.query_count == 2 * d + 1


# --- Hessian-diagonal estimator ----------------------------------------------


def test_hessian_diag_exact_on_diagonal_quadratic():
    obj = BlackBoxObjective(lambda X: 0.5 * (2.0 * X[:, 0] ** 2 + 6.0 * X[:, 1] ** 2), 2)
    x = np.array([0.7, -1.3])
    center = 0.5 * (2.0 * 0.7**2 + 6.0 * 1.3**2)
    h = estimate_hessian_diag(obj, x, 0.05, center)
    assert np.max(np.abs(h - np.array([2.0, 6.0]))) <= 1e-9


def test_hessian_diag_of_cube_is_six_for_any_mu():
    for mu in (0.5, 0.1, 0.01):
        obj = cube()
        h = estimate_hessian_diag(obj, np.array([1.0]), mu, 1.0)
        assert abs(h[0] - 6.0) <= 1e-9


def test_hessian_diag_of_affine_is_zero():
    obj = BlackBoxObjective(lambda X: X @ np.array([2.0, -3.0]) + 1.0, 2)
    x = np.array([0.4, 0.9])
    h = estimate_hessian_diag(obj, x, 0.1, 2.0 * 0.4 - 3.0 * 0.9 + 1.0)
    assert np.max(np.abs(h)) <= 1e-9


# --- joint estimator ---------------------------------------------------------


def test_joint_estimator_query_count():
    obj = sphere(20)
    estimate_both(obj, np.zeros(20), 0.1)
    assert obj.query_count == 41


def test_joint_estimator_constant_function():
    obj = BlackBoxObjective(lambda X: np.zeros(X.shape[0]) + 7.0, 1)
    grad, hdiag = estimate_both(obj, np.array([0.0]), 0.3)
    assert grad[0] == 0.0
    assert hdiag[0] == 0.0
    assert obj.query_count == 3


def test_joint_estimator_bit_identical_to_separate_calls():
    # identical probe points, identical arithmetic -> identical bits
    x = np.array([0.3, -0.8, 1.1])
    obj = BlackBoxObjective(lambda X: np.sum(X**4 - X, axis=1), 3)
    grad, hdiag = estimate_both(obj, x, 0.07)
    g = estimate_gradient(obj, x, 0.07)
    center = obj.evaluate_probes(x, np.zeros((1, 3)))[0]
    h = estimate_hessian_diag(obj, x, 0.07, center)
    assert np.array_equal(grad, g)
    assert np.array_equal(hdiag, h)


def test_joint_estimator_matches_analytics_on_quadratic():
    rng = Xoshiro256(17)
    A, b, c = random_dominant_quadratic(rng, 6)
    obj = BlackBoxObjective(
        lambda X: 0.5 * np.einsum("ij,ij->i", X, X @ A) + X @ b + c, 6
    )
    x = 0.5 * rng.normals(6)
    grad, hdiag = estimate_both(obj, x, 1e-2)
    assert np.linalg.norm(grad - (A @ x + b)) <= 1e-10 * np.linalg.norm(A @ x + b)
    assert np.linalg.norm(hdiag - np.diag(A)) <= 1e-10 * np.linalg.norm(np.diag(A))


def test_probe_evaluation_error_names_the_point():
    def half_line_log(X):
        with np.errstate(invalid="ignore"):
            return np.log(X[:, 0])

    obj = BlackBoxObjective(half_line_log, 1, name="logx")
    with pytest.raises(EvaluationError, match="probe point"):
        estimate_gradient(obj, np.array([0.05]), 0.1)


# --- closed-form bounds -------------------------------------------------------


def test_gradient_error_bound_values():
    assert math.isclose(gradient_error_bound(6.0, 0.1, 1), 0.01, rel_tol=1e-12)
    assert gradient_error_bound(0.0, 0.5, 9) == 0.0
    assert math.isclose(gradient_error_bound(1.0, 1.0, 4), 1.0 / 3.0, rel_tol=1e-12)


def test_gradient_error_bound_tight_on_cube():
    for mu in (0.2, 0.1, 0.05):
        g = estimate_gradient(cube(), np.array([1.0]), mu)
        err = abs(g[0] - 3.0)
        bound = gradient_error_bound(6.0, mu, 1)
        assert abs(err - bound) <= 1e-12 * bound


def test_hessian_error_bound_values():
    assert hessian_error_bound(0.0, 0.3) == 0.0
    assert math.isclose(hessian_error_bound(12.0, 0.1), 0.01, rel_tol=1e-12)


def test_hessian_error_bound_tight_on_quartic():
    # f = x^4 at 0: estimate is exactly 2 mu^2 while the true diagonal is 0
    for mu in (0.2, 0.1):
        obj = quartic_fn()
        _, hdiag = estimate_both(obj, np.array([0.0]), mu)
        h = hdiag[0]
        bound = hessian_error_bound(24.0, mu)
        assert abs(h - bound) <= 1e-12 * bound


def test_error_containment_at_random_points():
    rng = Xoshiro256(31)
    box = 2.0
    for _ in range(100):
        x = np.array([box * (2.0 * rng.uniform() - 1.0)])
        mu = 0.02 + 0.1 * rng.uniform()
        g = estimate_gradient(cube(), x, mu)[0]
        assert abs(g - 3.0 * x[0] ** 2) <= gradient_error_bound(6.0, mu, 1) + 1e-12
        q = quartic_fn()
        grad, hdiag = estimate_both(q, x, mu)
        assert abs(grad[0] - 4.0 * x[0] ** 3) <= gradient_error_bound(24.0 * box, mu, 1) + 1e-9
        assert abs(hdiag[0] - 12.0 * x[0] ** 2) <= hessian_error_bound(24.0, mu) + 1e-9


def test_error_containment_logistic():
    instance = synthetic_classification(4, 20, 2, seed=6, w=0.2)
    c = instance.constants
    gb = instance.global_black_box()
    rng = Xoshiro256(8)
    for _ in range(50):
        x = rng.normals(instance.d)
        mu = 0.01 + 0.04 * rng.uniform()
        grad, hdiag = estimate_both(gb, x, mu)
        g_err = np.linalg.norm(grad - instance.global_gradient(x))
        assert g_err <= gradient_error_bound(c.L2, mu, instance.d) + 1e-10
        h_err = np.max(np.abs(hdiag - np.diag(instance.global_hessian(x))))
        assert h_err <= hessian_error_bound(c.L3, mu) + 1e-10


def test_estimator_lipschitz_bounds():
    instance = synthetic_classification(4, 15, 2, seed=14, w=0.2)
    c = instance.constants
    gb = instance.global_black_box()
    rng = Xoshiro256(9)
    mu = 0.05
    kg = gradient_lipschitz_bound(c.L1, c.L2, mu, instance.d)
    for _ in range(40):
        x = rng.normals(instance.d)
        y = rng.normals(instance.d)
        gx, _ = estimate_both(gb, x, mu)
        gy, _ = estimate_both(gb, y, mu)
        gap = np.linalg.norm(x - y)
        assert np.linalg.norm(gx - gy) <= kg * gap + 1e-10


def test_mu_squared_error_scaling():
    # cubic: the estimate error is exactly mu^2, so halving mu divides it by 4
    e1 = estimate_gradient(cube(), np.array([1.0]), 0.1)[0] - 3.0
    e2 = estimate_gradient(cube(), np.array([1.0]), 0.05)[0] - 3.0
    assert abs(e1 / e2 - 4.0) <= 1e-9
    # generic smooth function: ratio approaches 4 from within [3.5, 4.5]
    obj = BlackBoxObjective(lambda X: np.exp(X[:, 0]), 1)
    x = np.array([0.3])
    true = math.exp(0.3)
    r1 = estimate_gradient(obj, x, 0.1)[0] - true
    r2 = estimate_gradient(obj, x, 0.05)[0] - true
    assert 3.5 <= r1 / r2 <= 4.5


# --- admissible probe step ----------------------------------------------------


def test_admissible_mu_unbounded_for_quadratics():
    assert admissible_mu(1.0, 2.0, 0.0, 5) == math.inf


def test_admissible_mu_reference_value():
    # m = L1 = 1, L3 = 6, d = 1: the positivity branch gives sqrt(sqrt(2) - 1)
    value = admissible_mu(1.0, 1.0, 6.0, 1)
    assert abs(value - math.sqrt(math.sqrt(2.0) - 1.0)) <= 1e-12


def _bisect_descent_root(m, L1, L3, d):
    lo, hi = 1e-9, math.sqrt(12.0 * m / L3) * (1.0 - 1e-12)
    assert descent_coefficient(lo, m, L1, L3, d) < 0.0 < descent_coefficient(hi, m, L1, L3, d)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if descent_coefficient(mid, m, L1, L3, d) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_admissible_mu_cross_checked_by_bisection():
    # the closed form for the descent branch must match a brute-force
    # search for the sign change of the descent coefficient
    for m, L1, L3, d in [(1.0, 1.0, 6.0, 1), (0.5, 3.0, 10.0, 4), (2.0, 7.0, 24.0, 10)]:
        mu2_bisect = _bisect_descent_root(m, L1, L3, d)
        assert abs(mu2(m, L1, L3, d) - mu2_bisect) <= 1e-9
        mu1 = math.sqrt(6.0 * m * m / (d * L3 * (math.hypot(L1, m) + L1)))
        assert abs(admissible_mu(m, L1, L3, d) - min(mu1, mu2_bisect)) <= 1e-9


def test_admissible_mu_shrinks_with_dimension():
    for d in (1, 2, 5, 11):
        assert admissible_mu(1.0, 3.0, 8.0, 2 * d) < admissible_mu(1.0, 3.0, 8.0, d)


def test_quadratic_exactness_battery():
    report = VerifyReport()
    check_quadratic_exactness(report, seed=2, trials=100, d_max=10, mus=(1e-1, 1e-3))
    assert report.all_passed, report.checks


def test_mu_must_be_positive():
    with pytest.raises(ValueError):
        estimate_gradient(sphere(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        estimate_both(sphere(2), np.zeros(2), -0.1)
