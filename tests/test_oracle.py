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
    gradient_error_bound,
    gradient_lipschitz_bound,
    hessian_error_bound,
    mu2,
    synthetic_classification,
)
from zojade.harness import VerifyReport, check_quadratic_exactness, random_dominant_quadratic
from zojade.oracle import estimate_hessian_diag


# One-agent black boxes: a batch function maps points X:(1, k, d) to values (1, k).


def sphere(d):
    return BlackBoxObjective(lambda X, block: np.sum(X * X, axis=-1), d)


def cube():
    return BlackBoxObjective(lambda X, block: X[..., 0] ** 3, 1)


def quartic_fn():
    return BlackBoxObjective(lambda X, block: X[..., 0] ** 4, 1)


# --- gradient estimator -----------------------------------------------------


def test_gradient_exact_on_sphere():
    g = estimate_gradient(sphere(2), np.array([[1.0, 2.0]]), 0.1)[0]
    assert np.max(np.abs(g - np.array([2.0, 4.0]))) <= 1e-12


def test_gradient_on_cube_has_mu_squared_offset():
    g = estimate_gradient(cube(), np.array([[1.0]]), 0.1)[0]
    assert abs(g[0] - 3.01) <= 1e-12


def test_gradient_of_constant_is_zero():
    obj = BlackBoxObjective(lambda X, block: np.full(X.shape[:2], 4.2), 3)
    g = estimate_gradient(obj, np.array([[0.3, -1.0, 2.0]]), 0.05)[0]
    assert np.array_equal(g, np.zeros(3))


def test_gradient_consumes_exactly_2d_queries():
    for d in range(1, 51):
        obj = sphere(d)
        estimate_gradient(obj, np.zeros((1, d)), 0.1)
        assert obj.query_count == 2 * d
        both = sphere(d)
        estimate_both(both, np.zeros((1, d)), 0.1)
        assert both.query_count == 2 * d + 1


# --- Hessian-diagonal estimator ----------------------------------------------


def test_hessian_diag_exact_on_diagonal_quadratic():
    obj = BlackBoxObjective(
        lambda X, block: 0.5 * (2.0 * X[..., 0] ** 2 + 6.0 * X[..., 1] ** 2), 2
    )
    x = np.array([[0.7, -1.3]])
    center = 0.5 * (2.0 * 0.7**2 + 6.0 * 1.3**2)
    h = estimate_hessian_diag(obj, x, 0.05, [center])[0]
    assert np.max(np.abs(h - np.array([2.0, 6.0]))) <= 1e-9


def test_hessian_diag_of_cube_is_six_for_any_mu():
    for mu in (0.5, 0.1, 0.01):
        obj = cube()
        h = estimate_hessian_diag(obj, np.array([[1.0]]), mu, [1.0])[0]
        assert abs(h[0] - 6.0) <= 1e-9


def test_hessian_diag_of_affine_is_zero():
    obj = BlackBoxObjective(lambda X, block: X @ np.array([2.0, -3.0]) + 1.0, 2)
    x = np.array([[0.4, 0.9]])
    h = estimate_hessian_diag(obj, x, 0.1, [2.0 * 0.4 - 3.0 * 0.9 + 1.0])
    assert np.max(np.abs(h)) <= 1e-9


def test_hessian_diag_takes_a_tuple_of_each_replicas_step():
    # the tuple probes each replica with its own step, 2d queries per agent,
    # and gives the Hessian-diagonal estimate of estimate_both
    def box():
        return BlackBoxObjective(lambda X, block: np.sum(X**4 - X, axis=-1), 2, agents=3,
                                 replicas=2)

    x = Xoshiro256(5).normals(2, 3, 2)
    center = np.sum(x**4 - x, axis=-1)
    obj, both = box(), box()
    h = estimate_hessian_diag(obj, x, (0.1, 0.2), center)
    assert obj.agent_queries.tolist() == [[4, 4, 4], [4, 4, 4]]
    assert h.tobytes() == estimate_both(both, x, (0.1, 0.2))[1].tobytes()
    for r, mu in enumerate((0.1, 0.2)):
        alone = BlackBoxObjective(lambda X, block: np.sum(X**4 - X, axis=-1), 2, agents=3)
        assert h[r].tobytes() == estimate_hessian_diag(alone, x[r], mu, center[r]).tobytes()


# --- joint estimator ---------------------------------------------------------


def test_joint_estimator_query_count():
    obj = sphere(20)
    estimate_both(obj, np.zeros((1, 20)), 0.1)
    assert obj.query_count == 41


def test_joint_estimator_constant_function():
    obj = BlackBoxObjective(lambda X, block: np.zeros(X.shape[:2]) + 7.0, 1)
    grad, hdiag = estimate_both(obj, np.array([[0.0]]), 0.3)
    assert grad[0, 0] == 0.0
    assert hdiag[0, 0] == 0.0
    assert obj.query_count == 3


def test_joint_estimator_bit_identical_to_separate_calls():
    # identical probe points, identical arithmetic -> identical bits
    x = np.array([[0.3, -0.8, 1.1]])
    obj = BlackBoxObjective(lambda X, block: np.sum(X**4 - X, axis=-1), 3)
    grad, hdiag = estimate_both(obj, x, 0.07)
    g = estimate_gradient(obj, x, 0.07)
    center = obj.evaluate_probes(x, 0.07, 7)[:, -1]
    h = estimate_hessian_diag(obj, x, 0.07, center)
    assert np.array_equal(grad, g)
    assert np.array_equal(hdiag, h)


def test_joint_estimator_matches_analytics_on_quadratic():
    rng = Xoshiro256(17)
    A, b, c = random_dominant_quadratic(rng, 6)
    obj = BlackBoxObjective(
        lambda X, block: 0.5 * np.einsum("...ij,...ij->...i", X, X @ A) + X @ b + c, 6
    )
    x = 0.5 * rng.normals(6)
    (grad,), (hdiag,) = estimate_both(obj, x[None], 1e-2)
    assert np.linalg.norm(grad - (A @ x + b)) <= 1e-10 * np.linalg.norm(A @ x + b)
    assert np.linalg.norm(hdiag - np.diag(A)) <= 1e-10 * np.linalg.norm(np.diag(A))


@pytest.mark.parametrize("takes_step", [True, False])
@pytest.mark.parametrize("j, probe, offset", [(3, "coordinate 1, -mu", [0.0, -0.5, 0.0]),
                                              (6, "center", [0.0, 0.0, 0.0])])
def test_a_failing_probe_is_named_by_its_place_in_the_layout(takes_step, j, probe, offset):
    # d = 3, k = 2d + 1: probe 3 is x - mu e_1 and probe 6 the center x.  Only
    # replica 1's agent 2 fails, at its own step 0.5, not replica 0's 0.25
    d, mu = 3, (0.25, 0.5)
    x = np.arange(2 * 4 * d).reshape(2, 4, d) / 8.0

    def batch_fn(X, block, step=None, k=0):
        values = np.zeros(X.shape[:-1] if step is None else X.shape[:-1] + (k,))
        values[1, 2, j] = math.inf
        return values

    obj = BlackBoxObjective(batch_fn, d, agents=4, replicas=2, takes_step=takes_step, name="f")
    estimate_both(obj, x, mu)
    point = x[1, 2] + offset
    assert obj.failures == {
        1: f"objective 'f' agent 2 returned inf at probe point {point.tolist()} ({probe})"}


def test_probe_evaluation_error_names_the_point():
    def half_line_log(X, block):
        with np.errstate(invalid="ignore"):
            return np.log(X[..., 0])

    obj = BlackBoxObjective(half_line_log, 1, name="logx")
    # a single cost is agent 0 of a one-agent black box
    with pytest.raises(EvaluationError, match=r"'logx' agent 0 returned nan at probe point"):
        estimate_gradient(obj, np.array([[0.05]]), 0.1)


# --- repeated probe sets ------------------------------------------------------


def recording(d, agents=2, replicas=None):
    """A counter over agents' costs sum(x^4 - x) that logs each family call."""
    calls = []

    def fn(X, block):
        calls.append(block)
        return np.sum(X**4 - X, axis=-1)

    return BlackBoxObjective(fn, d, agents=agents, replicas=replicas), calls


def arrays(estimate):
    return estimate if isinstance(estimate, tuple) else (estimate,)


@pytest.mark.parametrize("estimator", [estimate_gradient, estimate_both])
def test_a_repeated_probe_set_is_counted_and_answered_without_a_family_call(estimator):
    # sets A, B, A, B: the last two sets answered are kept, so a period-2
    # cycle repeats from its third round on
    a, b = Xoshiro256(3).normals(2, 2, 3)
    obj, calls = recording(3)
    answers = [estimator(obj, x, 0.05) for x in (a, b, a.copy(), b.copy())]
    assert len(calls) == 2
    k = 2 * 3 + (estimator is estimate_both)
    assert obj.agent_queries.tolist() == [4 * k, 4 * k]
    for x, estimate in zip((a, b, a, b), answers):
        fresh = estimator(recording(3)[0], x, 0.05)
        assert [e.tobytes() for e in arrays(estimate)] == [e.tobytes() for e in arrays(fresh)]


def test_only_the_last_two_probe_sets_are_kept():
    a, b, c = Xoshiro256(4).normals(3, 1, 2)
    obj, calls = recording(2, agents=1)
    for x in (a, b, c, a):
        estimate_gradient(obj, x, 0.1)
    assert len(calls) == 4 and obj.query_count == 4 * 4


def hessian_after_gradient(obj, x, signed):
    # the Hessian diagonal takes its center from outside: it never reads the
    # store, not even the gradient's set of the same x, mu and k
    estimate_gradient(obj, x, 0.1)
    estimate_hessian_diag(obj, x, 0.1, np.zeros(2))


@pytest.mark.parametrize("repeat, calls_made", [
    (lambda obj, x, signed: estimate_both(obj, x, 0.2), 1),  # other mu
    (lambda obj, x, signed: estimate_gradient(obj, x, 0.1), 1),  # other k and estimator
    (lambda obj, x, signed: estimate_both(obj, signed, 0.1), 1),
    (hessian_after_gradient, 2),
], ids=["mu", "estimator", "signed-zero", "hessian-diagonal"])
def test_a_probe_set_that_differs_in_anything_else_is_evaluated(repeat, calls_made):
    x = np.array([[0.0, 1.5], [-2.0, 0.25]])
    signed = x.copy()
    signed[0, 0] = -0.0  # equal as numbers, not bit for bit
    obj, calls = recording(2)
    estimate_both(obj, x, 0.1)
    repeat(obj, x, signed)
    assert len(calls) == 1 + calls_made


def test_a_probe_set_of_other_live_replicas_is_evaluated_and_counted_for_them():
    obj, calls = recording(2, replicas=3)
    x = Xoshiro256(6).normals(2, 2, 2)
    obj.live = np.array([0, 1])
    estimate_gradient(obj, x, 0.1)
    obj.live = np.array([1, 2])
    estimate_gradient(obj, x, 0.1)
    assert len(calls) == 2
    assert obj.agent_queries.tolist() == [[4, 4], [8, 8], [4, 4]]


def test_a_probe_set_with_a_non_finite_value_is_never_stored():
    def box(replicas):
        return BlackBoxObjective(lambda X, block: np.where(X[..., 0] > 10.0, np.inf, 1.0), 1,
                                 replicas=replicas)

    x = np.array([[[0.0]], [[20.0]]])
    obj = box(2)
    for _ in range(2):
        estimate_both(obj, x, 0.1)
        assert obj.failures.keys() == {1} and obj.answers == []
        obj.failures.clear()
    obj = box(None)
    with pytest.raises(EvaluationError):
        estimate_gradient(obj, x[1], 0.1)
    assert obj.answers == []


@pytest.mark.parametrize("estimator", [estimate_gradient, estimate_both])
def test_an_estimate_is_read_only(estimator):
    obj, _ = recording(2)
    x = np.ones((2, 2))
    for estimate in (estimator(obj, x, 0.1), estimator(obj, x, 0.1)):
        for array in arrays(estimate):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


# --- closed-form bounds -------------------------------------------------------


def test_gradient_error_bound_values():
    assert math.isclose(gradient_error_bound(6.0, 0.1, 1), 0.01, rel_tol=1e-12)
    assert gradient_error_bound(0.0, 0.5, 9) == 0.0
    assert math.isclose(gradient_error_bound(1.0, 1.0, 4), 1.0 / 3.0, rel_tol=1e-12)


def test_gradient_error_bound_tight_on_cube():
    for mu in (0.2, 0.1, 0.05):
        g = estimate_gradient(cube(), np.array([[1.0]]), mu)[0]
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
        _, hdiag = estimate_both(obj, np.array([[0.0]]), mu)
        h = hdiag[0, 0]
        bound = hessian_error_bound(24.0, mu)
        assert abs(h - bound) <= 1e-12 * bound


def test_error_containment_at_random_points():
    rng = Xoshiro256(31)
    box = 2.0
    for _ in range(100):
        x = np.array([box * (2.0 * rng.uniform() - 1.0)])
        mu = 0.02 + 0.1 * rng.uniform()
        g = estimate_gradient(cube(), x[None], mu)[0, 0]
        assert abs(g - 3.0 * x[0] ** 2) <= gradient_error_bound(6.0, mu, 1) + 1e-12
        q = quartic_fn()
        (grad,), (hdiag,) = estimate_both(q, x[None], mu)
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
        (grad,), (hdiag,) = estimate_both(gb, x[None], mu)
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
        (gx,), _ = estimate_both(gb, x[None], mu)
        (gy,), _ = estimate_both(gb, y[None], mu)
        gap = np.linalg.norm(x - y)
        assert np.linalg.norm(gx - gy) <= kg * gap + 1e-10


def test_mu_squared_error_scaling():
    # cubic: the estimate error is exactly mu^2, so halving mu divides it by 4
    e1 = estimate_gradient(cube(), np.array([[1.0]]), 0.1)[0, 0] - 3.0
    e2 = estimate_gradient(cube(), np.array([[1.0]]), 0.05)[0, 0] - 3.0
    assert abs(e1 / e2 - 4.0) <= 1e-9
    # generic smooth function: ratio approaches 4 from within [3.5, 4.5]
    obj = BlackBoxObjective(lambda X, block: np.exp(X[..., 0]), 1)
    x = np.array([[0.3]])
    true = math.exp(0.3)
    r1 = estimate_gradient(obj, x, 0.1)[0, 0] - true
    r2 = estimate_gradient(obj, x, 0.05)[0, 0] - true
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
        estimate_gradient(sphere(2), np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        estimate_both(sphere(2), np.zeros((1, 2)), -0.1)
    # NaN and +inf are rejected as steps, before any probe blames the
    # objective, and so is a replica's NaN in a tuple of steps
    for mu, bad in ((math.nan, math.nan), (math.inf, math.inf), ((0.1, math.nan), math.nan)):
        for estimate in (estimate_gradient, estimate_both):
            obj = sphere(2)
            with pytest.raises(ValueError, match=f"^mu must be positive and finite, got {bad}$"):
                estimate(obj, np.zeros((1, 2)), mu)
            assert obj.query_count == 0
        with pytest.raises(ValueError, match="^mu must be positive"):
            estimate_hessian_diag(sphere(2), np.zeros((1, 2)), mu, [0.0])
