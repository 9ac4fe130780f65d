import math
import re
import warnings

import numpy as np
import pytest

from zojade import (
    ConfigurationError,
    InstanceConstructionError,
    LogisticObjective,
    QuarticObjective,
    Xoshiro256,
    estimate_gradient,
    gradient_error_bound,
    load_csv,
    logistic_instance,
    quartic_instance,
    ridge_instance_from_shards,
    ridge_synthetic,
    separable_quadratic_instance,
    shard_round_robin,
    standardize_features,
    synthetic_classification,
    topology_from_spec,
)
from zojade.objectives import _damped_newton


# --- ridge -------------------------------------------------------------------


def test_ridge_single_sample_hand_solution():
    # f(x) = (x - 2)^2 + x^2/2 has its minimum at 4/3
    inst = ridge_instance_from_shards(np.array([[1.0]]), np.array([2.0]), n=1, lam=1.0)
    assert abs(inst.x_star[0] - 4.0 / 3.0) <= 1e-14


def test_ridge_zero_targets_minimized_at_origin():
    rng = Xoshiro256(4)
    features = rng.normals(12, 3)
    inst = ridge_instance_from_shards(features, np.zeros(12), n=3, lam=0.5)
    assert np.max(np.abs(inst.x_star)) <= 1e-14
    assert inst.f_star == 0.0


def test_ridge_identical_shards_match_union():
    rng = Xoshiro256(6)
    rows = rng.normals(4, 2)
    targets = rng.normals(4)
    duplicated = np.repeat(rows, 2, axis=0)  # round-robin gives two equal shards
    dup_targets = np.repeat(targets, 2)
    two = ridge_instance_from_shards(duplicated, dup_targets, n=2, lam=0.3)
    one = ridge_instance_from_shards(rows, targets, n=1, lam=0.3)
    assert np.max(np.abs(two.x_star - one.x_star)) <= 1e-12


def test_ridge_validates_inputs():
    with pytest.raises(ConfigurationError):
        ridge_instance_from_shards(np.ones((2, 2)), np.ones(2), n=3, lam=0.1)
    with pytest.raises(ConfigurationError):
        ridge_instance_from_shards(np.ones((2, 2)), np.ones(2), n=1, lam=0.0)
    with pytest.raises(ConfigurationError):
        ridge_instance_from_shards(np.ones((2, 2)), np.ones(3), n=1, lam=0.1)


# --- logistic ----------------------------------------------------------------


def test_logistic_no_samples_is_pure_ridge():
    inst = logistic_instance(np.zeros((0, 0)), np.zeros(0), n=3, w=0.5)
    assert np.max(np.abs(inst.x_star)) <= 1e-12
    assert abs(inst.f_star) <= 1e-20
    assert inst.constants.m == 0.5


def test_logistic_label_flip_negates_solution():
    samples = np.array([[0.8, -0.2]])
    plus = logistic_instance(samples, np.array([1.0]), n=1, w=0.1)
    minus = logistic_instance(samples, np.array([-1.0]), n=1, w=0.1)
    assert np.max(np.abs(plus.x_star + minus.x_star)) <= 1e-9


def test_logistic_two_sample_newton_reaches_tolerance():
    samples = np.array([[1.0], [-1.2]])
    labels = np.array([1.0, -1.0])
    inst = logistic_instance(samples, labels, n=1, w=0.1)
    assert np.linalg.norm(inst.global_gradient(inst.x_star)) <= 1e-10


def test_logistic_rejects_bad_labels():
    with pytest.raises(ConfigurationError):
        logistic_instance(np.ones((2, 1)), np.array([1.0, 0.0]), n=1, w=0.1)
    with pytest.raises(ConfigurationError):
        logistic_instance(np.ones((2, 1)), np.array([1.0, -1.0]), n=1, w=0.0)


@pytest.mark.parametrize(
    "counts",
    [[2.9, True], [2, True], np.array([True, True]), np.array([2.0, 1.0]), [2, 4], [2]],
    ids=["float_bool", "bool_in_list", "bool_array", "float_array", "above_rows", "short"],
)
def test_logistic_rejects_counts_that_are_not_integers_in_range(counts):
    # float and bool counts used to be truncated to integers silently
    with pytest.raises(ConfigurationError, match=r"sample counts must be 2 integers in \[0, 3\]"):
        LogisticObjective(np.ones((2, 3, 2)), 0.1, counts=counts)


def _ulps(a, b):
    """Distance in units in the last place between nonnegative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_logistic_loss_is_within_two_ulp_of_a_high_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 709.0, -709.0, 745.2, -745.2, 1e4, -1e4]
    z = np.concatenate([rng.uniform(-40, 40, 2500), rng.uniform(-800, 800, 2500), special])
    # one agent per margin with one sample u = z at x = 1, and a ridge weight
    # so small that 0.5 w rounds to zero: value_many returns the bare loss
    w = 5e-324
    assert 0.5 * w == 0.0
    family = LogisticObjective(z[:, None, None], w)
    got = family.value_many(np.ones((z.size, 1, 1)))[:, 0]
    with mpmath.workprec(200):
        want = np.array([float(mpmath.log1p(mpmath.exp(-mpmath.mpf(t)))) for t in z])
    assert _ulps(got, want).max() <= 2


def test_logistic_value_is_finite_without_warnings_at_huge_margins():
    # a naive log1p(exp(-z)) overflows at z = -1e4
    family = LogisticObjective(np.array([[[1e4]], [[-1e4]]]), 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = family.value_many(np.ones((2, 1, 1)))
    assert values[:, 0].tolist() == [0.05, 1e4 + 0.05]


def test_synthetic_classification_deterministic():
    a = synthetic_classification(5, 8, 3, seed=11)
    b = synthetic_classification(5, 8, 3, seed=11)
    assert np.array_equal(a.x_star, b.x_star)
    probe = np.linspace(-1.0, 1.0, 5)
    assert a.global_value(probe) == b.global_value(probe)
    assert a.f_star == b.f_star


def test_synthetic_classification_zero_separation_has_small_weights():
    null = synthetic_classification(4, 100, 4, seed=3, separation=0.0)
    split = synthetic_classification(4, 100, 4, seed=3, separation=3.0)
    weights_null = np.linalg.norm(null.x_star[:-1])
    weights_split = np.linalg.norm(split.x_star[:-1])
    assert weights_null < 0.3
    assert weights_null < weights_split


def test_synthetic_classification_newton_oracle_scale():
    inst = synthetic_classification(20, 50, 20, seed=1)
    assert inst.d == 20
    assert inst.n == 20
    assert np.linalg.norm(inst.global_gradient(inst.x_star)) <= 1e-10


def test_synthetic_classification_balanced_per_agent():
    inst = synthetic_classification(4, 10, 5, seed=2)
    # each agent's sample block carries equally many of each label; the
    # shard round-robin must hand agent i its own generated block
    assert inst.family.counts.tolist() == [10] * 5
    assert inst.family.U.shape == (5, 10, 4)
    for U in inst.family.U:
        labels = U[:, -1]  # sign of the appended intercept column
        assert int(np.sum(labels > 0)) == 5


# --- quartic and separable quadratic -------------------------------------------


def test_quartic_instance_ground_truth():
    inst = quartic_instance(4)
    # x* solves x^3 + x - 1 = 0 for the mean tilt -1
    r = inst.x_star[0]
    assert abs(r**3 + r - 1.0) <= 1e-12
    assert np.linalg.norm(inst.global_gradient(inst.x_star)) <= 1e-10
    c = inst.constants
    assert (c.m, c.L1, c.L2, c.L3) == (1.0, 3.0 * 1.5**2 + 1.0, 9.0, 6.0)


def test_quartic_tilts_average_to_mean():
    inst = quartic_instance(5, b_mean=-1.0, b_spread=0.5)
    b_bar = inst.family.b.sum(axis=0) / 5
    assert abs(b_bar[0] + 1.0) <= 1e-15


def test_separable_quadratic_closed_form():
    inst = separable_quadratic_instance(6, 4, seed=10)
    a_bar = np.diagonal(inst.family.A, axis1=1, axis2=2).sum(axis=0) / 6
    b_bar = inst.family.b.sum(axis=0) / 6
    assert np.max(np.abs(inst.x_star + b_bar / a_bar)) <= 1e-14
    assert inst.constants.L2 == 0.0 and inst.constants.L3 == 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: separable_quadratic_instance(0, 3, seed=1),
        lambda: separable_quadratic_instance(3, 0, seed=1),
        lambda: quartic_instance(0),
        lambda: quartic_instance(3, d=0),
        lambda: ridge_synthetic(0, 5, 3, seed=1),
        lambda: ridge_synthetic(3, 0, 3, seed=1),
        lambda: ridge_synthetic(3, 5, 0, seed=1),
        lambda: ridge_instance_from_shards(np.ones((4, 2)), np.ones(4), n=0, lam=0.1),
        lambda: ridge_instance_from_shards(np.ones((4, 0)), np.ones(4), n=2, lam=0.1),
        lambda: synthetic_classification(0, 5, 3, seed=1),
        lambda: synthetic_classification(3, 0, 3, seed=1),
        lambda: synthetic_classification(3, 5, 0, seed=1),
        lambda: logistic_instance(np.ones((4, 2)), np.ones(4), n=0, w=0.1),
    ],
    ids=[
        "separable_n0", "separable_d0", "quartic_n0", "quartic_d0",
        "ridge_synthetic_d0", "ridge_synthetic_per_agent0", "ridge_synthetic_n0",
        "ridge_shards_n0", "ridge_shards_d0",
        "classification_d0", "classification_per_agent0", "classification_n0",
        "logistic_n0",
    ],
)
def test_builders_reject_sizes_below_one(build):
    # each used to fail inside numpy (zero-size reduction) or divide by zero
    with pytest.raises(ConfigurationError, match="must be a positive integer"):
        build()


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: separable_quadratic_instance(2, 3, seed=1, b_scale=math.nan),
         ConfigurationError, "b_scale must be a finite number"),
        (lambda: ridge_synthetic(3, 4, 2, seed=1, noise=math.nan),
         ConfigurationError, "noise must be a finite number"),
        (lambda: quartic_instance(2, box=math.nan),
         ConfigurationError, "box must be a positive finite number"),
        (lambda: ridge_synthetic(3, 4, 2, seed=1, lam=math.nan),
         ConfigurationError, "lam must be a positive finite number"),
        (lambda: synthetic_classification(3, 4, 2, seed=1, w=math.nan),
         ConfigurationError, "w must be a positive finite number"),
        (lambda: LogisticObjective(np.ones((1, 2, 2)), math.nan),
         ConfigurationError, "w must be a positive finite number"),
        (lambda: QuarticObjective(math.nan, 1.0, np.zeros((2, 1))),
         ConfigurationError, "q must be a nonnegative finite number"),
        (lambda: QuarticObjective(1.0, math.nan, np.zeros((2, 1))),
         ConfigurationError, "a must be a positive finite number"),
        (lambda: ridge_synthetic(3, 4, 2, seed=1, scale_spread=math.nan),
         ConfigurationError, "scale_spread must be a positive finite number"),
        (lambda: topology_from_spec("ring", "3"),
         ConfigurationError, "n must be a positive integer"),
        (lambda: topology_from_spec("ring", 3.0),
         ConfigurationError, "n must be a positive integer"),
        (lambda: topology_from_spec("ring", True),
         ConfigurationError, "n must be a positive integer"),
        (lambda: topology_from_spec("erdos_renyi", 4, p=0.5, seed=1.5),
         ConfigurationError, "seed must be an integer"),
        (lambda: topology_from_spec("erdos_renyi", 4, p=0.5, seed=True),
         ConfigurationError, "seed must be an integer"),
    ],
    ids=[
        "separable_b_scale", "ridge_noise", "quartic_box", "ridge_lambda", "classification_w",
        "logistic_w", "quartic_q", "quartic_a", "ridge_spread", "topology_n_str",
        "topology_n_float", "topology_n_bool", "erdos_renyi_seed_float", "erdos_renyi_seed_bool",
    ],
)
def test_builders_reject_nan_and_non_integer_inputs(build, error, match):
    # NaN passes every `<=` guard; these used to return a NaN x* or NaN
    # constants, fail inside numpy, raise TypeError, or accept a bool
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: separable_quadratic_instance(2, 3, seed=1, b_scale=1e308),
        lambda: ridge_synthetic(3, 4, 2, seed=1, noise=1e308),
    ],
    ids=["separable_b_scale", "ridge_noise"],
)
def test_finite_inputs_that_overflow_fail_the_ground_truth_check(build):
    # numpy warns on the overflow itself; the check after it is what stops the build
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        InstanceConstructionError, match="non-finite ground truth"
    ):
        build()


# --- sharding, metrics consistency, constants ----------------------------------


def test_round_robin_conserves_rows():
    shards = shard_round_robin(23, 5)
    counts = [len(s) for s in shards]
    assert sum(counts) == 23
    all_rows = np.concatenate(shards)
    assert len(np.unique(all_rows)) == 23


def agent_L2(inst, i: int) -> float:
    """Hessian Lipschitz constant of agent i's own cost: mean ||u_k||^3 / (6 sqrt 3)
    over its rows for log-loss, the instance's L2 for the other families."""
    family = inst.family
    if isinstance(family, LogisticObjective):
        U = family.U[i, : family.counts[i]]
        return float(np.mean(np.linalg.norm(U, axis=1) ** 3)) / (6.0 * math.sqrt(3.0))
    return inst.constants.L2


def test_every_family_matches_analytic_gradients_through_the_oracle():
    rng = Xoshiro256(20)
    instances = [
        separable_quadratic_instance(3, 4, seed=1),
        ridge_synthetic(4, 6, 3, seed=2),
        synthetic_classification(4, 9, 3, seed=3),
        quartic_instance(3, box=3.0),
    ]
    for inst in instances:
        objective = inst.black_boxes()
        for t in range(1, 51):
            x = 0.8 * rng.normals(inst.d)
            mu = 0.01 + 0.02 * rng.uniform()
            # every agent probes the same point, so agent i's row is its own estimate
            est = estimate_gradient(objective, np.tile(x, (inst.n, 1)), mu)
            true = inst.family.gradient(x)
            for i in range(inst.n):
                bound = gradient_error_bound(agent_L2(inst, i), mu, inst.d)
                assert np.linalg.norm(est[i] - true[i]) <= bound + 1e-9 * (
                    1.0 + np.linalg.norm(true[i])
                )
            assert objective.agent_queries.tolist() == [2 * inst.d * t] * inst.n


def test_f_star_beats_random_perturbations():
    rng = Xoshiro256(44)
    for inst in (
        ridge_synthetic(3, 5, 4, seed=5),
        synthetic_classification(3, 10, 4, seed=6),
        quartic_instance(4),
    ):
        for _ in range(1000):
            delta = rng.normals(inst.d)
            norm = np.linalg.norm(delta)
            if norm > 1.0:
                delta /= norm
            assert inst.global_value(inst.x_star + delta) >= inst.f_star - 1e-12


def test_reported_constants():
    quad = ridge_synthetic(3, 5, 2, seed=7)
    assert quad.constants.L2 == 0.0 and quad.constants.L3 == 0.0
    logi = synthetic_classification(3, 8, 2, seed=8, w=0.25)
    assert logi.constants.m == 0.25
    assert logi.constants.L1 >= 0.25 and logi.constants.L3 > 0.0


def test_fresh_objectives_reset_counters():
    # each black_boxes() call hands out new counters that start at zero
    inst = separable_quadratic_instance(2, 2, seed=1)
    first = inst.black_boxes()
    estimate_gradient(first, np.zeros((2, 2)), 0.1)
    assert first.agent_queries.tolist() == [4, 4]
    again = inst.black_boxes()
    assert again.agent_queries.tolist() == [0, 0]
    assert again.query_count == 0
    assert again.name == "separable-quadratic"
    x = np.ones((2, 2))
    assert np.array_equal(estimate_gradient(again, x, 0.1), estimate_gradient(first, x, 0.1))
    assert first.agent_queries.tolist() == [8, 8]
    assert again.agent_queries.tolist() == [4, 4]
    assert (first.query_count, again.query_count) == (16, 8)


def test_standardize_features():
    rng = Xoshiro256(50)
    raw = rng.normals(40, 3) * np.array([5.0, 0.1, 1.0]) + np.array([2.0, -1.0, 0.0])
    out = standardize_features(raw)
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-12
    assert np.max(np.abs(out.std(axis=0) - 1.0)) <= 1e-12


# --- csv ----------------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    features, targets = load_csv(str(path))
    assert features.tolist() == [[1.0], [3.0]]
    assert targets.tolist() == [2.0, 4.0]


def test_load_csv_header_flag(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    features, targets = load_csv(str(path), has_header=True)
    assert features.tolist() == [[1.0]]
    with pytest.raises(ConfigurationError, match="row 1"):
        load_csv(str(path))


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="no data rows"):
        load_csv(str(path))


def test_load_csv_names_the_path_it_cannot_read(tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("1,2\n3,\xe9\n".encode("latin-1"))
    for path in (tmp_path / "absent.csv", tmp_path, latin1):
        with pytest.raises(ConfigurationError, match=f"cannot read data {re.escape(str(path))}"):
            load_csv(str(path))


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="row 2"):
        load_csv(str(path))


def test_load_csv_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="row 2"):
        load_csv(str(path))


# --- ground-truth solver ---------------------------------------------------------


def test_damped_newton_backtracks_from_an_overshooting_full_step():
    # f(x) = sqrt(1 + x^2): from x0 = 2 the full Newton step x - x(1 + x^2)
    # lands at -8, where f is higher, so the line search halves it
    tried = []

    def value(x):
        tried.append(float(x[0]))
        return math.sqrt(1.0 + float(x @ x))

    x = _damped_newton(value, lambda x: x / math.sqrt(1.0 + float(x @ x)),
                       lambda x: np.eye(1) * (1.0 + float(x @ x)) ** -1.5, np.array([2.0]))
    assert tried[:4] == [2.0, -8.0, -3.0, -0.5]  # f(x0), then t = 1, 1/2, 1/4
    assert abs(x[0]) <= 1e-10


def test_damped_newton_reports_a_stalled_line_search_and_no_convergence():
    # every point but x0 = 0 is 1 above it, so none of the 60 halved steps is accepted
    with pytest.raises(InstanceConstructionError, match="line search stalled"):
        _damped_newton(lambda x: float(x[0] != 0.0), lambda x: np.ones(1), lambda x: np.eye(1),
                       np.array([0.0]))
    # a linear cost descends by one at every step and never reaches a zero gradient
    with pytest.raises(InstanceConstructionError, match="in 500 iterations"):
        _damped_newton(lambda x: float(x[0]), lambda x: np.ones(1), lambda x: np.eye(1),
                       np.array([0.0]))
