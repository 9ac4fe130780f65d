import hashlib
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from zojade import (
    BlackBoxObjective,
    ConfigurationError,
    ExperimentConfig,
    InstanceConstructionError,
    JadeConfig,
    LogisticObjective,
    QuarticObjective,
    Xoshiro256,
    draw_initial_iterates,
    estimate_both,
    estimate_gradient,
    gradient_error_bound,
    load_csv,
    logistic_instance,
    quartic_instance,
    ridge_instance_from_shards,
    ridge_synthetic,
    run,
    separable_quadratic_instance,
    shard_round_robin,
    standardize_features,
    synthetic_classification,
    topology_from_spec,
)
from zojade import harness, oracle
from zojade.objectives import _damped_newton
from zojade.rng import _libm_choice, _power_images

ROOT = Path(__file__).resolve().parents[1]


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


def _sha256(value) -> str:
    return hashlib.sha256(np.ascontiguousarray(value, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("build, digests", [
    (lambda: synthetic_classification(50, 25, 200, seed=5, w=0.1, scale_spread=8.0), [
        "28a974ab44b48b0832802104388c764b7f7aaebdc4710dff547de9b45f61779a",
        "3fa75aa09541412b1c9471a4d0bc489ad1a00161bf73f13315de7797b1fd565b",
        "99883974f3b94695141479268899b01c2fab75998baec8be0c9a8332ba053556"]),
    (lambda: synthetic_classification(10, 25, 20, seed=5, w=0.1, separation=2.0,
                                      scale_spread=8.0), [
        "59aaf40702da13d97f3282bd44e8d24013d55a1f7f0ef2b27bfa28c502109c9b",
        "90c5ecde72f5c15d6de328aa5f88a3c055a4c7ca26fb3d1202fb313262943dbd",
        "f720a79fe6a2aeb1f01b15486d6b7a39e67d763654d58cfff2b975c6ab02dc5e"]),
    (lambda: synthetic_classification(2, 7, 3, seed=1, standardize=True), [
        "c50933530064213666360383d7fd86749dd1e9b61c383c41b33de9a7f1e866c9",
        "7b99f2ff5980f1b6fc7ba59fc17abf61b10a6514cb242f5fbe8ceb3441473536",
        "c7935d3a7beaf32e6d342d4ddf2019cd637823d53f51a793b9b846718f00d35f"]),
    (lambda: ridge_synthetic(10, 25, 20, seed=3, lam=0.1), [
        "dd5463cf9cda6a0ef1b79b55a1b8a6ce679b8bf0f97b0f9de80f1033a0d10d5f",
        "8efc1756977e2a290764b70b268cc798c0f70362dd9e8aa7c6228594ff968236",
        "851231708fe0e1e1a7514633e27b04ca502051a9d8ecd610667677cf8fb9a04a",
        "337a6bfbdb2904a60aaff28121a2795623d7bdfcf8c56ed8ccafebe53d95bec4",
        "6d6ebd042002cd9a06429293d000df4af0bdd1b914f9cdcf0a3ad3c73ae036ae"]),
], ids=["scale_n200", "logistic_config", "standardized_4_3_split", "quickstart_ridge"])
def test_synthetic_builds_are_pinned_bit_for_bit(build, digests):
    # the shipped and benchmark instances: the family's arrays, x* and f*
    inst = build()
    family = inst.family
    arrays = [family.U] if isinstance(family, LogisticObjective) else [family.A, family.b, family.c]
    assert [_sha256(a) for a in [*arrays, inst.x_star, inst.f_star]] == digests


def test_synthetic_classification_names_a_non_finite_sample_by_its_sharded_row():
    # agent 1's third sample is row 2 n + 1 of the samples that sharding hands out;
    # separation 0 and unit scales leave each coordinate its drawn normal
    n, per_agent, dim = 3, 4, 2
    drawn = Xoshiro256(9).normals(n * per_agent * (dim + 1))
    real = Xoshiro256.normals

    def planted(self, *shape):
        out = real(self, *shape)
        out.reshape(-1)[(1 * per_agent + 2) * dim] = math.nan
        return out

    expected = re.escape(f"samples[{2 * n + 1}] is not finite: "
                         f"{[math.nan, float(drawn[(1 * per_agent + 2) * dim + 1])]}")
    with mock.patch.object(Xoshiro256, "normals", planted), pytest.raises(
        ConfigurationError, match=f"^{expected}$"
    ):
        synthetic_classification(dim + 1, per_agent, n, seed=9, separation=0.0)


def test_a_synthetic_build_holds_about_one_agent_stack():
    # scale_n200's instance: U is built in the array its normals are drawn into,
    # so the normals, their scaled copy and an interleaved copy are not all live
    _libm_choice.cache_clear()  # the one-time libm probe is measured in every order
    _power_images.cache_clear()  # and so are the lane fill's doubling powers
    tracemalloc.start()
    try:
        inst = synthetic_classification(50, 25, 200, seed=5, scale_spread=8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= inst.family.U.nbytes + 2**19


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


@pytest.mark.parametrize("build, match", [
    (lambda: synthetic_classification(3, 2, 2, seed=1, separation=1e200, scale_spread=1e300),
     r"^samples\[0\] is not finite: \[3\.535533905932737e\+49, inf\]$"),
    (lambda: ridge_synthetic(3, 2, 2, seed=1, noise=1e308, scale_spread=1e300),
     r"^targets\[0\] is not finite: inf$"),
], ids=["classification", "ridge"])
def test_synthetic_data_that_overflows_is_a_configuration_error(build, match):
    # numpy's overflow warning, an error under this suite's filter, came first
    with pytest.raises(ConfigurationError, match=match):
        build()


@pytest.mark.parametrize("shape, spread, match", [
    ((2, 2), dict(scale_spread=1e300), r"^synthetic-logistic: L2 is not finite: inf$"),
    ((5, 3), dict(separation=1e308, scale_spread=2.0),
     r"^synthetic-logistic: L1 is not finite: the rows' gram overflows$"),
], ids=["norms", "gram"])
def test_logistic_constants_that_overflow_are_named(shape, spread, match):
    # finite samples whose norms' cubes (L2) or gram (L1) overflow, with no
    # errstate around the build: numpy's overflow warning, an error under this
    # suite's filter, came first; inside an errstate, Newton failed after 500
    # iterations or the eigensolver did not converge
    with pytest.raises(InstanceConstructionError, match=match):
        synthetic_classification(3, *shape, seed=1, **spread)


def test_ridge_shards_name_the_first_non_finite_row_before_any_arithmetic():
    # an infinite target went through the normal equations and failed only the
    # ground-truth check after them
    features = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
    targets = np.array([1.0, 0.0, -1.0, 2.0])
    with pytest.raises(ConfigurationError, match=r"^targets\[2\] is not finite: inf$"):
        ridge_instance_from_shards(features, np.where(targets < 0, math.inf, targets), 2, 0.1)
    features[3, 1] = math.nan
    with pytest.raises(ConfigurationError, match=r"^features\[3\] is not finite: \[2\.0, nan\]$"):
        ridge_instance_from_shards(features, targets, 2, 0.1, standardize=True)


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_logistic_instance_names_the_first_non_finite_sample_before_any_arithmetic(cell):
    # a nan sample raised numpy's LinAlgError from the constants' eigenvalues, an
    # infinite one a RuntimeWarning from the arithmetic on it
    samples = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
    samples[[1, 3], 0] = cell
    message = rf"^samples\[1\] is not finite: \[{cell}, 0\.0\]$"
    with pytest.raises(ConfigurationError, match=message):
        logistic_instance(samples, np.array([1.0, -1.0, 1.0, -1.0]), 2, 0.1)


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
            for i in range(inst.n):
                true = inst.family.gradient(x, slice(i, i + 1))
                bound = gradient_error_bound(agent_L2(inst, i), mu, inst.d)
                assert np.linalg.norm(est[i] - true) <= bound + 1e-9 * (
                    1.0 + np.linalg.norm(true)
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


@pytest.mark.parametrize("path, instance", [
    ("configs/quickstart.json", None),
    ("configs/logistic.json", None),
    ("bench/scale_n200.json", None),
    # 200 agents of 16 elements a row: two blocks under the smallest budget
    ("bench/scale_n200.json", {"family": "quartic", "d": 4}),
], ids=["configs/quickstart.json", "configs/logistic.json", "bench/scale_n200.json", "quartic"])
def test_ground_truth_does_not_depend_on_the_block_budget(path, instance):
    # the centralized solve adds the agents in order whatever the blocks, so
    # x* and f* are the same bits under every budget
    cfg = ExperimentConfig.from_file(str(ROOT / path))
    if instance is not None:
        cfg = ExperimentConfig({**cfg.data, "instance": instance})
    truths = set()
    for budget in (2**11, 2**13, 2**15, 2**17, 2**20):
        with mock.patch.object(oracle, "_BLOCK_ELEMENTS", budget):
            inst = harness.build_instance(cfg)
        truths.add((inst.x_star.tobytes(), inst.f_star))
    assert len(truths) == 1


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
                       lambda x: np.eye(1) * (1.0 + float(x @ x)) ** -1.5, np.array([2.0]),
                       "hyperbola")
    assert tried[:4] == [2.0, -8.0, -3.0, -0.5]  # f(x0), then t = 1, 1/2, 1/4
    assert abs(x[0]) <= 1e-10


def test_damped_newton_reports_a_stalled_line_search_and_no_convergence():
    # each failure names the instance, the iteration and the gradient norm there.
    # Full steps of 0.5 go from x0 = 1 down to 0, and every other point is 5
    # above it, so none of the 60 halved steps from 0 is accepted
    def stairs(x):
        return float(x[0]) if x[0] in (1.0, 0.5, 0.0) else 5.0

    with pytest.raises(InstanceConstructionError, match=re.escape(
            "stairs: newton line search stalled at iteration 2, ||grad f|| = 5.000e-01")):
        _damped_newton(stairs, lambda x: np.full(1, 0.5), lambda x: np.eye(1),
                       np.array([1.0]), "stairs")
    # a linear cost descends by one at every step and never reaches a zero gradient
    with pytest.raises(InstanceConstructionError, match=re.escape(
            "ramp: newton failed to reach gradient norm 1e-10 in 500 iterations, "
            "||grad f|| = 1.000e+00")):
        _damped_newton(lambda x: float(x[0]), lambda x: np.ones(1), lambda x: np.eye(1),
                       np.array([0.0]), "ramp")


@pytest.mark.parametrize("make", [
    lambda: separable_quadratic_instance(4, 3, seed=21),
    lambda: ridge_synthetic(3, 6, 4, seed=61),
    lambda: synthetic_classification(4, 12, 4, seed=22, w=0.1, separation=1.5),
    lambda: quartic_instance(4),
], ids=["quadratic", "ridge", "logistic", "quartic"])
def test_a_global_box_of_many_points_is_one_point_boxes(make):
    # each point is probed as one agent of the box, bitwise as a box that adapts
    # the averaged cost to that point alone, and counts its own 2d + 1 queries
    inst = make()
    points, k = 7, 2 * inst.d + 1
    x = Xoshiro256(5).normals(points, inst.d)
    box = inst.global_black_box(points)
    grad, hdiag = estimate_both(box, x, 0.03)
    assert box.agent_queries.tolist() == [k] * points and box.query_count == points * k
    for i in range(points):
        alone = BlackBoxObjective(lambda X, block: inst.global_value_many(X[0])[None], inst.d)
        g, h = estimate_both(alone, x[i][None], 0.03)
        assert (g.tobytes(), h.tobytes()) == (grad[i].tobytes(), hdiag[i].tobytes())
        assert alone.query_count == k


def test_an_averaged_cost_that_sums_past_the_float_range_is_inf_without_a_warning():
    # at x0_scale 1e153 every quickstart agent's cost at agent 1's iterate is
    # finite, up to 7.6e307, and their running sum is not: e_f at step 0 is
    # inf, where the sum's overflow warning became an error under the
    # suite's -W error
    cfg = ExperimentConfig.from_file(str(ROOT / "configs" / "quickstart.json"))
    inst = harness.build_instance(cfg)
    x0 = draw_initial_iterates(1, inst.n, inst.d, 1e153)
    values = inst.family.value_many(x0[None, 1:2])  # every agent's cost at iterate 1
    assert np.isfinite(values).all()
    assert inst.global_value_many(x0[1:2]) == [math.inf]
    [trace] = run("zo_jade", inst, harness.build_topology(cfg)[1],
                  [(JadeConfig(mu=1e-3, budget=20 * (2 * inst.d + 1), x0_scale=1e153), 1)])
    assert trace.rows[0].e_f == math.inf
