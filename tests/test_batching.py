"""The agent-batched oracle: one call evaluates every agent of a stacked family,
in agent blocks under a fixed element budget, exactly as one agent at a time;
and the replica-batched run: the seeds of one entry advance as one (R, n, d)
stack, bitwise as their separate runs."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zojade import (
    ALGORITHMS,
    BaselineConfig,
    BlackBoxObjective,
    ExperimentConfig,
    JadeConfig,
    LogisticObjective,
    ProblemInstance,
    QuadraticObjective,
    QuarticObjective,
    SmoothnessConstants,
    draw_initial_iterates,
    initial_state,
    jade_step,
    loss_metric,
    metropolis_hastings,
    quartic_instance,
    run,
    separable_quadratic_instance,
    synthetic_classification,
    topology_from_spec,
)
from zojade import harness, oracle
from zojade.errors import EvaluationError
from zojade.harness import (
    VerifyReport, build_instance, build_topology, check_quadratic_exactness,
)
from zojade.objectives import _LOGISTIC_STEP_MIN_D, _QUADRATIC_STEP_MIN_D

from test_algorithms import Explosive

QUICKSTART = ExperimentConfig.from_file(
    str(Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"))


def _family(kind, n, d, rng):
    """A random stacked family, and agent i's value at points X:(k, d) in the
    single-agent expressions the per-agent models used."""
    if kind == "quadratic":
        R = rng.normal(size=(n, d, d))
        A = np.einsum("nij,nkj->nik", R, R) + np.eye(d)
        b, c = rng.normal(size=(n, d)), rng.normal(size=n)
        family = QuadraticObjective(A, b, c)

        def reference(i, X):
            return 0.5 * np.einsum("ij,ij->i", X, X @ family.A[i]) + X @ b[i] + c[i]

    elif kind == "logistic":
        counts = rng.integers(0, 4, size=n)  # unequal shards, empty ones included
        U = np.zeros((n, int(counts.max()), d))
        for i, count in enumerate(counts):
            U[i, :count] = rng.normal(size=(count, d))
        w = float(rng.uniform(0.05, 1.0))
        family = LogisticObjective(U, w, counts)

        def reference(i, X):
            ridge = 0.5 * w * np.einsum("ij,ij->i", X, X)
            if counts[i] == 0:
                return ridge
            return np.logaddexp(0.0, -(U[i, : counts[i]] @ X.T)).mean(axis=0) + ridge

    else:
        q, a = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.1, 2.0))
        b = rng.normal(size=(n, d))
        family = QuarticObjective(q, a, b)

        def reference(i, X):
            X2 = X * X
            return (0.25 * q * X2 * X2 + 0.5 * a * X2 + X * b[i]).sum(axis=1)

    return family, reference


def _instance(family, d):
    return ProblemInstance(family, d, np.zeros(d), 1.0, SmoothnessConstants(), "batched")


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "logistic", "quartic"]),
    n=st.integers(1, 7),
    d=st.integers(1, 5),
    center=st.booleans(),
    mu=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_evaluation_matches_per_agent(kind, n, d, center, mu, seed):
    # k = 2d + 1 probes with the center, or 2d for a gradient
    rng = np.random.default_rng(seed)
    family, reference = _family(kind, n, d, rng)
    x = rng.normal(size=(n, d))
    k = 2 * d + center
    offsets = oracle._probes(d, mu)[3][:k]
    objective = _instance(family, d).black_boxes()
    with mock.patch.object(oracle, "_BLOCK_ELEMENTS", 10**9):
        together = objective.evaluate_probes(x, mu, k)
    assert objective.agent_queries.tolist() == [k] * n
    with mock.patch.object(oracle, "_BLOCK_ELEMENTS", 1):
        alone = objective.evaluate_probes(x, mu, k)
    assert objective.agent_queries.tolist() == [2 * k] * n
    assert objective.query_count == 2 * k * n
    assert together.shape == (n, k)
    assert np.array_equal(together, alone)
    for i in range(n):
        expected = reference(i, x[i] + offsets)
        assert np.allclose(together[i], expected, rtol=1e-12, atol=1e-300)


def test_batched_round_memory_stays_bounded():
    # n = 200, d = 50 as in the scale-up config; an unblocked stack of all
    # agents' 2d + 1 probes alone would take 8 MiB
    n, d = 200, 50
    rng = np.random.default_rng(5)
    family = LogisticObjective(0.3 * rng.normal(size=(n, 25, d)), w=0.1)
    inst = _instance(family, d)
    state = initial_state(0.1 * rng.normal(size=(n, d)), metropolis_hastings(
        topology_from_spec("ring", n)))
    objective = inst.black_boxes()
    cfg = JadeConfig(mu=1e-3)
    jade_step(state, objective, cfg)  # caches the probe offsets outside the measurement
    tracemalloc.start()
    try:
        jade_step(state, objective, cfg)
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loss_metric(inst, state.x)
        loss_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_peak <= 2 * 2**20, f"jade_step peak {step_peak / 2**20:.2f} MiB"
    assert loss_peak <= 2 * 2**20, f"loss_metric peak {loss_peak / 2**20:.2f} MiB"


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "logistic", "quartic"]),
    replicas=st.integers(1, 4),
    n=st.integers(1, 7),
    d=st.integers(1, 5),
    k=st.integers(1, 9),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_value_many_with_a_replica_axis_equals_separate_calls(
    kind, replicas, n, d, k, shared, seed
):
    # each (m, k, d) slab of X:(R, m, k, d) goes through the arithmetic of a
    # separate call, so the values agree bit for bit; `shared` puts every
    # agent at the same points (m = 1), as the loss metric does
    rng = np.random.default_rng(seed)
    family, _ = _family(kind, n, d, rng)
    lo = int(rng.integers(0, n))
    block = slice(lo, int(rng.integers(lo + 1, n + 1)))
    m = 1 if shared else block.stop - block.start
    X = rng.normal(size=(replicas, m, k, d))
    together = family.value_many(X, block)
    alone = np.stack([family.value_many(X[r], block) for r in range(replicas)])
    assert together.shape == (replicas, block.stop - block.start, k)
    assert together.tobytes() == alone.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    replicas=st.integers(1, 5),
    n=st.integers(1, 40),
    d=st.integers(1, 60),
    center=st.booleans(),
)
@example(replicas=5, n=20, d=10, center=True)  # paper_n20's shape, k = 21
def test_agent_blocks_count_replica_rows_against_the_budget(replicas, n, d, center):
    rows_elements = 25  # what a family holds per evaluated row
    k = 2 * d + center
    calls = []

    def batch_fn(X, block):
        calls.append((X.shape, block))
        return np.zeros(X.shape[:-1])

    objective = BlackBoxObjective(batch_fn, d, agents=n, replicas=replicas,
                                  row_elements=rows_elements)
    objective.evaluate_probes(np.zeros((replicas, n, d)), 0.1, k)
    per_agent = replicas * k * max(d, rows_elements)
    assert [block for _, block in calls] == oracle.agent_blocks(n, per_agent)
    lo = 0
    for shape, block in calls:
        m = block.stop - block.start
        assert block.start == lo and shape == (replicas, m, k, d)
        assert m == 1 or m * per_agent <= 2**15
        lo = block.stop
    assert lo == n
    assert objective.agent_queries.tolist() == [[k] * n] * replicas


# The workloads' shapes, (family, replicas R, agents n, d, logistic rows N,
# probes per agent k): paper_n20's ridge and logistic runs, scale_n200's
# logistic run, the ridge and scale_n200's runs also from the centers as the
# oracle calls them (both at or above their family's d rule), verify_desk's
# quartic gamma ladder, at the paper's shape a quartic and a logistic
# family padded as unequal shards pad it, and the padded logistic family
# from the centers at scale_n200's shape.
WORKLOAD_SHAPES = [
    ("quadratic", 5, 20, 10, 0, 21),
    ("quadratic from centers", 5, 20, 10, 0, 21),
    ("logistic", 5, 20, 10, 25, 21),
    ("logistic", 1, 200, 50, 25, 101),
    ("logistic from centers", 1, 200, 50, 25, 101),
    ("quartic", 3, 4, 1, 0, 3),
    ("quartic", 5, 20, 10, 0, 21),
    ("padded logistic", 5, 20, 10, 25, 21),
    ("padded logistic from centers", 1, 200, 50, 25, 101),
]


def _workload_family(kind, n, d, N, rng):
    if kind.startswith("quadratic"):
        return QuadraticObjective(np.tile(np.eye(d), (n, 1, 1)), rng.normal(size=(n, d)))
    if kind.startswith("logistic"):
        return LogisticObjective(rng.normal(size=(n, N, d)), w=0.1)
    if kind.startswith("padded logistic"):
        counts = np.arange(n) % 2 + N - 1
        return LogisticObjective(rng.normal(size=(n, N, d)), w=0.1, counts=counts)
    return QuarticObjective(1.0, 1.0, rng.normal(size=(n, d)))


@pytest.mark.parametrize("kind, R, n, d, N, k", WORKLOAD_SHAPES)
def test_row_elements_cover_what_value_many_holds(kind, R, n, d, N, k):
    # the blocks are sized by the declared width, so the width must cover
    # every element one value_many call holds at once.  On points it is
    # measured on the largest block the oracle hands the family.  From the
    # centers the oracle makes one whole call: it holds the logistic center
    # margins (N per agent), the output rows outside the measured block and
    # one block of the family's own, whose width also counts mu U,
    # ceil(N d / k) per row; a block that spans every agent, as the
    # quadratic's, adds nothing to the points' bound.  Allowance: five
    # (..., k) vectors per row (the block's output and, in a logistic block,
    # its weighted mean over the samples and the sum) and 2 KiB for the
    # array headers of a call, which only tiny blocks notice
    family = _workload_family(kind, n, d, N, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    if kind.endswith("from centers"):  # the estimators' call: centers, step and probe count
        width = family.row_elements + -(-N * d // k)
        block = oracle.agent_blocks(n, R * k * width)[0]
        args = (rng.normal(size=(R, n, d)), slice(None), 1e-3, k)
        whole = 8 * R * (n * N + (n - (block.stop - block.start)) * k)
    else:
        width = family.row_elements
        block = oracle.agent_blocks(n, R * k * max(d, width))[0]
        args = (rng.normal(size=(R, block.stop - block.start, k, d)), block)
        whole = 0
    rows = R * (block.stop - block.start) * k
    family.value_many(*args)  # numpy's first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        family.value_many(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    allowed = whole + 8 * rows * (width + 5) + 2048
    assert peak <= allowed, (
        f"{kind} holds {(peak - whole) / (8 * rows):.1f} elements per row, declares {width}")


@pytest.mark.parametrize("R, n, d, N, k, width, calls", [
    (1, 200, 50, 25, 101, 5, 40),  # scale_n200, from the centers
    (5, 20, 10, 25, 21, 6, 4),  # paper_n20's logistic runs, on points
])
def test_logistic_blocks_keep_each_margin_array_at_128_kib(R, n, d, N, k, width, calls):
    # a block's margins and their losses are live together, and from the
    # centers its mu U; each stays at or below glibc's 128 KiB mmap
    # threshold, above which malloc trimmed and refaulted the top of its heap
    # at every call.  On points the counter blocks the points it builds;
    # from the centers it makes one call, and the family blocks its margins
    family = LogisticObjective(np.random.default_rng(6).normal(size=(n, N, d)), w=0.1)
    agents, margins = [], []
    mean_loss = family._mean_loss

    def value_many(X, block, *step):
        agents.append(block)
        return family.value_many(X, block, *step)

    def recorded_mean_loss(z, block):
        margins.append(z.shape)
        return mean_loss(z, block)

    objective = BlackBoxObjective(value_many, d, agents=n, replicas=R,
                                  row_elements=family.row_elements, takes_step=family.takes_step)
    with mock.patch.object(family, "_mean_loss", recorded_mean_loss):
        oracle.estimate_both(objective, np.zeros((R, n, d)), 1e-3)
    assert len(agents) == (1 if family.takes_step else calls)
    assert len(margins) == calls and max(shape[1] for shape in margins) == width
    assert all(shape[0] == R and shape[2:] == (N, k) for shape in margins)
    assert sum(shape[1] for shape in margins) == n
    assert width * R * N * k * 8 <= 128 * 2**10  # the margins, and their losses
    assert width * N * d * 8 <= 128 * 2**10  # mu U


def _suite(family, n, d, seed):
    if family == "quadratic":
        return separable_quadratic_instance(n, d, seed=seed)
    if family == "logistic":
        return synthetic_classification(d + 1, 3, n, seed=seed)
    return quartic_instance(n, d)


def _same_trace(a, b):
    assert (a.algorithm, a.seed, a.label, a.ef_mode) == (b.algorithm, b.seed, b.label, b.ef_mode)
    assert a.rows.dtype == b.rows.dtype and a.rows.tobytes() == b.rows.tobytes()
    assert a.final_x.shape == b.final_x.shape and a.final_x.tobytes() == b.final_x.tobytes()
    assert (a.failed, a.diagnostic) == (b.failed, b.diagnostic)


def _counted(inst):
    """Patch `inst` to keep every query counter that run() is handed."""
    counters = []
    fresh = inst.black_boxes

    def counted_black_boxes(*args):
        counters.append(fresh(*args))
        return counters[-1]

    inst.black_boxes = counted_black_boxes
    return counters


#: One replica's draw: mu, epsilon (or eta times L1), z_floor, x0_scale and
#: a seed offset; three offsets for up to four replicas make seeds repeat.
_REPLICA = st.tuples(st.floats(0.01, 0.3), st.floats(0.05, 1.0), st.floats(1e-8, 1.0),
                     st.floats(0.25, 2.0), st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    family=st.sampled_from(["quadratic", "logistic", "quartic"]),
    draws=st.lists(_REPLICA, min_size=1, max_size=4),
    n=st.integers(1, 5),
    d=st.integers(1, 4),
    steps=st.integers(0, 25),
    record_every=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
@example(algorithm="zo_jade", family="quadratic",
         draws=[(0.05, 0.3, 1e-8, 1.0, 0), (0.05, 0.3, 1e-8, 1.0, 1), (0.05, 0.3, 1e-8, 1.0, 2)],
         n=1, d=2, steps=12, record_every=5, seed=4)
@example(algorithm="gradient_tracking", family="logistic",
         draws=[(0.05, 0.5, 1e-8, 1.0, 0), (0.05, 0.5, 1e-8, 1.0, 1), (0.05, 0.5, 1e-8, 1.0, 2),
                (0.05, 0.5, 1e-8, 1.0, 3)], n=1, d=1, steps=9, record_every=2, seed=7)
@example(algorithm="zo_jade", family="quartic",
         draws=[(0.2, 0.5, 1e-8, 1.0, 0), (0.1, 0.5, 1e-8, 1.0, 0), (0.05, 0.5, 1e-8, 1.0, 0)],
         n=4, d=1, steps=20, record_every=4, seed=1)
@example(algorithm="zo_jade", family="logistic",
         draws=[(0.05, 0.3, 1e-8, 1.0, 0), (0.1, 0.3, 1e-8, 0.5, 1), (0.02, 0.6, 1e-8, 1.0, 1)],
         n=3, d=_LOGISTIC_STEP_MIN_D - 1, steps=8, record_every=3, seed=5)
@example(algorithm="gradient_tracking", family="logistic",
         draws=[(0.05, 0.3, 1e-8, 1.0, 0), (0.2, 0.5, 1e-8, 1.0, 2)],
         n=2, d=_LOGISTIC_STEP_MIN_D - 1, steps=6, record_every=2, seed=3)
@example(algorithm="zo_jade", family="quadratic",
         draws=[(0.05, 0.3, 1e-8, 1.0, 0), (0.1, 0.3, 1e-8, 0.5, 1), (0.02, 0.6, 1e-8, 1.0, 1)],
         n=3, d=_QUADRATIC_STEP_MIN_D, steps=8, record_every=3, seed=5)
@example(algorithm="consensus_gd", family="quadratic",
         draws=[(0.05, 0.3, 1e-8, 1.0, 0), (0.2, 0.5, 1e-8, 1.0, 2)],
         n=2, d=_QUADRATIC_STEP_MIN_D, steps=6, record_every=2, seed=3)
def test_batched_run_equals_the_separate_runs(
    algorithm, family, draws, n, d, steps, record_every, seed
):
    # each replica draws its own config, and seeds repeat across configs; the
    # quartic example is the gamma-scaling check's mu ladder in small, and the
    # logistic and quadratic ones at their rules' d evaluate their probes
    # from the centers
    inst = _suite(family, n, d, seed)
    P = metropolis_hastings(topology_from_spec("ring", n))
    per_step = ALGORITHMS[algorithm][1](inst.d)
    budget = max(1, steps * per_step)
    replicas = []
    for mu, weight, z_floor, x0_scale, offset in draws:
        if algorithm == "zo_jade":
            cfg = JadeConfig(mu=mu, epsilon=weight, z_floor=z_floor, budget=budget,
                             record_every=record_every, x0_scale=x0_scale)
        else:
            cfg = BaselineConfig(mu=mu, eta=weight / inst.constants.L1, budget=budget,
                                 record_every=record_every, x0_scale=x0_scale)
        if (cfg, seed + 10 * offset) not in replicas:
            replicas.append((cfg, seed + 10 * offset))
    counters = _counted(inst)
    batched = run(algorithm, inst, P, replicas, label="batch")
    for r, trace in enumerate(batched):
        (alone,) = run(algorithm, inst, P, [replicas[r]], label="batch")
        _same_trace(trace, alone)
        assert counters[0].agent_queries[r].tolist() == counters[-1].agent_queries[0].tolist()
    assert counters[0].agent_queries.shape == (len(replicas), n)


def _check_runs(monkeypatch) -> tuple:
    """The runs of the gamma ladder and of the verify suite's two-mu separable
    fixed point, each as (traces, its counter's per-agent queries), and the
    number of probe sets the checks evaluated."""
    runs, evaluations = [], []

    def recorded(algorithm, instance, P, replicas, label=""):
        counters = _counted(instance)
        traces = run(algorithm, instance, P, replicas, label)
        runs.append((traces, counters[0].agent_queries))
        return traces

    evaluate = BlackBoxObjective.evaluate_probes

    def counted(self, *args):
        evaluations.append(args)
        return evaluate(self, *args)

    report = VerifyReport()
    with monkeypatch.context() as patch:
        patch.setattr(harness, "run", recorded)
        patch.setattr(BlackBoxObjective, "evaluate_probes", counted)
        harness.check_gamma_scaling(report)
        harness.check_fixed_point_and_mu_independence(
            report, separable_quadratic_instance(5, 3, seed=9),
            metropolis_hastings(topology_from_spec("complete", 5)), epsilon=0.3, iterations=300,
            seed=4)
    assert report.all_passed, report.checks
    return runs, len(evaluations)


def test_repeated_probe_sets_answered_from_the_store_change_no_trace_or_count(monkeypatch):
    stored, evaluated = _check_runs(monkeypatch)
    answer = BlackBoxObjective.answer

    def without_store(self, *args):
        self.answers.clear()
        return answer(self, *args)

    monkeypatch.setattr(BlackBoxObjective, "answer", without_store)
    fresh, fresh_evaluated = _check_runs(monkeypatch)
    assert len(stored) == len(fresh) == 2
    for (traces, queries), (alone, alone_queries) in zip(stored, fresh):
        for trace, twin in zip(traces, alone, strict=True):
            _same_trace(trace, twin)
        assert queries.tobytes() == alone_queries.tobytes()
    # 4,000 ladder rounds and 3 stationarity estimates, then 300 rounds of the
    # fixed point; the ladder's replicas reach float cycles within 100 rounds,
    # the fixed point's repeat no probe set
    assert fresh_evaluated == 4000 + 3 + 300 and evaluated <= 100 + 300


def test_a_finished_run_leaves_its_counter_without_stored_estimates(monkeypatch):
    inst = quartic_instance(4)
    counters = _counted(inst)
    kept = []
    answer = BlackBoxObjective.answer

    def watched(self, *args):
        out = answer(self, *args)
        kept.append(len(self.answers))
        return out

    monkeypatch.setattr(BlackBoxObjective, "answer", watched)
    cfg = JadeConfig(mu=0.2, epsilon=0.5, budget=3 * 200, record_every=100)
    run("zo_jade", inst, metropolis_hastings(topology_from_spec("complete", 4)), [(cfg, 1)])
    assert max(kept) == 2 and counters[0].answers == []


def test_same_trace_fails_on_one_flipped_bit_of_one_e_f():
    # a trace's rows are numpy records, which hold no per-row __dict__, so the
    # comparison reads their bytes; one bit of one e_f must fail it
    inst = separable_quadratic_instance(3, 2, seed=5)
    P = metropolis_hastings(topology_from_spec("ring", 3))
    cfg = JadeConfig(mu=0.05, epsilon=0.3, budget=5 * 6, record_every=2)
    (a,) = run("zo_jade", inst, P, [(cfg, 1)])
    (b,) = run("zo_jade", inst, P, [(cfg, 1)])
    _same_trace(a, b)
    b.rows["e_f"].view(np.uint64)[-1] ^= np.uint64(1)
    with pytest.raises(AssertionError):
        _same_trace(a, b)


class Cliff:
    """Agent i's cost +-1.5e308 on either side of the plane sum(x) = c_i: a
    probe pair across the plane overflows the gradient estimate to inf."""

    row_elements = 1

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.n = len(self.c)

    def value_many(self, X, agents=slice(None)):
        return np.where(np.sum(X, axis=-1) > self.c[agents, None], 1.5e308, -1.5e308)


def test_consensus_error_of_iterates_whose_squares_overflow_is_finite():
    # seed 11's iterates reach 2.6e158 at step 3, the last step before a probe
    # overflows; the sum of their squared deviations is above the float range
    family = Explosive([0.2, 0.3, 0.25])
    inst = ProblemInstance(family, 2, np.zeros(2), 1.0, SmoothnessConstants())
    P = metropolis_hastings(topology_from_spec("complete", family.n))
    cfg = BaselineConfig(mu=0.1, eta=0.5, budget=240, x0_scale=1.5)
    [trace] = run("consensus_gd", inst, P, [(cfg, 11)])
    assert trace.failed and trace.rows[-1].iteration == 3
    assert all(np.isfinite(row.consensus_error) for row in trace.rows)
    deviation = (trace.final_x - trace.final_x.mean(axis=0)) / 1e158
    assert trace.rows[-1].consensus_error == pytest.approx(
        1e158 * np.sqrt(np.sum(deviation * deviation)), rel=1e-14)


@pytest.mark.parametrize("record_every", [1, 4])
def test_a_run_whose_only_replica_fails_on_a_recorded_step_returns_its_failed_trace(record_every):
    # seed 11 fails at step 4, so the recorded step after it has no replica left
    family = Explosive([0.2, 0.3, 0.25])
    inst = ProblemInstance(family, 2, np.zeros(2), 1.0, SmoothnessConstants())
    P = metropolis_hastings(topology_from_spec("complete", family.n))
    cfg = BaselineConfig(mu=0.1, eta=0.5, budget=240, x0_scale=1.5, record_every=record_every)
    [trace] = run("consensus_gd", inst, P, [(cfg, 11)])
    assert trace.failed
    assert [row.iteration for row in trace.rows] == list(range(0, 4, record_every)) + [3] * (record_every > 1)


def test_the_metrics_of_an_empty_stack_are_empty():
    state = initial_state(np.zeros((0, 3, 2)), np.eye(3))
    assert state.consensus_error().shape == (0,)
    assert all(r.shape == (0,) for r in state.tracking_residuals())


def _reference_row_metrics(x, g, h, y, z):
    """Consensus error and both tracking residuals of one replica's (n, d)
    state, in the per-replica formulas the trace rows were first measured with."""
    dev = x - x.mean(axis=0)
    largest = float(np.abs(dev).max())
    if largest < np.inf and largest * largest * dev.size > np.finfo(float).max:
        consensus = largest * float(np.linalg.norm(dev / largest))
    else:
        consensus = float(np.linalg.norm(dev))

    def residual(tracked_sum, signal_sum):
        num = float(np.max(np.abs(tracked_sum - signal_sum)))
        if num == 0.0:
            return 0.0
        return num / max(float(np.max(np.abs(signal_sum))), 1e-300)

    return consensus, residual(y.sum(axis=0), g.sum(axis=0)), residual(z.sum(axis=0), h.sum(axis=0))


def _assert_rows_are_the_reference(state):
    """The stack's metrics, one per replica, are bitwise the reference's; one
    replica's (n, d) state gives the same values as floats."""
    stacked = np.column_stack([state.consensus_error(), *state.tracking_residuals()])
    for r in range(len(state.x)):
        want = _reference_row_metrics(state.x[r], state.g[r], state.h[r], state.y[r], state.z[r])
        assert stacked[r].tobytes() == np.array(want).tobytes()
        one = state.take(r)
        got = [one.consensus_error(), *one.tracking_residuals()]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == stacked[r].tobytes()


@pytest.mark.parametrize("family", ["quadratic", "logistic", "quartic"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_stacked_row_metrics_are_the_per_replica_formulas(algorithm, family):
    # four seeds stepped as one stack, checked at every step, then the stack
    # of three that a freeze of replica 1 leaves; the baselines track no z or h
    inst = _suite(family, 5, 3, seed=2)
    P = metropolis_hastings(topology_from_spec("ring", 5))
    if algorithm == "zo_jade":
        cfg = JadeConfig(mu=0.05, epsilon=0.3)
    else:
        cfg = BaselineConfig(mu=0.05, eta=0.5 / inst.constants.L1)
    state = initial_state(np.stack([draw_initial_iterates(s, 5, inst.d, 1.0) for s in range(4)]), P)
    box = inst.black_boxes(4)
    for _ in range(25):
        _assert_rows_are_the_reference(state)
        state = ALGORITHMS[algorithm][0](state, box, cfg)
    _assert_rows_are_the_reference(state.take([0, 2, 3]))
    assert (state.tracking_residuals()[1] == 0.0).all() == (algorithm != "zo_jade")


def test_stacked_consensus_error_rescales_each_overflowing_replica():
    # seed 11's iterates reach 2.6e158 at step 3, where the sum of their squared
    # deviations overflows; seed 2's stay small in the same stack
    family = Explosive([0.2, 0.3, 0.25])
    inst = ProblemInstance(family, 2, np.zeros(2), 1.0, SmoothnessConstants())
    P = metropolis_hastings(topology_from_spec("complete", family.n))
    cfg = BaselineConfig(mu=0.1, eta=0.5)
    state = initial_state(np.stack([draw_initial_iterates(s, 3, 2, 1.5) for s in (11, 2)]), P)
    box = inst.black_boxes(2)
    for _ in range(3):
        state = ALGORITHMS["consensus_gd"][0](state, box, cfg)
        _assert_rows_are_the_reference(state)
    errors = state.consensus_error()
    assert 1e158 < errors[0] < np.inf and errors[1] < 10.0


@pytest.mark.parametrize("family, algorithm, seeds, mus, fails, cfg, diagnostic", [
    # seed 1 overflows a probe at step 3 and seed 4 at step 2; seeds 2 and 3 converge
    (Explosive([0.2, 0.3, 0.25]), "consensus_gd", [2, 1, 3, 4], [0.1, 0.2, 0.05, 0.15],
     [False, True, False, True],
     BaselineConfig(mu=0.1, eta=0.5, budget=4 * 60, x0_scale=1.5, record_every=7),
     "returned inf at probe point"),
    # seed 2's gradient estimate overflows, and so its iterate, at step 2
    (Cliff([0.0, 1.0]), "gradient_tracking", [1, 2, 3], [0.3, 0.2, 0.4], [False, True, False],
     BaselineConfig(mu=0.3, eta=0.5, budget=4 * 30, x0_scale=2.0, record_every=4),
     "non-finite iterate at step 2: agent 0, coordinate 0 became np.float64(-inf)"),
], ids=["probe", "iterate"])
def test_a_diverging_replica_stops_alone_where_its_separate_run_stops(
    family, algorithm, seeds, mus, fails, cfg, diagnostic
):
    # the failing replica freezes at the step before its failure and spends no
    # further queries; the other replicas' traces and counts do not move.  The
    # replicas probe with different mu, so a diagnostic that named a probe
    # point off another replica's offsets would differ from its separate run's
    inst = ProblemInstance(family, 2, np.zeros(2), 1.0, SmoothnessConstants())
    P = metropolis_hastings(topology_from_spec("complete", family.n))
    counters = _counted(inst)
    replicas = [(replace(cfg, mu=mu), s) for mu, s in zip(mus, seeds)]
    # the Cliff's iterate overflow is the point; the Explosive's failure raises no warning
    overflow = "ignore" if isinstance(family, Cliff) else "raise"
    with np.errstate(over=overflow, invalid=overflow):
        batched = run(algorithm, inst, P, replicas)
        separate = [run(algorithm, inst, P, [pair])[0] for pair in replicas]
    assert [t.failed for t in batched] == fails
    for r, (trace, alone) in enumerate(zip(batched, separate)):
        _same_trace(trace, alone)
        assert counters[0].agent_queries[r].tolist() == counters[1 + r].agent_queries[0].tolist()
        if trace.failed:
            assert diagnostic in trace.diagnostic
            assert trace.rows[-1].queries_per_agent < counters[0].agent_queries[r, 0]


def test_the_logistic_family_takes_steps_from_the_crossover_d_on():
    # the rule is a property of the family's input, its d; the quartic never takes steps
    assert not synthetic_classification(_LOGISTIC_STEP_MIN_D - 1, 3, 2, seed=1).family.takes_step
    inst = synthetic_classification(_LOGISTIC_STEP_MIN_D, 3, 2, seed=1)
    assert inst.family.takes_step and inst.black_boxes()._takes_step
    assert not quartic_instance(2, 40).black_boxes()._takes_step


def test_the_ridge_quadratic_takes_steps_from_its_own_crossover_d_on():
    # its own rule, also from d alone: verify_desk's quadratics (d <= 4) stay
    # on points, and the quickstart ridge (d = 10) takes steps
    for d in (3, 4, _QUADRATIC_STEP_MIN_D - 1):
        assert not separable_quadratic_instance(2, d, seed=1).black_boxes()._takes_step
    for inst in (separable_quadratic_instance(2, _QUADRATIC_STEP_MIN_D, seed=1),
                 build_instance(QUICKSTART)):
        assert inst.family.takes_step and inst.black_boxes()._takes_step


def test_the_averaged_cost_and_the_exactness_check_stay_on_points():
    # global_value_many (so f*, loss_metric and e_f), global_black_box and the
    # estimators' exactness check (d up to 12) evaluate real probe points
    inst = build_instance(QUICKSTART)
    x = np.random.default_rng(1).normal(size=(3, inst.d))
    report = VerifyReport()
    with mock.patch.object(QuadraticObjective, "_coordinate_values",
                           side_effect=AssertionError("evaluated from the centers")):
        inst.global_value_many(x)
        oracle.estimate_both(inst.global_black_box(3), x, 1e-3)
        check_quadratic_exactness(report, seed=11, trials=30, d_max=12, mus=(1e-1, 1e-3))
    assert report.all_passed


def _boxes(family, d, n, R):
    """The family's query counters from the centers and on points."""
    return [BlackBoxObjective(family.value_many, d, agents=n, replicas=R,
                              row_elements=family.row_elements, takes_step=takes)
            for takes in (True, False)]


U_ROUND = 2.0**-53


def _magnitudes(family, x, offsets):
    """M (R, n, k): the family's value at each probe point with every product
    and term taken in absolute value, the quadratic's at |x| + |offset|."""
    if isinstance(family, QuadraticObjective):
        P = np.abs(x[..., None, :]) + np.abs(offsets)
        return (0.5 * np.einsum("rnki,nij,rnkj->rnk", P, np.abs(family.A), P)
                + np.einsum("rnki,ni->rnk", P, np.abs(family.b)) + np.abs(family.c)[:, None])
    P = x[..., None, :] + offsets
    return (np.einsum("nsd,rnkd->rnk", np.abs(family.U), np.abs(P)) / family._divisor
            + 0.5 * family.w * np.einsum("rnkd,rnkd->rnk", P, P))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "quadratic"]),
    n=st.integers(1, 5),
    above=st.integers(0, 12),
    replicas=st.integers(1, 3),
    per_replica=st.booleans(),
    center=st.booleans(),
    scale=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="quadratic", n=30, above=12, replicas=3, per_replica=True, center=True, scale=1.0,
         seed=1)  # three blocks of 13, 13 and 4 agents
def test_coordinate_probes_from_the_centers_match_the_points(
    kind, n, above, replicas, per_replica, center, scale, seed
):
    # k = 2d + 1 probes (with the center, as estimate_both) or 2d (as
    # estimate_gradient), at one step or a tuple of each replica's, at d
    # from the family's rule up.  A value is a sum of at most 2d + 4 rounded
    # products and terms: a logistic margin sums d + 2 on both paths, and the
    # quadratic's 2 f(x +- mu e_j) = x^T (Ax + 2b) + 2c + mu^2 A_jj +- 2 mu
    # (Ax + b)_j (2d + 5 roundings, halving is exact) has terms bounded by
    # |x| + mu e_j, where the points' form (2d + 2) has them at |x +- mu e_j|.
    # So a value moves by at most 4 (d + 2) u (M + |f|), with M the cost
    # with every product and term taken in absolute value; the estimates move
    # by the differences of those bounds over mu and mu^2, and a few u of themselves
    d = above + (_LOGISTIC_STEP_MIN_D if kind == "logistic" else _QUADRATIC_STEP_MIN_D)
    rng = np.random.default_rng(seed)
    family, _ = _family(kind, n, d, rng)
    x = scale * rng.normal(size=(replicas, n, d))
    mus = rng.uniform(1e-4, 0.3, size=replicas)
    mu = tuple(mus.tolist()) if per_replica else float(mus[0])
    offsets = oracle._probes(d, mu)[3]
    k = 2 * d + center
    structured, points = (box.evaluate_probes(x, mu, k) for box in _boxes(family, d, n, replicas))
    bound = 4 * (d + 2) * U_ROUND * (_magnitudes(family, x, offsets[..., :k, :]) + np.abs(points))
    assert np.isfinite(structured).all()
    assert (np.abs(structured - points) <= bound).all()

    estimator = oracle.estimate_both if center else oracle.estimate_gradient
    fast, slow = (estimator(box, x, mu) for box in _boxes(family, d, n, replicas))
    mu_col = np.reshape(mus if per_replica else mus[:1], (-1, 1, 1))
    worst = bound.max(axis=-1, keepdims=True)
    if center:
        (g_fast, h_fast), (g_slow, h_slow) = fast, slow
        assert (np.abs(h_fast - h_slow)
                <= 4 * worst / mu_col**2 + 8 * U_ROUND * np.abs(h_slow)).all()
    else:
        g_fast, g_slow = fast, slow
    assert (np.abs(g_fast - g_slow) <= worst / mu_col + 4 * U_ROUND * np.abs(g_slow)).all()


def _one_probe_overflows(kind):
    """(instance, x, mu, j): an instance at its family's rule, centers x (4, d)
    and a step mu at which only agent 2's +mu probe of coordinate j passes the
    float range."""
    if kind == "logistic":  # the ridge term ||x||^2 + mu^2 + 2 mu x_3 at x_3 = 1.3e154
        inst = synthetic_classification(_LOGISTIC_STEP_MIN_D, 3, 4, seed=1)
        j, x_j, mu = 3, 1.3e154, 1e153
    else:
        # the unhalved form a_j (x_j + mu)^2 = 2e308 from a_j x_j^2 = 1.5e308, on
        # the coordinate of the largest curvature a_j, so that mu^2 a_i keeps
        # every other probe below the range
        inst = separable_quadratic_instance(4, _QUADRATIC_STEP_MIN_D, seed=1)
        a = np.diagonal(inst.family.A[2])
        j = int(np.argmax(a))
        x_j = math.sqrt(1.5e308 / a[j])
        mu = (math.sqrt(4 / 3) - 1) * x_j
    x = np.full((4, inst.d), 0.1)
    x[2, j] = x_j
    return inst, x, mu, j


@pytest.mark.parametrize("replicas", [None, 2])
@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_a_probe_that_overflows_from_the_centers_fails_as_on_points(kind, replicas):
    # agent 2's +mu probe of coordinate j alone goes past the float range,
    # on points in the einsum and from the centers in the sum of the
    # center's terms; same value, same probe, same text, and no warning (the
    # suite turns one into an error)
    inst, x, mu, j = _one_probe_overflows(kind)
    if replicas:
        x = np.stack([np.full(x.shape, 0.1), x])
    messages = []
    for box in _boxes(inst.family, inst.d, 4, replicas):
        if replicas:
            oracle.estimate_both(box, x, mu)
            assert list(box.failures) == [1]
            messages.append(box.failures[1])
        else:
            with pytest.raises(EvaluationError) as failure:
                oracle.estimate_both(box, x, mu)
            messages.append(str(failure.value))
    assert messages[0] == messages[1]
    assert "agent 2 returned inf at probe point" in messages[0]
    assert messages[0].endswith(f"(coordinate {j}, +mu)")


def _padded_logistic(counts, d, seed):
    """A logistic family whose agent i owns counts[i] random rows of
    max(counts), the rest zero padding as unequal shards pad them."""
    counts = np.asarray(counts)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(len(counts), int(counts.max()), d))
    U[np.arange(U.shape[1]) >= counts[:, None]] = 0.0
    return LogisticObjective(U, 0.1, counts)


@pytest.mark.parametrize("d, paths", [(4, (False,)), (_LOGISTIC_STEP_MIN_D, (True, False))],
                         ids=["points", "both paths"])
def test_an_empty_shard_at_an_inf_coordinate_returns_inf(d, paths):
    # agent 1 owns no rows (or two of three), so a padding row's margin is
    # 0 * inf = nan, without a warning (the suite would raise one); the
    # padding mask zeroes those losses, and the ridge term is inf at either
    # sign of x_0 and at every probe, on points and from the centers alike:
    # from the centers ||x||^2 + mu^2 - 2 mu |x_0| would be inf - inf.  A
    # zero weight alone would leave the nan standing
    for inf in (math.inf, -math.inf):
        for counts in ([3, 0, 1], [3, 2, 1]):
            family = _padded_logistic(counts, d, seed=2)
            x = np.full((3, d), 0.1)
            x[1, 0] = inf
            step, _, _, offsets = oracle._probes(d, 1e-3)
            structured = family.value_many(x, slice(None), step, 2 * d + 1)
            points = family.value_many(x[:, None, :] + offsets, slice(None))
            assert np.array_equal(structured[1], points[1], equal_nan=True)
            assert np.isinf(points[1]).all()
            messages = []
            for takes in paths:
                box = BlackBoxObjective(family.value_many, d, agents=3,
                                        row_elements=family.row_elements, takes_step=takes)
                with pytest.raises(EvaluationError) as failure:
                    oracle.estimate_both(box, x, 1e-3)
                messages.append(str(failure.value))
            assert messages == [messages[0]] * len(paths)
            probe = [inf] + [0.1] * (d - 1)
            assert messages[0].endswith(
                f"agent 1 returned inf at probe point {probe} (coordinate 0, +mu)")


#: One family of each kind on each of its paths: on points below the
#: family's crossover d, from the centers at it; the quartic has points only
NON_FINITE_INSTANCES = {
    "quadratic-points": lambda: separable_quadratic_instance(3, 4, seed=1),
    "quadratic-centers": lambda: separable_quadratic_instance(3, _QUADRATIC_STEP_MIN_D, seed=1),
    "logistic-points": lambda: synthetic_classification(4, 3, 3, seed=1),
    "logistic-centers": lambda: synthetic_classification(_LOGISTIC_STEP_MIN_D, 3, 3, seed=1),
    "quartic": lambda: quartic_instance(3, d=2),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_INSTANCES))
def test_every_family_is_silent_at_a_non_finite_value_and_the_counter_names_it(kind, value):
    # agent 1's first coordinate is infinite or squares past the float range:
    # the family returns inf or nan at each of its probes without a warning
    # (the suite would raise one), on its own path, and only the counter
    # judges the value, naming the agent, its first probe and that probe's point
    inst = NON_FINITE_INSTANCES[kind]()
    box, d = inst.black_boxes(), inst.d
    assert box._takes_step == kind.endswith("centers")
    x = np.full((3, d), 0.1)
    x[1, 0] = value
    step, _, _, offsets = oracle._probes(d, 1e-3)
    if box._takes_step:
        values = inst.family.value_many(x, slice(None), step, 2 * d + 1)
    else:
        values = inst.family.value_many(x[:, None, :] + offsets, slice(None))
    assert np.isfinite(values[[0, 2]]).all() and not np.isfinite(values[1]).any()
    with pytest.raises(EvaluationError) as failure:
        oracle.estimate_both(box, x, 1e-3)
    returned, _, point = str(failure.value).partition(" at probe point ")
    assert returned.endswith(("agent 1 returned inf", "agent 1 returned nan"))
    assert point == f"{[value] + [0.1] * (d - 1)} (coordinate 0, +mu)"


#: Families from the centers: the logistic family, padded or not, at its
#: rule's d and above it, and the ridge quadratic at its rule's d
CENTERS_FAMILIES = {
    "padded logistic": lambda d: _padded_logistic([5, 0, 2, 5, 1, 3, 4], d, seed=4),
    "logistic": lambda d: LogisticObjective(np.random.default_rng(4).normal(size=(7, 5, d)), 0.1),
    "quadratic": lambda d: _family("quadratic", 7, d, np.random.default_rng(4))[0],
}


@pytest.mark.parametrize("replicas", [None, 3])
@pytest.mark.parametrize("estimator", [oracle.estimate_both, oracle.estimate_gradient])
@pytest.mark.parametrize("kind, d", [
    ("padded logistic", _LOGISTIC_STEP_MIN_D), ("padded logistic", _LOGISTIC_STEP_MIN_D + 3),
    ("logistic", _LOGISTIC_STEP_MIN_D), ("logistic", _LOGISTIC_STEP_MIN_D + 3),
    ("quadratic", _QUADRATIC_STEP_MIN_D),
])
def test_centers_values_do_not_depend_on_the_agent_blocks(kind, d, estimator, replicas):
    # each agent's value is its own arithmetic, so the counter's one call
    # gives the bytes of one-agent families built from the family's arrays,
    # whatever blocks the family makes of its agents (all in one, or one
    # each), and so do the estimates; test_batched_evaluation_matches_per_agent
    # checks the points
    n = 7
    family = CENTERS_FAMILIES[kind](d)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, d) if replicas is None else (replicas, n, d))
    mu = 1e-3 if replicas is None else tuple(rng.uniform(1e-4, 0.3, size=replicas).tolist())
    step = oracle._probes(d, mu)[0]
    k = 2 * d + (estimator is oracle.estimate_both)
    if kind == "quadratic":
        agents = [QuadraticObjective(family.A[i:i + 1], family.b[i:i + 1], family.c[i:i + 1])
                  for i in range(n)]
    else:
        agents = [LogisticObjective(family.U[i:i + 1], family.w, family.counts[i:i + 1])
                  for i in range(n)]
    alone = np.concatenate([agent.value_many(x[..., i:i + 1, :], slice(None), step, k)
                            for i, agent in enumerate(agents)], axis=-2)
    estimates = []
    for elements in (10**9, 1):
        with mock.patch.object(oracle, "_BLOCK_ELEMENTS", elements):
            box = _instance(family, d).black_boxes(replicas)
            assert box._takes_step
            assert box.evaluate_probes(x, mu, k).tobytes() == alone.tobytes()
            estimates.append(np.stack(estimator(box, x, mu)))
    together, one_each = estimates
    assert np.isfinite(together).all()
    assert together.tobytes() == one_each.tobytes()


@pytest.mark.parametrize("algorithm", ["zo_jade", "gradient_tracking"])
@pytest.mark.parametrize("kind", ["logistic", "quadratic"])
def test_a_counter_that_takes_steps_makes_one_family_call_per_probe_set(kind, algorithm):
    # three replicas at three mu; replica 1 starts at 1e160 and fails in its
    # first round, so the later calls come with `live` a subset.  Each round
    # is one family call with every live agent's centers and slice(None)
    if kind == "logistic":
        inst = synthetic_classification(_LOGISTIC_STEP_MIN_D, 3, 4, seed=1)
    else:
        inst = separable_quadratic_instance(4, _QUADRATIC_STEP_MIN_D, seed=1)
    P = metropolis_hastings(topology_from_spec("ring", 4))
    per_step = ALGORITHMS[algorithm][1](inst.d)
    cls = JadeConfig if algorithm == "zo_jade" else BaselineConfig
    replicas = [(cls(mu=mu, budget=6 * per_step, x0_scale=scale), 1)
                for mu, scale in ((1e-3, 1.0), (2e-3, 1e160), (3e-3, 1.0))]
    calls = []
    value_many = inst.family.value_many

    def recorded(X, agents, *step):
        if step:  # the averaged cost's diagnostics hand the family points
            calls.append((X.shape, agents, np.shape(step[0]), step[1]))
        return value_many(X, agents, *step)

    with mock.patch.object(inst.family, "value_many", recorded):
        traces = run(algorithm, inst, P, replicas)
    assert [t.failed for t in traces] == [False, True, False]
    assert [t.rows[-1].iteration for t in traces] == [6, 0, 6]
    live = [3] + [2] * 5
    assert calls == [((R, 4, inst.d), slice(None), (R, 1, 1), per_step) for R in live]


@pytest.mark.parametrize("make, x0_scale, returned", [
    (lambda: (synthetic_classification(_LOGISTIC_STEP_MIN_D, 3, 4, seed=1),
              metropolis_hastings(topology_from_spec("ring", 4))), 1e160, "inf"),
    (lambda: (build_instance(QUICKSTART), build_topology(QUICKSTART)[1]), 1e155, "nan"),
    (lambda: (build_instance(QUICKSTART), build_topology(QUICKSTART)[1]), 1e160, "nan"),
], ids=["logistic", "quickstart-1e155", "quickstart-1e160"])
def test_an_iterate_that_overflows_from_the_centers_fails_as_on_points(make, x0_scale, returned):
    # replica 0 starts at x0_scale and fails in its first round; replica 1
    # converges beside it.  The logistic iterate squares past the float range
    # to inf; the quickstart ridge's (d = 10) quadratic form has terms of both
    # signs past it, so it is nan at the center and every probe.  From the
    # centers and on points the failure comes at the same step with the same text
    inst, P = make()
    per_step = 2 * inst.d + 1
    replicas = [(JadeConfig(mu=1e-3, budget=20 * per_step, x0_scale=x0_scale), 1),
                (JadeConfig(mu=1e-3, budget=20 * per_step), 2)]
    traces = []
    for takes in (True, False):
        with mock.patch.object(inst.family, "takes_step", takes):
            traces.append(run("zo_jade", inst, P, replicas))
    (blown, fine), (blown_points, fine_points) = traces
    assert blown.failed and not fine.failed
    assert [row.iteration for row in blown.rows] == [row.iteration for row in blown_points.rows]
    assert blown.diagnostic == blown_points.diagnostic
    assert f"agent 0 returned {returned} at probe point" in blown.diagnostic
    assert fine.rows[-1].iteration == fine_points.rows[-1].iteration == 20
    assert fine.rows[-1].e_f == pytest.approx(fine_points.rows[-1].e_f, rel=1e-6)
