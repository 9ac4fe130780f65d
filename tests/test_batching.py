"""The agent-batched oracle: one call evaluates every agent of a stacked family,
in agent blocks under a fixed element budget, exactly as one agent at a time;
and the replica-batched run: the seeds of one entry advance as one (R, n, d)
stack, bitwise as their separate runs."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zojade import (
    ALGORITHMS,
    BaselineConfig,
    BlackBoxObjective,
    JadeConfig,
    LogisticObjective,
    ProblemInstance,
    QuadraticObjective,
    QuarticObjective,
    SmoothnessConstants,
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
from zojade import oracle


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
    k=st.integers(1, 9),
    mu=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_evaluation_matches_per_agent(kind, n, d, k, mu, seed):
    rng = np.random.default_rng(seed)
    family, reference = _family(kind, n, d, rng)
    x = rng.normal(size=(n, d))
    offsets = mu * rng.normal(size=(k, d))
    objective = _instance(family, d).black_boxes()
    with mock.patch.object(oracle, "_BLOCK_ELEMENTS", 10**9):
        together = objective.evaluate_probes(x, offsets)
    assert objective.agent_queries.tolist() == [k] * n
    with mock.patch.object(oracle, "_BLOCK_ELEMENTS", 1):
        alone = objective.evaluate_probes(x, offsets)
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
    k=st.integers(1, 121),
)
@example(replicas=5, n=20, d=1, k=21)
def test_agent_blocks_count_replica_rows_against_the_budget(replicas, n, d, k):
    rows_elements = 25  # a logistic family's temporaries per evaluated row
    calls = []

    def batch_fn(X, block):
        calls.append((X.shape, block))
        return np.zeros(X.shape[:-1])

    objective = BlackBoxObjective(batch_fn, d, agents=n, replicas=replicas,
                                  row_elements=rows_elements)
    objective.evaluate_probes(np.zeros((replicas, n, d)), np.zeros((k, d)))
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


def _suite(family, n, d, seed):
    if family == "quadratic":
        return separable_quadratic_instance(n, d, seed=seed)
    if family == "logistic":
        return synthetic_classification(d + 1, 3, n, seed=seed)
    return quartic_instance(n, d)


def _same_trace(a, b):
    assert (a.algorithm, a.seed, a.label, a.ef_mode) == (b.algorithm, b.seed, b.label, b.ef_mode)
    assert [r.__dict__ for r in a.rows] == [r.__dict__ for r in b.rows]
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


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    family=st.sampled_from(["quadratic", "logistic", "quartic"]),
    replicas=st.integers(1, 4),
    n=st.integers(1, 5),
    d=st.integers(1, 4),
    steps=st.integers(0, 25),
    record_every=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
@example(algorithm="zo_jade", family="quadratic", replicas=3, n=1, d=2, steps=12, record_every=5,
         seed=4)
@example(algorithm="gradient_tracking", family="logistic", replicas=4, n=1, d=1, steps=9,
         record_every=2, seed=7)
def test_batched_run_equals_the_separate_runs(
    algorithm, family, replicas, n, d, steps, record_every, seed
):
    inst = _suite(family, n, d, seed)
    P = metropolis_hastings(topology_from_spec("ring", n))
    per_step = ALGORITHMS[algorithm][1](inst.d)
    budget = max(1, steps * per_step)
    if algorithm == "zo_jade":
        cfg = JadeConfig(mu=0.05, epsilon=0.3, budget=budget, record_every=record_every)
    else:
        cfg = BaselineConfig(mu=0.05, eta=0.5 / inst.constants.L1, budget=budget,
                             record_every=record_every)
    seeds = [seed + 10 * r for r in range(replicas)]
    counters = _counted(inst)
    batched = run(algorithm, inst, P, cfg, seeds, label="batch")
    for r, trace in enumerate(batched):
        (alone,) = run(algorithm, inst, P, cfg, [seeds[r]], label="batch")
        _same_trace(trace, alone)
        assert counters[0].agent_queries[r].tolist() == counters[-1].agent_queries[0].tolist()
    assert counters[0].agent_queries.shape == (replicas, n)


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
    [trace] = run("consensus_gd", inst, P, cfg, [11])
    assert trace.failed and trace.rows[-1].iteration == 3
    assert all(np.isfinite(row.consensus_error) for row in trace.rows)
    deviation = (trace.final_x - trace.final_x.mean(axis=0)) / 1e158
    assert trace.rows[-1].consensus_error == pytest.approx(
        1e158 * np.sqrt(np.sum(deviation * deviation)), rel=1e-14)


@pytest.mark.parametrize("family, algorithm, seeds, fails, cfg, diagnostic", [
    # seed 1 overflows a probe at step 3 and seed 4 at step 2; seeds 2 and 3 converge
    (Explosive([0.2, 0.3, 0.25]), "consensus_gd", [2, 1, 3, 4], [False, True, False, True],
     BaselineConfig(mu=0.1, eta=0.5, budget=4 * 60, x0_scale=1.5, record_every=7),
     "returned inf at probe point"),
    # seed 2's gradient estimate overflows, and so its iterate, at step 2
    (Cliff([0.0, 1.0]), "gradient_tracking", [1, 2, 3], [False, True, False],
     BaselineConfig(mu=0.3, eta=0.5, budget=4 * 30, x0_scale=2.0, record_every=4),
     "non-finite iterate at step 2: agent 0, coordinate 0 became np.float64(-inf)"),
], ids=["probe", "iterate"])
def test_a_diverging_replica_stops_alone_where_its_separate_run_stops(
    family, algorithm, seeds, fails, cfg, diagnostic
):
    # the failing replica freezes at the step before its failure and spends no
    # further queries; the other replicas' traces and counts do not move
    inst = ProblemInstance(family, 2, np.zeros(2), 1.0, SmoothnessConstants())
    P = metropolis_hastings(topology_from_spec("complete", family.n))
    counters = _counted(inst)
    # the Cliff's iterate overflow is the point; the Explosive's failure raises no warning
    overflow = "ignore" if isinstance(family, Cliff) else "raise"
    with np.errstate(over=overflow, invalid=overflow):
        batched = run(algorithm, inst, P, cfg, seeds)
        separate = [run(algorithm, inst, P, cfg, [s])[0] for s in seeds]
    assert [t.failed for t in batched] == fails
    for r, (trace, alone) in enumerate(zip(batched, separate)):
        _same_trace(trace, alone)
        assert counters[0].agent_queries[r].tolist() == counters[1 + r].agent_queries[0].tolist()
        if trace.failed:
            assert diagnostic in trace.diagnostic
            assert trace.rows[-1].queries_per_agent < counters[0].agent_queries[r, 0]
