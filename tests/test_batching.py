"""The agent-batched oracle: one call evaluates every agent of a stacked family,
in agent blocks under a fixed element budget, exactly as one agent at a time."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zojade import (
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
