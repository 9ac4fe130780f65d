"""Whole runs against a transcription of the paper's updates.

The reference below is written as the paper states ZO-JADE, gradient
tracking and consensus gradient descent: loops over rounds and agents,
every probe x_i +- mu e_j and x_i built and evaluated alone by a plain
per-agent formula of its family, the estimates by central differences,
and the mixing as sums over each agent's neighbours.  It shares with the
simulator only the seeded initial draw and the instance's data, so it
checks the stacked and blocked evaluation, on points and from the
centers, end to end.

The two evaluate the same probe in different orders, so e_f agrees only
within a round-off bound, which the reference carries along its run:

* A probe value is a sum of at most 2d + 4 rounded products and terms on
  either side, each bounded by M, the cost with every product and term in
  absolute value, taken at |x| + mu (every probe's point lies inside it).
  So the two values differ by at most nu = 4 (d + 2) u (M + |f|).
* Then per round the estimates differ by at most nu / mu (gradient) and
  4 nu / mu^2 (Hessian diagonal), plus a few u of themselves, and by what
  the iterates' difference E moves them: G E and T E, with G >= |Hessian|
  and T >= |third derivatives| componentwise within |x| + mu (the logistic
  loss's second and third derivatives are at most 1/4 and 1/(6 sqrt 3);
  the quartic's, 3 q x^2 + a and 6 q x, grow with |x|).
* The update is propagated to first order in absolute values: the
  tracked y and z add their signals' bounds through the nonnegative
  weights, and x takes (1 - eps) P E + eps (Dy / z + |y| Dz / z^2), or
  P E + eta Dy for gradient tracking, or P E + eta times the gradient
  estimate's bound for consensus gradient descent.
* e_f moves by |grad F| . E per agent, averaged, plus the two sides'
  round-off of F at x and at x*, over |f*|; the bound doubles that sum to
  cover the second-order terms (at most 1e-19 at the last row of these
  runs, from the two sides' final iterates).
* The consensus error ||x - mean x|| moves by at most ||E|| (the
  projection onto the deviations does not lengthen a vector).  Either
  side's mean and deviations are off by (n + 2) u (|x_i| + mean |x|) per
  entry, and its sum of n d squares and root by (n d + 2) u of the error;
  the bound adds both sides' round-off to ||E||.

In these runs e_f agrees within 1.7e-9 (the quadratic's zo_jade at mu =
0.01 from the centers, whose 1/mu^2 is the largest), and each difference
is at most 0.13 of its bound, which reads 2e-14 to 2e-11 at step 0 and up
to 0.6 after 12 rounds.  The bound grows with the rounds, but every row
is checked, and by round 3 it is at most 3.9e-5 (the same instance) and
at most 1.1e-8 for the two baselines.  The consensus error agrees within
3.6e-11, at most 0.02 of its bound, which reads at most 2.2e-13 at step 0,
3.1e-6 at round 3 and 0.4 after 12 rounds.  A family that drops the mu^2 term of the
quadratic's centers path fails on the clamp count: its Hessian diagonal is
0, so every z clamps.  A gradient-only defect fails on e_f at round 3 in
all six cases from the centers: scaling the +-2 mu g_j of the quadratic's
centers path, or the +-2 mu x_j of the logistic ridge terms, by 1 + 1e-6.
On points a value defect moves e_f itself, which is evaluated on points,
and fails at step 0: scaling the quadratic's linear term, the logistic
ridge term or the quartic term by 1 + 1e-6.  The zo_jade batch mixes mu
and epsilon (0.2 and 0.4); handing every replica the first replica's
epsilon fails on e_f and, with that check taken out, on the consensus
error, both at round 3 in all five cases.
"""

import functools
import math

import numpy as np
import pytest

from zojade import (
    BaselineConfig, JadeConfig, LogisticObjective, ProblemInstance, QuadraticObjective,
    QuarticObjective, draw_initial_iterates, metropolis_hastings, quartic_instance,
    ridge_synthetic, run, separable_quadratic_instance, topology_from_spec,
)
from zojade.metrics import EF_DENOMINATOR_FLOOR
from zojade.objectives import _LOGISTIC_STEP_MIN_D, _QUADRATIC_STEP_MIN_D, _logistic_constants

U_ROUND = 2.0**-53


class _Cost:
    """Agent i's cost f, its gradient, its magnitude M (every product and
    term in absolute value) at a point, and the bounds G and T on the
    absolute values of its second and third derivatives within |x| <= r
    componentwise, in the loss conventions' formulas."""

    def roundoff(self, x, value):
        """nu: how far two evaluation orders can put f at a point within |x|."""
        return 4 * (len(x) + 2) * U_ROUND * (self.magnitude(np.abs(x)) + abs(value))


class _Quadratic(_Cost):
    def __init__(self, family, i):
        self.A, self.b, self.c = family.A[i], family.b[i], family.c[i]

    def __call__(self, x):
        return 0.5 * (x @ self.A @ x) + self.b @ x + self.c

    def gradient(self, x):
        return self.A @ x + self.b

    def magnitude(self, x):
        return 0.5 * (x @ np.abs(self.A) @ x) + np.abs(self.b) @ x + abs(self.c)

    def bounds(self, r):
        return np.abs(self.A), np.zeros_like(self.A)


class _Logistic(_Cost):
    def __init__(self, family, i):
        self.S, self.w = family.U[i, :family.counts[i]], family.w
        count = max(len(self.S), 1)
        S = np.abs(self.S)
        self.G = 0.25 * S.T @ S / count + self.w * np.eye(len(S.T))
        self.T = (S * S).T @ S / (6.0 * math.sqrt(3.0) * count)

    def __call__(self, x):
        mean = np.logaddexp(0.0, -(self.S @ x)).mean() if len(self.S) else 0.0
        return mean + 0.5 * self.w * (x @ x)

    def gradient(self, x):
        loss = -self.S.T @ (0.5 - 0.5 * np.tanh(0.5 * (self.S @ x)))  # sigma(-z)
        return (loss / len(self.S) if len(self.S) else 0.0) + self.w * x

    def hessian(self, x):
        r = 0.25 - 0.25 * np.tanh(0.5 * (self.S @ x)) ** 2  # sigma(z) sigma(-z)
        curvature = self.S.T @ (self.S * r[:, None])
        return (curvature / len(self.S) if len(self.S) else 0.0) + self.w * np.eye(len(x))

    def magnitude(self, x):
        S = np.abs(self.S)
        mean = (S @ x).mean() + math.log(2.0) if len(S) else 0.0
        return mean + 0.5 * self.w * (x @ x)

    def bounds(self, r):
        return self.G, self.T


class _Quartic(_Cost):
    def __init__(self, family, i):
        self.q, self.a, self.tilt = family.q, family.a, family.b[i]

    def __call__(self, x):
        return np.sum(self.q * x**4 / 4 + self.a * x**2 / 2 + self.tilt * x)

    def gradient(self, x):
        return self.q * x**3 + self.a * x + self.tilt

    def magnitude(self, x):
        return np.sum(self.q * x**4 / 4 + self.a * x**2 / 2 + np.abs(self.tilt) * x)

    def bounds(self, r):
        return np.diag(3.0 * self.q * r * r + self.a), np.diag(6.0 * self.q * r)


COSTS = {QuadraticObjective: _Quadratic, LogisticObjective: _Logistic, QuarticObjective: _Quartic}


def _reference(algorithm, instance, P, cfg, seed):
    """One replica's run by the transcription: its rows (iteration, queries
    per agent, e_f, clamp count, the round-off bound on e_f, consensus
    error, its bound) at step 0, every record_every rounds and the last."""
    n, d, mu = instance.n, instance.d, cfg.mu
    costs = [COSTS[type(instance.family)](instance.family, i) for i in range(n)]
    neighbours = [[j for j in range(n) if P[i, j] != 0.0] for i in range(n)]
    jade = algorithm == "zo_jade"
    per_round = 2 * d + 1 if jade else 2 * d
    rounds = cfg.budget // per_round
    x = list(draw_initial_iterates(seed, n, d, cfg.x0_scale))
    g, h, y, z = ([np.zeros(d) for _ in range(n)] for _ in range(4))
    # first-order bounds on the differences from the simulator's run
    E, Dg, Dh, Dy, Dz = ([np.zeros(d) for _ in range(n)] for _ in range(5))
    clamps = 0
    f_star = sum(f(instance.x_star) for f in costs) / n
    star_roundoff = sum(f.roundoff(instance.x_star, f(instance.x_star)) for f in costs) / n
    scale = abs(f_star) if abs(f_star) >= EF_DENOMINATOR_FLOOR else 1.0

    def mix(vectors, i):
        return sum(P[i, j] * vectors[j] for j in neighbours[i])

    def row(t):
        F = slope = roundoff = 0.0
        for i in range(n):
            values = [f(x[i]) for f in costs]
            F += sum(values) / n / n
            slope += np.abs(sum(f.gradient(x[i]) for f in costs) / n) @ E[i] / n
            roundoff += sum(f.roundoff(x[i], v) for f, v in zip(costs, values)) / n / n
        bound = 2.0 * (slope + roundoff + star_roundoff) / scale
        mean, mean_abs = sum(x) / n, sum(np.abs(x)) / n
        consensus = math.sqrt(sum((xi - mean) @ (xi - mean) for xi in x))
        magnitude = math.sqrt(sum(np.sum((np.abs(xi) + mean_abs) ** 2) for xi in x))
        consensus_roundoff = (n + 2) * U_ROUND * magnitude + (n * d + 2) * U_ROUND * consensus
        spread = math.sqrt(sum(e @ e for e in E))
        return (t, t * per_round, (F - f_star) / scale, clamps, bound,
                consensus, spread + 2.0 * consensus_roundoff)

    rows = [row(0)]
    for t in range(1, rounds + 1):
        grads, hdiags, grad_bounds, hdiag_bounds = [], [], [], []
        for i, f in enumerate(costs):
            grad, hdiag = np.empty(d), np.zeros(d)
            center = f(x[i]) if jade else 0.0
            largest = abs(center)
            for j in range(d):
                step = np.zeros(d)
                step[j] = mu
                plus, minus = f(x[i] + step), f(x[i] - step)
                grad[j] = (plus - minus) / (2.0 * mu)
                hdiag[j] = (plus - 2.0 * center + minus) / mu**2 if jade else 0.0
                largest = max(largest, abs(plus), abs(minus))
            nu = f.roundoff(np.abs(x[i]) + mu, largest)
            G, T = f.bounds(np.abs(x[i]) + mu)
            grads.append(grad)
            hdiags.append(hdiag)
            grad_bounds.append(nu / mu + 4 * U_ROUND * np.abs(grad) + G @ E[i])
            hdiag_bounds.append(4 * nu / mu**2 + 4 * U_ROUND * np.abs(hdiag) + T @ E[i])
        if jade:
            g_new = [hdiags[i] * x[i] - grads[i] for i in range(n)]
            Dg_new = [np.abs(x[i]) * hdiag_bounds[i] + np.abs(hdiags[i]) * E[i] + grad_bounds[i]
                      for i in range(n)]
            y = [mix([y[j] + g_new[j] - g[j] for j in range(n)], i) for i in range(n)]
            z = [mix([z[j] + hdiags[j] - h[j] for j in range(n)], i) for i in range(n)]
            Dy = [mix([Dy[j] + Dg_new[j] + Dg[j] for j in range(n)], i) for i in range(n)]
            Dz = [mix([Dz[j] + hdiag_bounds[j] + Dh[j] for j in range(n)], i) for i in range(n)]
            clamps += sum(int(np.sum(z[i] < cfg.z_floor)) for i in range(n))
            safe = [np.maximum(z[i], cfg.z_floor) for i in range(n)]
            E = [(1.0 - cfg.epsilon) * mix(E, i)
                 + cfg.epsilon * (Dy[i] / safe[i] + np.abs(y[i]) * Dz[i] / safe[i]**2)
                 for i in range(n)]
            x = [(1.0 - cfg.epsilon) * mix(x, i) + cfg.epsilon * y[i] / safe[i] for i in range(n)]
            g, h, Dg, Dh = g_new, hdiags, Dg_new, hdiag_bounds
        elif algorithm == "gradient_tracking":
            y = [mix([y[j] + grads[j] - g[j] for j in range(n)], i) for i in range(n)]
            Dy = [mix([Dy[j] + grad_bounds[j] + Dg[j] for j in range(n)], i) for i in range(n)]
            E = [mix(E, i) + cfg.eta * Dy[i] for i in range(n)]
            x = [mix(x, i) - cfg.eta * y[i] for i in range(n)]
            g, Dg = grads, grad_bounds
        else:  # consensus_gd
            E = [mix(E, i) + cfg.eta * grad_bounds[i] for i in range(n)]
            x = [mix(x, i) - cfg.eta * grads[i] for i in range(n)]
        if t % cfg.record_every == 0 or t == rounds:
            rows.append(row(t))
    return rows


def _padded_logistic_instance(counts, d, seed):
    """A logistic instance whose agents own counts[i] random signed rows of
    max(counts), the rest zero padding; its x* by Newton's method."""
    rng = np.random.default_rng(seed)
    counts = np.asarray(counts)
    U = 0.3 * rng.normal(size=(len(counts), int(counts.max()), d))
    U[np.arange(U.shape[1]) >= counts[:, None]] = 0.0
    family = LogisticObjective(U, 0.1, counts)
    instance = ProblemInstance(family, d, np.zeros(d), 0.0, _logistic_constants(family))
    x = np.zeros(d)
    for _ in range(30):
        x = x - np.linalg.solve(instance.global_hessian(x), instance.global_gradient(x))
    instance.x_star, instance.f_star = x, instance.global_value(x)
    return instance


#: The logistic family with an empty shard and unequal ones and the ridge
#: quadratic, each at its rule's d (from the centers) and below it (on
#: points), and the quartic (on points); each with the path it takes
INSTANCES = {
    "logistic": (lambda: _padded_logistic_instance([3, 0, 1, 2], _LOGISTIC_STEP_MIN_D, seed=1),
                 True),
    "logistic-points": (lambda: _padded_logistic_instance([3, 0, 1, 2], 10, seed=1), False),
    "quadratic": (lambda: ridge_synthetic(_QUADRATIC_STEP_MIN_D, 3, 4, seed=2), True),
    "quadratic-points": (lambda: ridge_synthetic(4, 3, 4, seed=2), False),
    "quartic": (lambda: quartic_instance(4, d=2), False),
}


@pytest.mark.parametrize("algorithm", ["zo_jade", "gradient_tracking", "consensus_gd"])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_a_run_is_the_transcribed_update(kind, algorithm):
    # a batch of replicas with different mu and seeds, 12 rounds each, and for
    # zo_jade a third replica at another epsilon; the integer columns are
    # equal, e_f and the consensus error agree within the carried bounds
    build, takes_step = INSTANCES[kind]
    instance = build()
    assert instance.black_boxes()._takes_step == takes_step
    P = metropolis_hastings(topology_from_spec("ring", instance.n))
    budget = 12 * (2 * instance.d + (algorithm == "zo_jade"))
    if algorithm == "zo_jade":
        replicas = [(JadeConfig(mu=mu, epsilon=epsilon, budget=budget, record_every=3), seed)
                    for mu, epsilon, seed in ((1e-2, 0.2, 1), (3e-2, 0.2, 2), (1e-2, 0.4, 3))]
    else:
        eta = 0.5 / instance.constants.L1
        replicas = [(BaselineConfig(mu=mu, eta=eta, budget=budget, record_every=3), seed)
                    for mu, seed in ((1e-2, 1), (3e-2, 2))]
    for trace, (cfg, seed) in zip(run(algorithm, instance, P, replicas), replicas):
        reference = _reference(algorithm, instance, P, cfg, seed)
        assert not trace.failed
        assert ([(r.iteration, r.queries_per_agent, r.clamp_count) for r in trace.rows]
                == [row[:2] + row[3:4] for row in reference])
        for r, (_, _, e_f, _, bound, consensus, consensus_bound) in zip(trace.rows, reference):
            assert abs(r.e_f - e_f) <= bound, (r.iteration, r.e_f, e_f, bound)
            assert abs(r.consensus_error - consensus) <= consensus_bound, (
                r.iteration, r.consensus_error, consensus, consensus_bound)


# --- the ground truth's derivatives, summed over a slice of agents ---------------


def _derivative_bounds(family, agents, x):
    """Componentwise bounds on how far two evaluation orders can put the
    logistic gradient and Hessian summed over a slice: an entry adds at most
    m N + m + 1 terms, each a weight, a sigmoid factor at most 1 (with an
    absolute error of a few u) and sample entries, so each order is off by
    at most 4 (m N + m + 4) u times the terms' absolute sum."""
    U = np.abs(family.U[agents])
    m, N = U.shape[:2]
    rows, wt = U.reshape(m * N, -1), family._weights[agents].reshape(-1)
    gamma = 4 * (m * N + m + 4) * U_ROUND
    ridge = m * family.w
    return (gamma * (wt @ rows + ridge * np.abs(x)),
            gamma * (rows.T @ (rows * wt[:, None]) + ridge * np.eye(len(x))))


#: The padded instance of the runs above (shards of 3, 0, 1 and 2 rows), and
#: 1,000 rows at d = 50, whose weighted Gram products take four chunks of
#: rows, the last one partial
LOGISTIC_TRUTHS = {
    "padded": INSTANCES["logistic-points"][0],
    "chunked": lambda: _padded_logistic_instance([25] * 38 + [0, 13], 50, seed=4),
}


@pytest.mark.parametrize("kind", sorted(LOGISTIC_TRUTHS))
def test_logistic_derivatives_are_slice_sums_of_the_per_agent_formula(kind):
    # a one-agent slice is that agent's formula, the whole family the in-order
    # sum of its one-agent slices, each within both sides' round-off
    instance = LOGISTIC_TRUTHS[kind]()
    family, n = instance.family, instance.n
    rng = np.random.default_rng(3)
    for x in (instance.x_star, rng.normal(size=instance.d), 4.0 * rng.normal(size=instance.d)):
        singles = [slice(i, i + 1) for i in range(n)]
        for i, agent in enumerate(singles):
            cost = _Logistic(family, i)
            grad_bound, hess_bound = _derivative_bounds(family, agent, x)
            assert np.all(np.abs(family.gradient(x, agent) - cost.gradient(x)) <= 2 * grad_bound)
            assert np.all(np.abs(family.hessian(x, agent) - cost.hessian(x)) <= 2 * hess_bound)
        grad_bound, hess_bound = _derivative_bounds(family, slice(None), x)
        in_order = functools.reduce(np.add, [family.gradient(x, a) for a in singles])
        assert np.all(np.abs(family.gradient(x) - in_order) <= 2 * grad_bound)
        in_order = functools.reduce(np.add, [family.hessian(x, a) for a in singles])
        assert np.all(np.abs(family.hessian(x) - in_order) <= 2 * hess_bound)


@pytest.mark.parametrize("kind", sorted(LOGISTIC_TRUTHS))
def test_logistic_constants_match_a_per_agent_accumulation(kind):
    # the averaged cost's Gram matrix and row-norm moments, accumulated agent
    # by agent over each agent's own rows, against the sums over all rows
    instance = LOGISTIC_TRUTHS[kind]()
    family, d, n = instance.family, instance.d, instance.n
    gram, s3, s4 = np.zeros((d, d)), 0.0, 0.0
    for U, count in zip(family.U, family.counts):
        if count:
            U, wt = U[:count], 1.0 / (n * count)
            gram += wt * U.T @ U
            norms = np.linalg.norm(U, axis=1)
            s3 += wt * float(np.sum(norms**3))
            s4 += wt * float(np.sum(norms**4))
    constants = _logistic_constants(family)
    # each entry adds at most n N + n terms, and a row norm's cube d + 3 more
    gamma = 4 * (family.U.shape[1] * n + n + d + 4) * U_ROUND
    rows, wt = np.abs(family.U).reshape(-1, d), family._weights.reshape(-1) / n
    # Weyl: the largest eigenvalue moves by at most the Frobenius norm of the
    # Gram matrices' difference, and eigvalsh is off by a few d u of the norm
    magnitude = float(np.linalg.norm(rows.T @ (rows * wt[:, None])))
    L1 = family.w + 0.25 * float(np.linalg.eigvalsh(gram)[-1])
    assert abs(constants.L1 - L1) <= 0.25 * (2 * gamma + 8 * d * U_ROUND) * magnitude
    assert abs(constants.L2 - s3 / (6.0 * math.sqrt(3.0))) <= 2 * gamma * constants.L2
    assert abs(constants.L3 - s4 / 8.0) <= 2 * gamma * constants.L3


@pytest.mark.parametrize("make", [
    lambda: separable_quadratic_instance(12, 1, seed=3),
    lambda: ridge_synthetic(_QUADRATIC_STEP_MIN_D, 3, 12, seed=2),
    lambda: quartic_instance(12),
    lambda: quartic_instance(12, d=3),
], ids=["quadratic-d1", "ridge", "quartic-d1", "quartic-d3"])
def test_quadratic_and_quartic_slice_sums_add_the_agents_in_order(make):
    # bitwise the in-order sum of the one-agent slices, also at d = 1, where
    # numpy's sum over the agent axis would add pairwise from 8 agents on
    instance = make()
    family = instance.family
    x = np.random.default_rng(4).normal(size=instance.d)
    for agents in (slice(None), slice(2, 11)):
        singles = [slice(i, i + 1) for i in range(*agents.indices(instance.n))]
        for method in (family.gradient, family.hessian):
            in_order = functools.reduce(np.add, [method(x, a) for a in singles])
            assert method(x, agents).tobytes() == in_order.tobytes()
