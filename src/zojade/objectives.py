"""Local cost functions, dataset plumbing, and centralized ground truth.

Three model families are provided: full quadratics (ridge regression),
regularized log-loss (binary classification), and separable tilted
quartics (a minimal smooth non-quadratic whose derivative constants are
known in closed form on a box).  Every builder returns a
:class:`ProblemInstance` holding the agents' costs as one family object
whose arrays are stacked along a leading agent axis, the minimizer of the
averaged cost computed by an independent centralized solver, and the
smoothness constants of the averaged cost.  Runs query the agents only
through the fresh counter of :meth:`ProblemInstance.black_boxes`, which
evaluates all agents in one call.  :data:`FAMILIES` defines every instance
family a config can name: its builder and the kinds of its parameters.

Each family stacks its agents' parameters along a leading agent axis.
`value_many(X, agents)` returns the values (..., m, k) of the m agents in
the slice `agents`, each at its own points X:(..., m, k, d), or all at
shared points when that axis has length 1; each (k, d) slab of a leading
replica axis goes through the arithmetic of a separate call.  One evaluated
row takes at most `row_elements` elements in any temporary.
`gradient(x, agents)` and `hessian(x, agents)` give those agents'
derivatives at one point x, for the experimenter's ground truth.

Loss conventions, fixed once and used by all oracles and tests:

    ridge     f_i(x) = (1/N_i) sum_k (s_k^T x - t_k)^2 + (lam/2) ||x||^2
    logistic  f_i(x) = (1/N_i) sum_k log(1 + exp(-l_k [s_k^T 1] x)) + (w/2) ||x||^2
    quartic   f_i(x) = sum_k ( q x_k^4 / 4 + a x_k^2 / 2 + b_ik x_k )

Each log-loss term is evaluated at its margin z = l_k [s_k^T 1] x as
max(-z, 0) + log1p(exp(-|z|)), which never overflows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BOOL, INT, INTS, KINDS, NONNEG, NUM, PAIR, PATH, POS_INT, POS_NUM, ConfigurationError,
    InstanceConstructionError, require,
)
from .oracle import BlackBoxObjective, SmoothnessConstants, agent_blocks
from .rng import Xoshiro256

_GRAD_TOL = 1e-10  # required accuracy of every centralized x* solve

# Global bounds on the derivatives of t -> log(1 + exp(-t)); the second,
# third and fourth derivatives of the scalar logistic loss are bounded by
# 1/4, 1/(6 sqrt(3)) and 1/8 respectively.
_SIG2 = 0.25
_SIG3 = 1.0 / (6.0 * math.sqrt(3.0))
_SIG4 = 0.125


class QuadraticObjective:
    """Agent i's cost f_i(x) = 0.5 x^T A_i x + b_i^T x + c_i with symmetric
    positive definite A_i, stacked over the agents: A (n, d, d), b (n, d),
    c (n,) (zero by default)."""

    def __init__(self, A: np.ndarray, b: np.ndarray, c=None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.zeros(A.shape[:1]) if c is None else np.asarray(c, dtype=float)
        if b.ndim != 2 or A.shape != b.shape + b.shape[1:] or c.shape != b.shape[:1]:
            raise ConfigurationError(
                f"quadratic stack needs A (n, d, d), b (n, d), c (n,), got {A.shape}, "
                f"{b.shape}, {c.shape}"
            )
        AT = A.transpose(0, 2, 1)
        if np.max(np.abs(A - AT)) > 1e-12:
            raise ConfigurationError("quadratic matrix must be symmetric within 1e-12")
        self.A = 0.5 * (A + AT)
        self.b = b
        self.c = c
        self.n = A.shape[0]
        self.row_elements = A.shape[1]

    def value_many(self, X: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return (
            0.5 * np.einsum("...ij,...ij->...i", X, X @ self.A[agents])
            + (X @ self.b[agents, :, None])[..., 0]
            + self.c[agents, None]
        )

    def gradient(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        return self.A[agents] @ x + self.b[agents]

    def hessian(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        return self.A[agents]


class LogisticObjective:
    """Agent i's mean log-loss over its signed augmented samples plus a ridge term.

    U (n, N, d) stacks each agent's rows l_k [s_k^T 1].  Agent i owns its
    first `counts[i]` rows (all N by default); the rows after them are zero
    padding, which neither enters nor counts toward its mean, so an agent
    without samples has the pure ridge cost (w/2) ||x||^2.
    """

    def __init__(self, U: np.ndarray, w: float, counts=None):
        U = np.asarray(U, dtype=float)
        if U.ndim != 3:
            raise ConfigurationError("logistic sample stack must be 3-d (agents, rows, d)")
        require(POS_NUM, w=w)
        n, rows, d = U.shape
        counts = np.full(n, rows) if counts is None else counts
        integral = KINDS[INTS](counts)
        counts = np.asarray(counts)
        if not integral or counts.shape != (n,) or np.any(counts < 0) or np.any(counts > rows):
            raise ConfigurationError(f"logistic sample counts must be {n} integers in [0, {rows}]")
        counts = counts.astype(np.int64)
        self.U = U
        self.w = float(w)
        self.counts = counts
        self.n = n
        self.row_elements = max(d, rows)
        self._divisor = np.maximum(counts, 1).astype(float)[:, None]
        padded = np.arange(rows) >= counts[:, None]
        self._keep = (~padded).astype(float)[..., None] if padded.any() else None

    def value_many(self, X: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        ridge = 0.5 * self.w * np.einsum("...ij,...ij->...i", X, X)
        z = self.U[agents] @ np.swapaxes(X, -1, -2)  # margins (..., m, N, k)
        # log(1 + exp(-z)) = log1p(exp(-|z|)) - min(z, 0): exp never overflows,
        # and numpy's exp and log1p run as SIMD loops where logaddexp calls
        # the scalar libm per element
        loss = np.abs(z)
        np.negative(loss, out=loss)
        np.exp(loss, out=loss)
        np.log1p(loss, out=loss)
        loss -= np.minimum(z, 0.0, out=z)
        if self._keep is not None:
            loss *= self._keep[agents]
        return loss.sum(axis=-2) / self._divisor[agents] + ridge

    def gradient(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        U = self.U[agents]
        s = _sigmoid(-(U @ x))  # = 1 - sigma(z)
        return -(s[:, None, :] @ U)[:, 0, :] / self._divisor[agents] + self.w * x

    def hessian(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        U = self.U[agents]
        s = _sigmoid(U @ x)
        r = s * (1.0 - s)
        curvature = (U.transpose(0, 2, 1) * r[:, None, :]) @ U
        return curvature / self._divisor[agents, :, None] + self.w * np.eye(x.shape[0])


class QuarticObjective:
    """Agent i's separable tilted quartic sum_k (q x_k^4/4 + a x_k^2/2 + b_ik x_k),
    with shared q and a and the tilts stacked as b (n, d)."""

    def __init__(self, q: float, a: float, b: np.ndarray):
        require(NONNEG, q=q)
        require(POS_NUM, a=a)
        b = np.asarray(b, dtype=float)
        if b.ndim != 2:
            raise ConfigurationError(f"quartic tilts must be stacked (n, d), got {b.shape}")
        self.q = float(q)
        self.a = float(a)
        self.b = b
        self.n, self.row_elements = b.shape

    def value_many(self, X: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        X2 = X * X
        return (0.25 * self.q * X2 * X2 + 0.5 * self.a * X2 + X * self.b[agents, None, :]).sum(
            axis=-1
        )

    def gradient(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        return self.q * x**3 + self.a * x + self.b[agents]

    def hessian(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        diag = np.diag(3.0 * self.q * x * x + self.a)
        return np.broadcast_to(diag, self.b[agents].shape[:1] + diag.shape)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class ProblemInstance:
    """A shared optimization problem: the agents' costs as one stacked family
    (a QuadraticObjective, LogisticObjective or QuarticObjective, or any
    object with the same `n`, `row_elements` and `value_many`) plus the
    centralized ground truth (x*, f*, constants) only the experimenter sees."""

    family: object
    d: int
    x_star: np.ndarray
    f_star: float
    constants: SmoothnessConstants
    name: str = ""

    @property
    def n(self) -> int:
        return self.family.n

    def black_boxes(self, replicas: int | None = None) -> BlackBoxObjective:
        """One zero-count query counter around all agents' costs, counting per
        agent, or per (replica, agent) for `replicas` copies (a new one per run)."""
        return BlackBoxObjective(
            self.family.value_many,
            self.d,
            agents=self.n,
            replicas=replicas,
            row_elements=self.family.row_elements,
            name=self.name,
        )

    # Averaged-cost diagnostics; none of these touch the query counters.
    # Agents are evaluated in the oracle's blocks, so temporaries stay bounded.
    def global_value_many(self, X: np.ndarray) -> np.ndarray:
        """Averaged cost (..., k) at the points X:(..., k, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))[..., None, :, :]  # shared by the agents
        values = np.empty(X.shape[:-3] + (self.n, X.shape[-2]))
        for block in agent_blocks(self.n, values.size // self.n * self.family.row_elements):
            values[..., block, :] = self.family.value_many(X, block)
        # a running sum adds the agents in order; values.sum(axis=-2) would
        # switch to pairwise summation for a single point and move f(x*)
        return values.cumsum(axis=-2)[..., -1, :] / self.n

    def global_value(self, x: np.ndarray) -> float:
        return float(self.global_value_many(np.asarray(x, dtype=float)[None, :])[0])

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self._agent_sum(self.family.gradient, x) / self.n

    def global_hessian(self, x: np.ndarray) -> np.ndarray:
        return self._agent_sum(self.family.hessian, x) / self.n

    def _agent_sum(self, method, x: np.ndarray) -> np.ndarray:
        """Sum over the agents of method(x, block), one agent block at a time."""
        x = np.asarray(x, dtype=float)
        blocks = agent_blocks(self.n, self.d * self.family.row_elements)
        return sum(method(x, block).sum(axis=0) for block in blocks)

    def global_black_box(self) -> BlackBoxObjective:
        """Fresh one-agent query counter around the averaged cost (diagnostics only)."""
        return BlackBoxObjective(
            lambda X, block: self.global_value_many(X[0])[None], self.d, name=self.name + ":global"
        )


def _instance(
    family, d: int, x_star: np.ndarray, constants: SmoothnessConstants, name: str
) -> ProblemInstance:
    """Build the instance, set f(x*) and check that x*, f(x*) and the
    constants are finite and that x* zeroes the gradient."""
    instance = ProblemInstance(family, d, x_star, 0.0, constants, name)
    instance.f_star = instance.global_value(x_star)
    if not np.isfinite([*x_star, instance.f_star, *vars(constants).values()]).all():
        raise InstanceConstructionError(
            f"{name}: non-finite ground truth: x* = {x_star.tolist()}, f* = {instance.f_star}, "
            f"{constants}"
        )
    grad_norm = float(np.linalg.norm(instance.global_gradient(x_star)))
    if not grad_norm <= _GRAD_TOL:
        raise InstanceConstructionError(
            f"{name}: ||grad f(x_star)|| = {grad_norm:.3e} exceeds {_GRAD_TOL}"
        )
    return instance


def shard_round_robin(count: int, n: int) -> list:
    """Deterministic row partition: row k goes to shard k mod n."""
    return [np.arange(i, count, n) for i in range(n)]


def standardize_features(features: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per column, computed over all rows; constant
    columns are left centered but unscaled."""
    features = np.asarray(features, dtype=float)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return (features - mean) / std


def ridge_instance_from_shards(
    features: np.ndarray,
    targets: np.ndarray,
    n: int,
    lam: float,
    standardize: bool = False,
    name: str = "ridge",
) -> ProblemInstance:
    """Partition a regression dataset round-robin over n agents.

    Each agent owns the regularized least-squares cost of its shard; the
    exact minimizer of the averaged cost comes from the normal equations.
    """
    require(POS_INT, n=n)
    require(POS_NUM, lam=lam)
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).ravel()
    if features.ndim != 2 or features.shape[0] != targets.shape[0]:
        raise ConfigurationError(
            f"feature matrix {features.shape} does not match {targets.shape[0]} targets"
        )
    require(POS_INT, d=features.shape[1])
    if features.shape[0] < n:
        raise ConfigurationError(
            f"need at least one row per agent: {features.shape[0]} rows, {n} agents"
        )
    if standardize:
        features = standardize_features(features)
    d = features.shape[1]

    A, b, c = np.empty((n, d, d)), np.empty((n, d)), np.empty(n)
    for i, idx in enumerate(shard_round_robin(features.shape[0], n)):
        S, t = features[idx], targets[idx]
        count = len(idx)
        A[i] = 2.0 * S.T @ S / count + lam * np.eye(d)
        b[i] = -2.0 * S.T @ t / count
        c[i] = t @ t / count
    family = QuadraticObjective(A, b, c)

    A_bar = family.A.sum(axis=0) / n
    x_star = np.linalg.solve(A_bar, -family.b.sum(axis=0) / n)
    eigs = np.linalg.eigvalsh(A_bar)
    constants = SmoothnessConstants(m=float(eigs[0]), L1=float(eigs[-1]), L2=0.0, L3=0.0)
    return _instance(family, d, x_star, constants, name)


def _logistic_constants(family: LogisticObjective, d: int) -> SmoothnessConstants:
    """Constants of the averaged log-loss, accumulated agent by agent."""
    gram = np.zeros((d, d))
    s3 = 0.0
    s4 = 0.0
    for U, count in zip(family.U, family.counts):
        if count == 0:
            continue
        U = U[:count]
        wt = 1.0 / (family.n * count)
        gram += wt * U.T @ U
        norms = np.linalg.norm(U, axis=1)
        s3 += wt * float(np.sum(norms**3))
        s4 += wt * float(np.sum(norms**4))
    w = family.w
    L1 = w + _SIG2 * float(np.linalg.eigvalsh(gram)[-1]) if gram.any() else w
    return SmoothnessConstants(m=w, L1=L1, L2=_SIG3 * s3, L3=_SIG4 * s4)


def _damped_newton(value, gradient, hessian, x0):
    """Backtracking Newton with Armijo constant 1e-4 and halving steps.

    The sufficient-decrease test carries a machine-noise allowance so the
    final full steps are not rejected once the true decrease falls below
    the float resolution of the value.
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(500):
        g = gradient(x)
        if np.linalg.norm(g) <= _GRAD_TOL:
            return x
        step = np.linalg.solve(hessian(x), g)
        fx = value(x)
        slope = float(g @ step)
        noise = 1e-14 * (1.0 + abs(fx))
        t = 1.0
        for _ in range(60):
            if value(x - t * step) <= fx - 1e-4 * t * slope + noise:
                break
            t *= 0.5
        else:
            raise InstanceConstructionError("newton line search stalled")
        x = x - t * step
    if np.linalg.norm(gradient(x)) <= _GRAD_TOL:
        return x
    raise InstanceConstructionError(
        f"newton failed to reach gradient norm {_GRAD_TOL} in 500 iterations"
    )


def logistic_instance(
    samples: np.ndarray,
    labels: np.ndarray,
    n: int,
    w: float,
    standardize: bool = False,
    name: str = "logistic",
) -> ProblemInstance:
    """Round-robin sharded regularized logistic regression.

    The optimization variable is [weights; intercept], so its dimension is
    one more than the sample dimension.  The minimizer of the averaged
    cost is found by damped Newton on the analytic loss.
    """
    require(POS_INT, n=n)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1 and samples.size == 0:
        samples = samples.reshape(0, 0)
    if samples.ndim != 2:
        raise ConfigurationError("samples must be a 2-d array")
    labels = np.asarray(labels, dtype=float).ravel()
    count = labels.shape[0]
    if samples.shape[0] != count:
        raise ConfigurationError(
            f"sample matrix {samples.shape} does not match {count} labels"
        )
    if count and not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ConfigurationError("labels must be -1 or +1")
    if count and standardize:
        samples = standardize_features(samples)

    # shard by shard into the zero-padded stack, so the samples are not copied twice
    d = samples.shape[1] + 1
    shards = shard_round_robin(count, n)
    counts = np.array([len(idx) for idx in shards])
    U = np.zeros((n, int(counts.max()), d))
    for i, idx in enumerate(shards):
        rows = U[i, : len(idx)]
        np.multiply(samples[idx], labels[idx, None], out=rows[:, :-1])
        rows[:, -1] = labels[idx]
    family = LogisticObjective(U, w, counts)
    constants = _logistic_constants(family, d)

    # the averaged cost's value, gradient and Hessian, before x* is known
    averaged = ProblemInstance(family, d, np.zeros(d), 0.0, constants, name)
    x_star = _damped_newton(
        averaged.global_value, averaged.global_gradient, averaged.global_hessian, np.zeros(d)
    )
    return _instance(family, d, x_star, constants, name)


def synthetic_classification(
    d: int,
    per_agent: int,
    n: int,
    seed: int,
    w: float = 0.1,
    separation: float = 2.0,
    scale_spread: float = 1.0,
    standardize: bool = False,
) -> ProblemInstance:
    """Two seeded Gaussian clusters, balanced labels on every agent.

    Stands in for a real pre-reduced classification dataset: samples live
    in R^(d-1) so the logistic variable (with intercept) has dimension d.
    `scale_spread` > 1 gives the sample coordinates geometrically decaying
    scales, like the component variances of spectrally reduced data.
    """
    require(POS_INT, d=d, per_agent=per_agent, n=n)
    require(NUM, separation=separation)
    if d < 2:
        raise ConfigurationError(f"synthetic classification needs d >= 2, got {d}")
    rng = Xoshiro256(seed)
    dim = d - 1
    scales = _column_scales(dim, scale_spread)
    center = separation / 2.0 * np.full(dim, 1.0 / math.sqrt(dim)) * scales
    # the first half of each agent's rows (rounded up) carries label +1
    label = np.where(np.arange(per_agent) < (per_agent + 1) // 2, 1.0, -1.0)
    samples_by_agent = label[:, None] * center + rng.normals(n, per_agent, dim) * scales
    # Interleave so that round-robin sharding hands agent i exactly its
    # own generated block: flat row j*n + i belongs to agent i.
    samples = samples_by_agent.transpose(1, 0, 2).reshape(n * per_agent, dim)
    labels = np.repeat(label, n)
    return logistic_instance(
        samples, labels, n, w, standardize=standardize, name="synthetic-logistic"
    )


def ridge_synthetic(
    d: int,
    per_agent: int,
    n: int,
    seed: int,
    lam: float = 0.1,
    noise: float = 0.1,
    scale_spread: float = 10.0,
    standardize: bool = False,
) -> ProblemInstance:
    """Seeded linear-regression data for a ridge suite.

    Feature columns carry geometrically spread scales (total ratio
    `scale_spread`), mimicking the heterogeneous units of real regression
    data; with `scale_spread` = 1 the features are isotropic.
    """
    require(POS_INT, d=d, per_agent=per_agent, n=n)
    require(NUM, noise=noise)
    rng = Xoshiro256(seed)
    count = n * per_agent
    theta = rng.normals(d)
    features = rng.normals(count, d) * _column_scales(d, scale_spread)
    targets = features @ theta + noise * rng.normals(count)
    return ridge_instance_from_shards(
        features, targets, n, lam, standardize=standardize, name="synthetic-ridge"
    )


def _column_scales(d: int, spread: float) -> np.ndarray:
    require(POS_NUM, scale_spread=spread)
    if d == 1 or spread == 1.0:
        return np.ones(d)
    return spread ** (np.arange(d) / (d - 1) - 0.5)


def quartic_instance(
    n: int,
    d: int = 1,
    quartic: float = 1.0,
    quad: float = 1.0,
    b_mean: float = -1.0,
    b_spread: float = 0.5,
    box: float = 1.5,
) -> ProblemInstance:
    """Separable tilted quartics with closed-form constants on |x_k| <= box.

    Agents share the quartic and quadratic coefficients; the linear tilts
    are spread deterministically around `b_mean` with zero total offset.
    The declared constants (L1, L2 in particular) are only honest while
    iterates stay inside the box, so callers should start runs well inside
    it.
    """
    require(POS_INT, n=n, d=d)
    require(NONNEG, quartic=quartic)
    require(POS_NUM, quad=quad, box=box)
    require(NUM, b_mean=b_mean, b_spread=b_spread)
    zeta = np.zeros(1) if n == 1 else 2.0 * np.arange(n) / (n - 1) - 1.0
    family = QuarticObjective(quartic, quad, np.repeat((b_mean + b_spread * zeta)[:, None], d, 1))
    b_bar = family.b.sum(axis=0) / n

    def cubic_root(bk: float) -> float:
        x = 0.0
        for _ in range(200):
            g = quartic * x**3 + quad * x + bk
            if abs(g) <= 1e-14:
                return x
            x -= g / (3.0 * quartic * x * x + quad)
        raise InstanceConstructionError("cubic root solve failed")

    x_star = np.array([cubic_root(float(bk)) for bk in b_bar])
    if np.max(np.abs(x_star)) > box:
        raise ConfigurationError("quartic minimizer falls outside the declared box")
    constants = SmoothnessConstants(
        m=quad,
        L1=3.0 * quartic * box * box + quad,
        L2=6.0 * quartic * box,
        L3=6.0 * quartic,
    )
    return _instance(family, d, x_star, constants, "quartic")


def separable_quadratic_instance(
    n: int,
    d: int,
    seed: int,
    curvature_range: tuple = (0.5, 4.0),
    b_scale: float = 1.0,
) -> ProblemInstance:
    """Random diagonal quadratics: f_i = 0.5 x^T diag(a_i) x + b_i^T x."""
    require(POS_INT, n=n, d=d)
    require(PAIR, curvature_range=curvature_range)
    require(NUM, b_scale=b_scale)
    lo, hi = curvature_range
    if not 0.0 < lo <= hi:
        raise ConfigurationError(f"invalid curvature range {curvature_range}")
    rng = Xoshiro256(seed)
    a, b = np.empty((n, d)), np.empty((n, d))
    for i in range(n):  # the draw order fixes the instance: curvatures, then tilts, per agent
        a[i] = lo + (hi - lo) * rng.uniforms(d)
        b[i] = b_scale * rng.normals(d)
    A = np.zeros((n, d, d))
    A[:, np.arange(d), np.arange(d)] = a
    family = QuadraticObjective(A, b)
    a_bar = a.sum(axis=0) / n
    b_bar = b.sum(axis=0) / n
    x_star = -b_bar / a_bar
    constants = SmoothnessConstants(
        m=float(a_bar.min()), L1=float(a_bar.max()), L2=0.0, L3=0.0
    )
    return _instance(family, d, x_star, constants, "separable-quadratic")


def load_csv(path: str, has_header: bool = False) -> tuple:
    """Read a numeric CSV; the last column is the target or label.

    Raises a configuration error naming the path for a file that cannot be
    opened or is not UTF-8, and for files with no data rows, and naming the
    offending row for ragged, non-numeric or non-finite (nan, inf) content.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read data {path}: {exc}") from exc
    start = 1 if has_header else 0
    data_rows = [(i + 1, row) for i, row in enumerate(rows) if i >= start and row]
    if not data_rows:
        raise ConfigurationError(f"{path}: no data rows")
    width = len(data_rows[0][1])
    if width < 2:
        raise ConfigurationError(f"{path}: need at least two columns, got {width}")
    values = []
    for line_no, row in data_rows:
        if len(row) != width:
            raise ConfigurationError(
                f"{path}: row {line_no} has {len(row)} fields, expected {width}"
            )
        try:
            values.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ConfigurationError(f"{path}: row {line_no}: {exc}") from exc
        if not all(map(math.isfinite, values[-1])):
            raise ConfigurationError(f"{path}: row {line_no}: non-finite value in {row}")
    table = np.array(values)
    return table[:, :-1], table[:, -1]


def _ridge_csv(n: int, path: str, lam=0.1, has_header=False, standardize=True) -> ProblemInstance:
    """Ridge regression on a CSV file whose last column is the target."""
    features, targets = load_csv(path, has_header)
    return ridge_instance_from_shards(features, targets, n, lam, standardize)


def _logistic_csv(n: int, path: str, w=0.1, has_header=False, standardize=True) -> ProblemInstance:
    """Logistic regression on a CSV file whose last column is the +-1 label."""
    samples, labels = load_csv(path, has_header)
    return logistic_instance(samples, labels, n, w, standardize)


#: family -> (builder taking the agent count n and the parameters, required
#: parameter kinds, optional parameter kinds); the config key `lambda` reaches
#: its builder as `lam`.  The public builders are looked up by their module
#: names at call time, so that a wrapper installed under such a name is called.
FAMILIES = {
    "separable_quadratic": (lambda **kw: separable_quadratic_instance(**kw),
                            {"d": POS_INT, "seed": INT}, {"curvature_range": PAIR, "b_scale": NUM}),
    "ridge_synthetic": (lambda **kw: ridge_synthetic(**kw),
                        {"d": POS_INT, "per_agent": POS_INT, "seed": INT},
                        {"lambda": POS_NUM, "noise": NUM, "scale_spread": POS_NUM,
                         "standardize": BOOL}),
    "synthetic_classification": (lambda **kw: synthetic_classification(**kw),
                                 {"d": POS_INT, "per_agent": POS_INT, "seed": INT},
                                 {"w": POS_NUM, "separation": NUM, "scale_spread": POS_NUM,
                                  "standardize": BOOL}),
    "ridge_csv": (_ridge_csv, {"path": PATH},
                  {"lambda": POS_NUM, "has_header": BOOL, "standardize": BOOL}),
    "logistic_csv": (_logistic_csv, {"path": PATH},
                     {"w": POS_NUM, "has_header": BOOL, "standardize": BOOL}),
    "quartic": (lambda **kw: quartic_instance(**kw), {},
                {"d": POS_INT, "quartic": NONNEG, "quad": POS_NUM, "b_mean": NUM, "b_spread": NUM,
                 "box": POS_NUM}),
}
