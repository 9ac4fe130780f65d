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
evaluates all agents in one call.  :data:`FAMILIES`, every family a config
can name, is derived from the builders' signatures and :data:`PARAM_KINDS`.

Each family stacks its agents' parameters along a leading agent axis.
`value_many(X, agents)` returns the values (..., m, k) of the m agents in
the slice `agents`, each at its own points X:(..., m, k, d), or all at
shared points when that axis has length 1, holding `row_elements` elements
at once per evaluated row; each (k, d) slab of a leading replica axis goes
through the arithmetic of a separate call.  A family whose `takes_step` is
true also takes the estimators' probes by their centers: one call
`value_many(x, slice(None), step, k)` covers every agent's center,
x:(..., n, d), at the step mu (or an (R, 1, 1) column of each replica's),
and returns the values (..., n, k) at the first k probes x + mu e_0, x - mu
e_0, ..., x - mu e_{d-1}, x, with no probe point built.  The logistic family
does so from d = 24 on and the quadratic from d = 8 on, each d the measured
crossover of its own cost; the logistic blocks its margins under the
oracle's budget, the quadratic holds its call's (..., n, d) temporaries.
Every family is silent at overflow and at an infinite coordinate: it returns
inf or nan without a warning, and the query counter names the agent, the
probe and the point of the failure.
`gradient(x, agents)` and `hessian(x, agents)` give the derivative at x summed
over the slice's agents, for the experimenter's ground truth; each takes the
whole slice at once, with no agent loop and no oracle block.

Loss conventions, fixed once and used by all oracles and tests:

    ridge     f_i(x) = (1/N_i) sum_k (s_k^T x - t_k)^2 + (lam/2) ||x||^2
    logistic  f_i(x) = (1/N_i) sum_k log(1 + exp(-l_k [s_k^T 1] x)) + (w/2) ||x||^2
    quartic   f_i(x) = sum_k ( q x_k^4 / 4 + a x_k^2 / 2 + b_ik x_k )

Each log-loss term is evaluated at its margin z = l_k [s_k^T 1] x as
max(-z, 0) + log1p(exp(-|z|)), which never overflows.
"""

from __future__ import annotations

import csv
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BOOL, INT, INTS, KINDS, NONNEG, NUM, PAIR, PATH, POS_INT, POS_NUM, ConfigurationError,
    InstanceConstructionError, check_entry,
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

#: Smallest d at which the logistic family evaluates coordinate probes from
#: their centers; below it the dense product of points and samples is faster
#: (a round at N = 25 took 0.96-1.01x at d = 20 and 0.88-0.91x at d = 24 with
#: 5 replicas, 0.90-0.91x and 0.82-0.85x with one; README, Batched evaluation).
#: Measured in-process at N = 25 only; no benchmark workload has d in [24, 30).
_LOGISTIC_STEP_MIN_D = 24

#: Smallest d at which the quadratic family evaluates coordinate probes from
#: their centers; below it the product of points and A is cheaper than the
#: centers' dozen calls (a round took 0.93x at d = 6 and 0.84x at d = 8 with
#: 5 replicas of 6 agents, 1.21x and 1.18x with one of 5; README, Batched
#: evaluation).  The desk checks' quadratics, d <= 4, stay on points.
_QUADRATIC_STEP_MIN_D = 8

#: builder parameter -> kind; a builder checks a parameter before its first use
PARAM_KINDS = dict(
    n=POS_INT, d=POS_INT, per_agent=POS_INT, seed=INT, path=PATH, lam=POS_NUM, w=POS_NUM,
    noise=NUM, separation=NUM, scale_spread=POS_NUM, standardize=BOOL, has_header=BOOL,
    curvature_range=PAIR, b_scale=NUM, quartic=NONNEG, quad=POS_NUM, b_mean=NUM, b_spread=NUM,
    box=POS_NUM)


def _check(**params) -> None:
    """Raise a ConfigurationError naming the first of `params` not of its PARAM_KINDS kind."""
    check_entry(params, {name: PARAM_KINDS[name] for name in params}, "")


def _check_finite(name: str, array: np.ndarray) -> None:
    """Raise a ConfigurationError naming `array` and its first row holding a nan
    or inf.  The rows of an array of three axes are its (i, j, :) slices,
    numbered i * shape[1] + j."""
    finite = np.isfinite(array)
    if not finite.all():
        first = tuple(np.argwhere(~finite)[0, : max(1, array.ndim - 1)])
        row = int(np.ravel_multi_index(first, array.shape[: len(first)]))
        raise ConfigurationError(f"{name}[{row}] is not finite: {array[first].tolist()}")


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
        self.takes_step = A.shape[1] >= _QUADRATIC_STEP_MIN_D
        self._diagonal = np.diagonal(self.A, axis1=1, axis2=2).copy()

    def value_many(self, X: np.ndarray, agents: slice = slice(None), step=None,
                   k: int = 0) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # the counter judges a non-finite value
            if step is not None:
                return self._coordinate_values(X, step, k)
            return (
                0.5 * np.einsum("...ij,...ij->...i", X, X @ self.A[agents])
                + (X @ self.b[agents, :, None])[..., 0]
                + self.c[agents, None]
            )

    def _coordinate_values(self, x: np.ndarray, mu, k: int) -> np.ndarray:
        """Values (..., n, k) at the first k coordinate probes of every agent's
        center, x:(..., n, d), from one product Ax per agent: with g = Ax + b,
        2 f(x +- mu e_j) = 2 f(x) + mu^2 A_jj +- 2 mu g_j.  The values are
        summed doubled and halved last, as the points' quadratic form is, so
        a probe goes to inf or nan where its point does."""
        d = x.shape[-1]
        out = np.empty(x.shape[:-1] + (k,))
        g = (x[..., None, :] @ self.A)[..., 0, :]  # x^T A = (Ax)^T, A symmetric
        g += self.b
        center = np.einsum("...i,...i->...", x, g + self.b) + 2.0 * self.c
        curved = (mu * mu) * self._diagonal + center[..., None]
        g *= 2.0 * mu
        np.add(curved, g, out=out[..., 0:2 * d:2])
        np.subtract(curved, g, out=out[..., 1:2 * d:2])
        out[..., 2 * d:] = center[..., None]
        out *= 0.5
        return out

    def gradient(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        return _in_order_sum(self.A[agents] @ x + self.b[agents])

    def hessian(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        return _in_order_sum(self.A[agents])


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
        _check(w=w)
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
        self.row_elements = max(d, 2 * rows)  # the margins and their losses
        self.takes_step = d >= _LOGISTIC_STEP_MIN_D
        self._divisor = np.maximum(counts, 1).astype(float)[:, None]
        padded = np.arange(rows) >= counts[:, None]
        self._padded = padded[..., None] if padded.any() else None
        self._weights = np.where(padded, 0.0, 1.0 / self._divisor)[:, None, :]  # (n, 1, N)

    def value_many(self, X: np.ndarray, agents: slice = slice(None), step=None,
                   k: int = 0) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # the counter judges a non-finite value
            if step is not None:
                return self._coordinate_values(X, step, k)
            ridge = 0.5 * self.w * np.einsum("...ij,...ij->...i", X, X)
            z = self.U[agents] @ np.swapaxes(X, -1, -2)  # margins (..., m, N, k)
        return self._mean_loss(z, agents) + ridge

    def _mean_loss(self, z: np.ndarray, agents: slice) -> np.ndarray:
        """Each agent's mean log-loss (..., m, k) over its own rows of the
        margins z:(..., m, N, k), which it overwrites."""
        # log(1 + exp(-z)) = log1p(exp(-|z|)) - min(z, 0): exp never overflows,
        # and numpy's exp and log1p run as SIMD loops where logaddexp calls
        # the scalar libm per element
        loss = np.abs(z)
        np.negative(loss, out=loss)
        np.exp(loss, out=loss)
        np.log1p(loss, out=loss)
        loss -= np.minimum(z, 0.0, out=z)
        # at an inf x a padding margin is 0 * inf = nan, which a zero weight keeps
        if self._padded is not None:  # a broadcast multiply would buffer up to 52 KB
            np.copyto(loss, 0.0, where=self._padded[agents])
        return (self._weights[agents] @ loss)[..., 0, :]

    def _coordinate_values(self, x: np.ndarray, step, k: int) -> np.ndarray:
        """Values (..., n, k) at the first k coordinate probes of every agent's
        center, x:(..., n, d), from the center margins: U (x +- mu e_j) = Ux +- mu U[:, j]
        and ||x +- mu e_j||^2 = ||x||^2 + mu^2 +- 2 mu x_j, or inf with ||x||^2
        as on points, where an infinite x_j makes the sum inf - inf.  The center
        margins and the ridge terms, which become the output, are taken for all
        agents at once; the margins and their losses go in agent blocks, each
        with one product mu U."""
        mu = np.asarray(step, dtype=float)
        rows, d = self.U.shape[1:]
        center = self.U @ x[..., None]  # (..., n, N, 1)
        squares = np.einsum("...i,...i->...", x, x)[..., None]
        out = np.empty(x.shape[:-1] + (k,))
        np.multiply(x, 2.0 * mu, out=out[..., 0:2 * d:2])
        np.multiply(x, -2.0 * mu, out=out[..., 1:2 * d:2])
        out[..., :2 * d] += squares + mu * mu
        out[..., 2 * d:] = squares
        np.copyto(out, squares, where=np.isinf(squares))
        out *= 0.5 * self.w
        # a block holds its margins, their losses and mu U, N d per agent
        per_agent = out.size // self.n * (self.row_elements + -(-rows * d // k))
        for block in agent_blocks(self.n, per_agent):
            c = center[..., block, :, :]
            step_margins = self.U[block] * mu[..., None]
            z = np.empty(c.shape[:-1] + (k,))
            np.add(c, step_margins, out=z[..., 0:2 * d:2])
            np.subtract(c, step_margins, out=z[..., 1:2 * d:2])
            z[..., 2 * d:] = c
            ridge = out[..., block, :]
            np.add(self._mean_loss(z, block), ridge, out=ridge)
        return out

    def gradient(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        rows, wt, ridge = self._rows(agents)
        s = _sigmoid(-(rows @ x))  # = 1 - sigma(z)
        return -(wt * s) @ rows + ridge * x

    def hessian(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        rows, wt, ridge = self._rows(agents)
        s = _sigmoid(rows @ x)
        return _weighted_gram(rows, wt * s * (1.0 - s)) + ridge * np.eye(x.shape[0])

    def _rows(self, agents: slice):
        """The slice's rows (m N, d), each row's weight in its agent's mean
        (0 on padding) and the slice's ridge coefficient m w."""
        U = self.U[agents]
        return U.reshape(-1, U.shape[2]), self._weights[agents].reshape(-1), len(U) * self.w


class QuarticObjective:
    """Agent i's separable tilted quartic sum_k (q x_k^4/4 + a x_k^2/2 + b_ik x_k),
    with shared q and a and the tilts stacked as b (n, d)."""

    def __init__(self, q: float, a: float, b: np.ndarray):
        check_entry({"q": q, "a": a}, {"q": PARAM_KINDS["quartic"], "a": PARAM_KINDS["quad"]}, "")
        b = np.asarray(b, dtype=float)
        if b.ndim != 2:
            raise ConfigurationError(f"quartic tilts must be stacked (n, d), got {b.shape}")
        self.q = float(q)
        self.a = float(a)
        self.b = b
        self.n, self.row_elements = b.shape[0], 4 * b.shape[1]  # X2 and three terms at once

    def value_many(self, X: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # the counter judges a non-finite value
            X2 = X * X
            terms = 0.25 * self.q * X2 * X2 + 0.5 * self.a * X2 + X * self.b[agents, None, :]
            return terms.sum(axis=-1)

    def gradient(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        return _in_order_sum(self.q * x**3 + self.a * x + self.b[agents])

    def hessian(self, x: np.ndarray, agents: slice = slice(None)) -> np.ndarray:
        diag = np.broadcast_to(3.0 * self.q * x * x + self.a, self.b[agents].shape)
        return np.diag(_in_order_sum(diag))


def _weighted_gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows^T diag(weights) rows, summed over fixed chunks of rows, so that a
    chunk's weighted copy stays within 2^14 elements, glibc's 128 KiB mmap
    threshold: a weighted copy of all rows stayed resident on the heap after
    set-up and raised the peak RSS of the runs that followed."""
    chunk = max(1, 2**14 // rows.shape[1])
    gram = np.zeros((rows.shape[1],) * 2)
    for lo in range(0, len(rows), chunk):
        part = rows[lo:lo + chunk]
        gram += part.T @ (part * weights[lo:lo + chunk, None])
    return gram


def _in_order_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading agent axis, adding the agents in order: sum(axis=0)
    switches to pairwise summation when each agent's term is one number."""
    return terms.cumsum(axis=0)[-1]


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
    (a QuadraticObjective, LogisticObjective or QuarticObjective, or any object
    with the same `n`, `value_many` and `row_elements`, what a call on points
    holds per row, and optionally `takes_step`) plus the centralized ground
    truth (x*, f*, constants) only the experimenter sees.  Only the
    estimators' calls through `black_boxes` may reach a family from the
    centers, one call for every agent; the averaged-cost diagnostics below
    always hand it points.  A family returns a non-finite value silently, and
    the counter names the agent, the probe and the point."""

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
            takes_step=getattr(self.family, "takes_step", False),
            name=self.name,
        )

    # Averaged-cost diagnostics; none touch the query counters.  Values go in the
    # oracle's blocks and add up in order, so no block boundary moves a sum; the
    # derivatives take no blocks.
    def global_value_many(self, X: np.ndarray) -> np.ndarray:
        """Averaged cost (..., k) at the points X:(..., k, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))[..., None, :, :]  # shared by the agents
        values = np.empty(X.shape[:-3] + (self.n, X.shape[-2]))
        for block in agent_blocks(self.n, values.size // self.n * self.family.row_elements):
            values[..., block, :] = self.family.value_many(X, block)
        # a running sum adds the agents in order; values.sum(axis=-2) would
        # switch to pairwise summation for a single point and move f(x*).
        # Finite values that sum past the float range give inf, without a warning
        with np.errstate(over="ignore"):
            return values.cumsum(axis=-2)[..., -1, :] / self.n

    def global_value(self, x: np.ndarray) -> float:
        return float(self.global_value_many(np.asarray(x, dtype=float)[None, :])[0])

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.family.gradient(np.asarray(x, dtype=float)) / self.n

    def global_hessian(self, x: np.ndarray) -> np.ndarray:
        return self.family.hessian(np.asarray(x, dtype=float)) / self.n

    def global_black_box(self, points: int = 1) -> BlackBoxObjective:
        """Fresh query counter around the averaged cost at `points` points, each
        probed as one agent (diagnostics only)."""
        return BlackBoxObjective(lambda X, block: self.global_value_many(X), self.d,
                                 agents=points, name=self.name + ":global")


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
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).ravel()
    if features.ndim != 2 or features.shape[0] != targets.shape[0]:
        raise ConfigurationError(
            f"feature matrix {features.shape} does not match {targets.shape[0]} targets"
        )
    _check(n=n, lam=lam, standardize=standardize, d=features.shape[1])
    if features.shape[0] < n:
        raise ConfigurationError(
            f"need at least one row per agent: {features.shape[0]} rows, {n} agents"
        )
    _check_finite("features", features)
    _check_finite("targets", targets)
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


def _logistic_constants(family: LogisticObjective, name: str = "logistic") -> SmoothnessConstants:
    """Constants of the averaged log-loss, taken over all rows at once.  Rows
    too large for their gram or their norms' powers overflow silently, and the
    constant that overflows fails here, before the eigensolver and Newton."""
    rows, wt, _ = family._rows(slice(None))
    wt = wt / family.n  # each row's weight in the averaged cost
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _weighted_gram(rows, wt)
        if not np.isfinite(gram).all():
            raise InstanceConstructionError(f"{name}: L1 is not finite: the rows' gram overflows")
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))  # no squared copy of U
        s3 = float(wt @ norms**3)
        s4 = float(wt @ norms**4)
    w = family.w
    L1 = w + _SIG2 * float(np.linalg.eigvalsh(gram)[-1]) if gram.any() else w
    constants = SmoothnessConstants(m=w, L1=L1, L2=_SIG3 * s3, L3=_SIG4 * s4)
    for key, value in vars(constants).items():
        if not math.isfinite(value):
            raise InstanceConstructionError(f"{name}: {key} is not finite: {value}")
    return constants


def _damped_newton(value, gradient, hessian, x0, name: str):
    """Backtracking Newton with Armijo constant 1e-4 and halving steps.

    The sufficient-decrease test carries a machine-noise allowance so the
    final full steps are not rejected once the true decrease falls below
    the float resolution of the value.  A failure names the instance, the
    iteration and the gradient norm there.
    """
    x = np.asarray(x0, dtype=float).copy()
    for iteration in range(501):
        g = gradient(x)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= _GRAD_TOL:
            return x
        if iteration == 500:
            failure = f"failed to reach gradient norm {_GRAD_TOL} in 500 iterations"
            break
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
            failure = f"line search stalled at iteration {iteration}"
            break
        x = x - t * step
    raise InstanceConstructionError(f"{name}: newton {failure}, ||grad f|| = {grad_norm:.3e}")


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
    _check(n=n, standardize=standardize)
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
    _check_finite("samples", samples)
    if count and standardize:
        samples = standardize_features(samples)

    # shard by shard into the zero-padded stack, so the samples are not copied twice
    shards = shard_round_robin(count, n)
    counts = np.array([len(idx) for idx in shards])
    U = np.zeros((n, int(counts.max()), samples.shape[1] + 1))
    for i, idx in enumerate(shards):
        rows = U[i, : len(idx)]
        np.multiply(samples[idx], labels[idx, None], out=rows[:, :-1])
        rows[:, -1] = labels[idx]
    return _logistic_from_stack(U, w, counts, name)


def _logistic_from_stack(U: np.ndarray, w: float, counts, name: str) -> ProblemInstance:
    """The instance of the family `LogisticObjective(U, w, counts)`: its
    constants, then x* by damped Newton on the analytic averaged cost."""
    family = LogisticObjective(U, w, counts)
    constants = _logistic_constants(family, name)
    d = U.shape[2]
    # the averaged cost's value, gradient and Hessian, before x* is known
    averaged = ProblemInstance(family, d, np.zeros(d), 0.0, constants, name)
    x_star = _damped_newton(
        averaged.global_value, averaged.global_gradient, averaged.global_hessian, np.zeros(d), name
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

    Agent i's k-th sample is label_k center + g * scales, with g the normals
    of its own block of the draw, and it is row k n + i of the samples that
    round-robin sharding would hand back to agent i.  The agent stack U is
    built in the array the normals are drawn into, so set-up holds one copy
    of it: the draw has n per_agent normals to spare, which nothing reads.
    """
    _check(d=d, per_agent=per_agent, n=n, separation=separation, scale_spread=scale_spread,
           standardize=standardize)
    if d < 2:
        raise ConfigurationError(f"synthetic classification needs d >= 2, got {d}")
    rng = Xoshiro256(seed)
    dim = d - 1
    # the first half of each agent's rows (rounded up) carries label +1
    label = np.where(np.arange(per_agent) < (per_agent + 1) // 2, 1.0, -1.0)[:, None]
    U = rng.normals(n, per_agent, d)
    packed = U.reshape(-1)[: n * per_agent * dim].reshape(n, per_agent, dim)
    # An agent's rows move to a later place than they were drawn at, past the
    # packed rows of the agents before it; numpy copies an overlapping source
    # first, so blocks of agents move, the last first, through a small buffer.
    agents = max(1, 2**14 // (per_agent * dim))
    for lo in reversed(range(0, n, agents)):
        U[lo:lo + agents, :, :-1] = packed[lo:lo + agents]
    samples = U[..., :-1]
    scales = _column_scales(dim, scale_spread)
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check names an overflow
        samples *= scales
        samples += label * (separation / 2.0 * np.full(dim, 1.0 / math.sqrt(dim)) * scales)
    sharded = samples.transpose(1, 0, 2)  # row k n + i is agent i's k-th
    _check_finite("samples", sharded)
    if standardize:  # over a copy in sharded order, so the sums add up as for any data
        sharded[...] = standardize_features(sharded.reshape(-1, dim)).reshape(sharded.shape)
    samples *= label
    U[..., -1:] = label
    return _logistic_from_stack(U, w, None, "synthetic-logistic")


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
    _check(d=d, per_agent=per_agent, n=n, noise=noise, scale_spread=scale_spread)
    rng = Xoshiro256(seed)
    count = n * per_agent
    theta = rng.normals(d)
    features = rng.normals(count, d)
    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks name an overflow
        features *= _column_scales(d, scale_spread)
        targets = features @ theta + noise * rng.normals(count)
    return ridge_instance_from_shards(
        features, targets, n, lam, standardize=standardize, name="synthetic-ridge"
    )


def _column_scales(d: int, spread: float) -> np.ndarray:
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
    _check(n=n, d=d, quartic=quartic, quad=quad, b_mean=b_mean, b_spread=b_spread, box=box)
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
    _check(n=n, d=d, curvature_range=curvature_range, b_scale=b_scale)
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
    _check(has_header=has_header)
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


#: builder parameter -> the config key that names it, where the two differ
#: (`lambda` is a Python keyword)
CONFIG_KEYS = {"lam": "lambda"}


def _family(builder) -> tuple:
    """The FAMILIES entry of `builder`: a parameter of its signature without a
    default is required, one with a default optional, and n is neither; a
    config key reaches it under its CONFIG_KEYS name.  The builder is looked
    up by name at call time, so that a wrapper installed under that name is
    called."""
    params = inspect.signature(builder).parameters
    names = {CONFIG_KEYS.get(name, name): name for name in params if name != "n"}
    kinds = ({}, {})  # (required, optional): config key -> kind
    for key, name in names.items():
        kinds[params[name].default is not params[name].empty][key] = PARAM_KINDS[name]
    return (lambda **config: globals()[builder.__name__](
        **{names.get(key, key): value for key, value in config.items()}), *kinds)


#: family -> (builder taking n and the config keys, required kinds, optional kinds)
FAMILIES = {family: _family(builder) for family, builder in {
    "separable_quadratic": separable_quadratic_instance, "ridge_synthetic": ridge_synthetic,
    "synthetic_classification": synthetic_classification, "ridge_csv": _ridge_csv,
    "logistic_csv": _logistic_csv, "quartic": quartic_instance,
}.items()}
