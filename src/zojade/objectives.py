"""Local cost functions, dataset plumbing, and centralized ground truth.

Three model families are provided: full quadratics (ridge regression),
regularized log-loss (binary classification), and separable tilted
quartics (a minimal smooth non-quadratic whose derivative constants are
known in closed form on a box).  Every builder returns a
:class:`ProblemInstance` holding one cost model per agent, the minimizer
of the averaged cost computed by an independent centralized solver, and
the smoothness constants of the averaged cost.  Runs query the agents only
through the fresh counters of :meth:`ProblemInstance.black_boxes`.

Loss conventions, fixed once and used by all oracles and tests:

    ridge     f_i(x) = (1/N_i) sum_k (s_k^T x - t_k)^2 + (lam/2) ||x||^2
    logistic  f_i(x) = (1/N_i) sum_k log(1 + exp(-l_k [s_k^T 1] x)) + (w/2) ||x||^2
    quartic   f_i(x) = sum_k ( q x_k^4 / 4 + a x_k^2 / 2 + b_ik x_k )
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InstanceConstructionError
from .oracle import BlackBoxObjective, SmoothnessConstants
from .rng import Xoshiro256

_GRAD_TOL = 1e-10  # required accuracy of every centralized x* solve

# Global bounds on the derivatives of t -> log(1 + exp(-t)); the second,
# third and fourth derivatives of the scalar logistic loss are bounded by
# 1/4, 1/(6 sqrt(3)) and 1/8 respectively.
_SIG2 = 0.25
_SIG3 = 1.0 / (6.0 * math.sqrt(3.0))
_SIG4 = 0.125


class QuadraticObjective:
    """f(x) = 0.5 x^T A x + b^T x + c with symmetric positive definite A."""

    def __init__(self, A: np.ndarray, b: np.ndarray, c: float = 0.0):
        A = np.asarray(A, dtype=float)
        if np.max(np.abs(A - A.T)) > 1e-12:
            raise ConfigurationError("quadratic matrix must be symmetric within 1e-12")
        self.A = 0.5 * (A + A.T)
        self.b = np.asarray(b, dtype=float)
        self.c = float(c)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return 0.5 * np.einsum("ij,ij->i", X, X @ self.A) + X @ self.b + self.c

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.A


class LogisticObjective:
    """Mean log-loss over signed augmented samples plus a ridge term.

    `U` stacks the rows l_k [s_k^T 1]; an empty sample set degenerates to
    the pure ridge (w/2) ||x||^2.
    """

    def __init__(self, U: np.ndarray, w: float):
        U = np.asarray(U, dtype=float)
        if U.ndim != 2:
            raise ConfigurationError("logistic sample matrix must be 2-d")
        if w <= 0.0:
            raise ConfigurationError(f"ridge weight must be positive, got {w}")
        self.U = U
        self.w = float(w)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ridge = 0.5 * self.w * np.einsum("ij,ij->i", X, X)
        if self.U.shape[0] == 0:
            return ridge
        Z = self.U @ X.T  # (N, B)
        return np.logaddexp(0.0, -Z).mean(axis=0) + ridge

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.U.shape[0] == 0:
            return self.w * x
        z = self.U @ x
        s = _sigmoid(-z)  # = 1 - sigma(z)
        return -(self.U.T @ s) / self.U.shape[0] + self.w * x

    def hessian(self, x: np.ndarray) -> np.ndarray:
        d = x.shape[0]
        if self.U.shape[0] == 0:
            return self.w * np.eye(d)
        z = self.U @ x
        s = _sigmoid(z)
        r = s * (1.0 - s)
        return (self.U.T * r) @ self.U / self.U.shape[0] + self.w * np.eye(d)


class QuarticObjective:
    """Separable tilted quartic: sum_k (q x_k^4/4 + a x_k^2/2 + b_k x_k)."""

    def __init__(self, q: float, a: float, b: np.ndarray):
        if q < 0.0 or a <= 0.0:
            raise ConfigurationError("quartic needs q >= 0 and a > 0")
        self.q = float(q)
        self.a = float(a)
        self.b = np.asarray(b, dtype=float)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        X2 = X * X
        return (0.25 * self.q * X2 * X2 + 0.5 * self.a * X2 + X * self.b).sum(axis=1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.q * x**3 + self.a * x + self.b

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return np.diag(3.0 * self.q * x * x + self.a)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class ProblemInstance:
    """A shared optimization problem: one cost model per agent plus the
    centralized ground truth (x*, f*, constants) only the experimenter sees."""

    models: list
    d: int
    x_star: np.ndarray
    f_star: float
    constants: SmoothnessConstants
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.models)

    def black_boxes(self) -> list:
        """One zero-count query counter per agent around its cost (one list per run)."""
        return [
            BlackBoxObjective(model.value_many, self.d, name=f"{self.name}[{i}]")
            for i, model in enumerate(self.models)
        ]

    # Averaged-cost diagnostics; none of these touch the query counters.
    def global_value_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return sum(model.value_many(X) for model in self.models) / self.n

    def global_value(self, x: np.ndarray) -> float:
        return float(self.global_value_many(np.asarray(x, dtype=float)[None, :])[0])

    def global_gradient(self, x: np.ndarray) -> np.ndarray:
        return sum(model.gradient(x) for model in self.models) / self.n

    def global_hessian(self, x: np.ndarray) -> np.ndarray:
        return sum(model.hessian(x) for model in self.models) / self.n

    def global_black_box(self) -> BlackBoxObjective:
        """Fresh query-counted wrapper around the averaged cost (diagnostics only)."""
        return BlackBoxObjective(self.global_value_many, self.d, name=self.name + ":global")


def _instance(
    models: list, d: int, x_star: np.ndarray, constants: SmoothnessConstants, name: str
) -> ProblemInstance:
    """Build the instance, set f(x*) and check that x* zeroes the gradient."""
    instance = ProblemInstance(models, d, x_star, 0.0, constants, name)
    instance.f_star = instance.global_value(x_star)
    grad_norm = float(np.linalg.norm(instance.global_gradient(x_star)))
    if grad_norm > _GRAD_TOL:
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
    if features.shape[0] < n:
        raise ConfigurationError(
            f"need at least one row per agent: {features.shape[0]} rows, {n} agents"
        )
    if lam <= 0.0:
        raise ConfigurationError(f"ridge lambda must be positive, got {lam}")
    if standardize:
        features = standardize_features(features)
    d = features.shape[1]

    models = []
    for idx in shard_round_robin(features.shape[0], n):
        S, t = features[idx], targets[idx]
        count = len(idx)
        A = 2.0 * S.T @ S / count + lam * np.eye(d)
        b = -2.0 * S.T @ t / count
        c = float(t @ t / count)
        models.append(QuadraticObjective(A, b, c))

    A_bar = sum(m.A for m in models) / n
    b_bar = sum(m.b for m in models) / n
    x_star = np.linalg.solve(A_bar, -b_bar)
    eigs = np.linalg.eigvalsh(A_bar)
    constants = SmoothnessConstants(m=float(eigs[0]), L1=float(eigs[-1]), L2=0.0, L3=0.0)
    return _instance(models, d, x_star, constants, name)


def _logistic_constants(U_list: list, weights: list, w: float, d: int) -> SmoothnessConstants:
    gram = np.zeros((d, d))
    s3 = 0.0
    s4 = 0.0
    for U, wt in zip(U_list, weights):
        if U.shape[0] == 0:
            continue
        gram += wt * U.T @ U
        norms = np.linalg.norm(U, axis=1)
        s3 += wt * float(np.sum(norms**3))
        s4 += wt * float(np.sum(norms**4))
    L1 = w + _SIG2 * float(np.linalg.eigvalsh(gram)[-1]) if gram.any() else w
    return SmoothnessConstants(m=w, L1=L1, L2=_SIG3 * s3, L3=_SIG4 * s4)


def _damped_newton(value, gradient, hessian, x0, max_iter=500):
    """Backtracking Newton with Armijo constant 1e-4 and halving steps.

    The sufficient-decrease test carries a machine-noise allowance so the
    final full steps are not rejected once the true decrease falls below
    the float resolution of the value.
    """
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
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
        f"newton failed to reach gradient norm {_GRAD_TOL} in {max_iter} iterations"
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
    if w <= 0.0:
        raise ConfigurationError(f"logistic ridge weight must be positive, got {w}")
    if count and standardize:
        samples = standardize_features(samples)

    d = samples.shape[1] + 1
    U = labels[:, None] * np.hstack([samples, np.ones((count, 1))])
    shards = shard_round_robin(count, n)
    models = [LogisticObjective(U[idx], w) for idx in shards]

    U_list = [U[idx] for idx in shards]
    weights = [0.0 if len(idx) == 0 else 1.0 / (n * len(idx)) for idx in shards]
    constants = _logistic_constants(U_list, weights, w, d)

    # the averaged cost's value, gradient and Hessian, before x* is known
    averaged = ProblemInstance(models, d, np.zeros(d), 0.0, constants, name)
    x_star = _damped_newton(
        averaged.global_value, averaged.global_gradient, averaged.global_hessian, np.zeros(d)
    )
    return _instance(models, d, x_star, constants, name)


def synthetic_classification(
    d: int,
    per_agent: int,
    n: int,
    seed: int,
    w: float = 0.1,
    separation: float = 2.0,
    scale_spread: float = 1.0,
    standardize: bool = False,
    name: str = "synthetic-logistic",
) -> ProblemInstance:
    """Two seeded Gaussian clusters, balanced labels on every agent.

    Stands in for a real pre-reduced classification dataset: samples live
    in R^(d-1) so the logistic variable (with intercept) has dimension d.
    `scale_spread` > 1 gives the sample coordinates geometrically decaying
    scales, like the component variances of spectrally reduced data.
    """
    if d < 2:
        raise ConfigurationError(f"synthetic classification needs d >= 2, got {d}")
    rng = Xoshiro256(seed)
    dim = d - 1
    scales = _column_scales(dim, scale_spread)
    center = separation / 2.0 * np.full(dim, 1.0 / math.sqrt(dim)) * scales
    per_label = (per_agent + 1) // 2
    samples_by_agent = np.empty((n, per_agent, dim))
    labels_by_agent = np.empty((n, per_agent))
    for i in range(n):
        for j in range(per_agent):
            label = 1.0 if j < per_label else -1.0
            samples_by_agent[i, j] = label * center + rng.normals(dim) * scales
            labels_by_agent[i, j] = label
    # Interleave so that round-robin sharding hands agent i exactly its
    # own generated block: flat row j*n + i belongs to agent i.
    samples = samples_by_agent.transpose(1, 0, 2).reshape(n * per_agent, dim)
    labels = labels_by_agent.T.reshape(n * per_agent)
    return logistic_instance(samples, labels, n, w, standardize=standardize, name=name)


def ridge_synthetic(
    d: int,
    per_agent: int,
    n: int,
    seed: int,
    lam: float = 0.1,
    noise: float = 0.1,
    scale_spread: float = 10.0,
    standardize: bool = False,
    name: str = "synthetic-ridge",
) -> ProblemInstance:
    """Seeded linear-regression data for a ridge suite.

    Feature columns carry geometrically spread scales (total ratio
    `scale_spread`), mimicking the heterogeneous units of real regression
    data; with `scale_spread` = 1 the features are isotropic.
    """
    rng = Xoshiro256(seed)
    count = n * per_agent
    theta = rng.normals(d)
    features = rng.normals(count, d) * _column_scales(d, scale_spread)
    targets = features @ theta + noise * rng.normals(count)
    return ridge_instance_from_shards(
        features, targets, n, lam, standardize=standardize, name=name
    )


def _column_scales(d: int, spread: float) -> np.ndarray:
    if spread <= 0.0:
        raise ConfigurationError(f"scale spread must be positive, got {spread}")
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
    name: str = "quartic",
) -> ProblemInstance:
    """Separable tilted quartics with closed-form constants on |x_k| <= box.

    Agents share the quartic and quadratic coefficients; the linear tilts
    are spread deterministically around `b_mean` with zero total offset.
    The declared constants (L1, L2 in particular) are only honest while
    iterates stay inside the box, so callers should start runs well inside
    it.
    """
    if box <= 0.0:
        raise ConfigurationError(f"quartic box must be positive, got {box}")
    models = []
    for i in range(n):
        zeta = 0.0 if n == 1 else 2.0 * i / (n - 1) - 1.0
        b = np.full(d, b_mean + b_spread * zeta)
        models.append(QuarticObjective(quartic, quad, b))
    b_bar = sum(m.b for m in models) / n

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
    return _instance(models, d, x_star, constants, name)


def separable_quadratic_instance(
    n: int,
    d: int,
    seed: int,
    curvature_range: tuple = (0.5, 4.0),
    b_scale: float = 1.0,
    name: str = "separable-quadratic",
) -> ProblemInstance:
    """Random diagonal quadratics: f_i = 0.5 x^T diag(a_i) x + b_i^T x."""
    lo, hi = curvature_range
    if not 0.0 < lo <= hi:
        raise ConfigurationError(f"invalid curvature range {curvature_range}")
    rng = Xoshiro256(seed)
    models = []
    for _ in range(n):
        a = lo + (hi - lo) * rng.uniforms(d)
        b = b_scale * rng.normals(d)
        models.append(QuadraticObjective(np.diag(a), b))
    a_bar = sum(np.diag(m.A) for m in models) / n
    b_bar = sum(m.b for m in models) / n
    x_star = -b_bar / a_bar
    constants = SmoothnessConstants(
        m=float(a_bar.min()), L1=float(a_bar.max()), L2=0.0, L3=0.0
    )
    return _instance(models, d, x_star, constants, name)


def load_csv(path: str, has_header: bool = False) -> tuple:
    """Read a numeric CSV; the last column is the target or label.

    Raises a configuration error naming the offending row for ragged or
    non-numeric content, and for files with no data rows.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
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
    table = np.array(values)
    return table[:, :-1], table[:, -1]
