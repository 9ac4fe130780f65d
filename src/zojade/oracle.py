"""Central-difference estimators of the gradient and Hessian diagonal.

Given a black-box scalar function f and a step mu > 0, coordinate k of the
two estimators is

    grad_k = (f(x + mu e_k) - f(x - mu e_k)) / (2 mu)
    hdiag_k = (f(x + mu e_k) - 2 f(x) + f(x - mu e_k)) / mu**2

so both can be formed from the same 2d probe values plus one center value,
2d + 1 queries in total.  The probe order is fixed (k ascending, +mu before
-mu, center last) to make query traces reproducible.

The closed-form error, Lipschitz and admissible-step bounds for these
estimators live here as plain functions of the smoothness constants
(m, L1, L2, L3); the constants are the ground truth a problem instance
declares for its averaged cost, never estimated from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


@dataclass
class SmoothnessConstants:
    """Curvature bounds of a cost: strong convexity m, Hessian eigenvalue cap L1,
    Hessian Lipschitz constant L2, third-derivative Lipschitz constant L3."""

    m: float | None = None
    L1: float | None = None
    L2: float | None = None
    L3: float | None = None

    def require(self, *names: str) -> None:
        missing = [k for k in names if getattr(self, k) is None]
        if missing:
            raise ValueError(f"smoothness constants {missing} are not available")


class BlackBoxObjective:
    """Query counter around one agent's batch cost function.

    Every evaluation goes through :meth:`evaluate_many`, which counts one
    query per row; the ground truth behind the function belongs to the
    experimenter and is never reachable from here.
    """

    def __init__(self, batch_fn, dim: int, *, name: str = ""):
        self._batch_fn = batch_fn
        self.dim = dim
        self.name = name
        self.query_count = 0

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        self.query_count += X.shape[0]
        return np.asarray(self._batch_fn(X), dtype=float)


@dataclass
class OracleOutput:
    """Joint estimator result: both derivative estimates plus the center value."""

    grad_estimate: np.ndarray
    hessian_diag_estimate: np.ndarray
    center_value: float
    queries_used: int


def _probe_values(
    f: BlackBoxObjective, x: np.ndarray, mu: float, with_center: bool
) -> np.ndarray:
    """Values of f at x + mu e_k, x - mu e_k for k = 0..d-1, then at x itself
    if `with_center`; a non-finite value raises, naming its probe point."""
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    points = np.tile(x, (2 * d + 1 if with_center else 2 * d, 1))
    for k in range(d):
        points[2 * k, k] += mu
        points[2 * k + 1, k] -= mu
    values = f.evaluate_many(points)
    if not np.isfinite(values).all():
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EvaluationError(
            f"objective '{f.name}' returned {values[k]!r} at probe point {points[k].tolist()}"
        )
    return values


def estimate_gradient(f: BlackBoxObjective, x: np.ndarray, mu: float) -> np.ndarray:
    """Central-difference gradient estimate; consumes exactly 2d queries."""
    values = _probe_values(f, x, mu, with_center=False)
    return (values[0::2] - values[1::2]) / (2.0 * mu)


def estimate_hessian_diag(
    f: BlackBoxObjective, x: np.ndarray, mu: float, center: float
) -> np.ndarray:
    """Hessian-diagonal estimate around a known center value f(x); 2d queries."""
    values = _probe_values(f, x, mu, with_center=False)
    return (values[0::2] - 2.0 * center + values[1::2]) / (mu * mu)


def estimate_both(f: BlackBoxObjective, x: np.ndarray, mu: float) -> OracleOutput:
    """Gradient and Hessian-diagonal estimates from one shared probe set.

    The 2d coordinate probes are reused for both estimates and a single
    extra center evaluation completes the second difference, 2d + 1
    queries in total.
    """
    values = _probe_values(f, x, mu, with_center=True)
    plus = values[0:-1:2]
    minus = values[1:-1:2]
    center = float(values[-1])
    grad = (plus - minus) / (2.0 * mu)
    hdiag = (plus - 2.0 * center + minus) / (mu * mu)
    return OracleOutput(grad, hdiag, center, queries_used=values.shape[0])


def gradient_error_bound(L2: float, mu: float, d: int) -> float:
    """Worst-case Euclidean error of the gradient estimate: sqrt(d) L2 mu^2 / 6."""
    return math.sqrt(d) * L2 * mu * mu / 6.0


def hessian_error_bound(L3: float, mu: float) -> float:
    """Worst-case per-coordinate error of the Hessian-diagonal estimate: L3 mu^2 / 12."""
    return L3 * mu * mu / 12.0


def gradient_lipschitz_bound(L1: float, L2: float, mu: float, d: int) -> float:
    """Lipschitz constant of x -> grad estimate: L1 + mu sqrt(d) L2 / 2."""
    return L1 + mu * math.sqrt(d) * L2 / 2.0


def hessian_lipschitz_bound(L2: float, L3: float, mu: float, d: int) -> float:
    """Lipschitz constant of x -> Hessian-diagonal estimate: L2 sqrt(d) + mu sqrt(d) L3 / 3."""
    return L2 * math.sqrt(d) + mu * math.sqrt(d) * L3 / 3.0


def descent_coefficient(mu: float, m: float, L1: float, L3: float, d: int) -> float:
    """Coefficient multiplying V(x) in the Jacobi descent-direction bound.

        alpha(mu) = 2 d mu^2 L3 / (12 m - L3 mu^2) - 12 m / (12 L1 + L3 mu^2)

    Negative alpha certifies that rescaling the gradient estimate by the
    inverse curvature estimate still decreases the squared-gradient
    Lyapunov function; alpha crosses zero exactly at :func:`mu2`.
    Requires mu^2 < 12 m / L3 so the curvature estimate cannot be driven
    nonpositive by estimation error.
    """
    if L3 == 0.0:
        return -m / L1
    if mu * mu >= 12.0 * m / L3:
        raise ValueError(
            f"mu={mu} is outside the domain of the descent bound (mu^2 >= 12 m / L3)"
        )
    return 2.0 * d * mu * mu * L3 / (12.0 * m - L3 * mu * mu) - 12.0 * m / (
        12.0 * L1 + L3 * mu * mu
    )


def mu2(m: float, L1: float, L3: float, d: int) -> float:
    """Probe step at which the descent coefficient alpha(mu) changes sign.

        mu_2 = sqrt(3 (sqrt((2 d L1 + m)^2 + 8 m^2 d) - 2 d L1 - m) / (d L3))

    evaluated in the cancellation-free form 24 m^2 / (L3 (S + 2 d L1 + m))
    for mu_2^2, with S the square root above.  Requires L3 > 0.
    """
    s = math.hypot(2.0 * d * L1 + m, m * math.sqrt(8.0 * d))
    return math.sqrt(24.0 * m * m / (L3 * (s + 2.0 * d * L1 + m)))


def admissible_mu(m: float, L1: float, L3: float, d: int) -> float:
    """Largest probe step for which the squared-gradient analysis is usable.

    Returns min(mu_1, mu_2), where mu_1 keeps the quadratic lower bound on
    the squared gradient estimate positive and mu_2 keeps the
    descent-direction coefficient negative:

        mu_1 = sqrt(6 (sqrt(L1^2 + m^2) - L1) / (d L3))

    and mu_2 is :func:`mu2`.  Both are evaluated in cancellation-free
    form.  With L3 = 0 (quadratic costs, exact estimators) there is no
    constraint and +inf is returned.
    """
    if m <= 0.0:
        raise ValueError(f"strong convexity constant must be positive, got m={m}")
    if L1 < m:
        raise ValueError(f"need L1 >= m, got L1={L1} < m={m}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if L3 < 0.0:
        raise ValueError(f"L3 must be nonnegative, got {L3}")
    if L3 == 0.0:
        return math.inf
    # mu_1^2 = 6 (hypot(L1,m) - L1) / (d L3) = 6 m^2 / (d L3 (hypot(L1,m) + L1))
    mu1 = math.sqrt(6.0 * m * m / (d * L3 * (math.hypot(L1, m) + L1)))
    return min(mu1, mu2(m, L1, L3, d))
