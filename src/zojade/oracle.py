"""Central-difference estimators of the gradient and Hessian diagonal.

Given a black-box scalar function f and a step mu > 0, coordinate k of the
two estimators is

    grad_k = (f(x + mu e_k) - f(x - mu e_k)) / (2 mu)
    hdiag_k = (f(x + mu e_k) - 2 f(x) + f(x - mu e_k)) / mu**2

so both can be formed from the same 2d probe values plus one center value,
2d + 1 queries in total.  The probe order is fixed (k ascending, +mu before
-mu, center last) to make query traces reproducible.  The estimators work
on all agents at once: x holds one row per agent, and a single cost is the
one-agent case; a batched run adds a leading replica axis, one network
copy per seed.

The closed-form error, Lipschitz and admissible-step bounds for these
estimators live here as plain functions of the smoothness constants
(m, L1, L2, L3); the constants are the ground truth a problem instance
declares for its averaged cost, never estimated from samples.
"""

from __future__ import annotations

import functools
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


#: Elements that one block of probe points, or the temporaries a cost takes
#: to evaluate it, may hold; agents are probed and evaluated in blocks of
#: consecutive agents under this budget (one agent at least).
_BLOCK_ELEMENTS = 2**15


def agent_blocks(n: int, elements_per_agent: int) -> list:
    """Slices of consecutive agents 0..n-1 whose evaluation holds at most
    _BLOCK_ELEMENTS elements, given what one agent's evaluation holds."""
    size = max(1, _BLOCK_ELEMENTS // max(1, elements_per_agent))
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


class BlackBoxObjective:
    """Query counter around the batch cost function of n agents.

    `batch_fn(X, block)` returns the values (..., m, k) of the m agents in
    the slice `block`, each at its own points X:(..., m, k, d), and one
    evaluated row takes `row_elements` elements of temporaries.  A single
    cost is the one-agent case, `agents` = 1.  Every evaluation goes through
    :meth:`evaluate_probes`, which counts one query per point in
    `agent_queries`; the ground truth behind the function belongs to the
    experimenter and is never reachable from here.

    With `replicas` = R it serves the R seeds of a batched run: points are
    x:(R, n, d), `agent_queries` is (R, n), `live` indexes the replicas the
    rows of x belong to, and a replica's non-finite probe value is reported
    in `failures` (row of x -> diagnostic) instead of raising.
    """

    def __init__(self, batch_fn, dim: int, *, agents: int = 1, replicas: int | None = None,
                 row_elements=None, name: str = ""):
        self._batch_fn = batch_fn
        self.dim = dim
        self.name = name
        shape = (agents,) if replicas is None else (replicas, agents)
        self.agent_queries = np.zeros(shape, dtype=np.int64)
        self._row_elements = max(dim, row_elements or 0)
        self.live = slice(None)
        self.failures = None if replicas is None else {}

    @property
    def query_count(self) -> int:
        """Queries of all agents (and replicas) together."""
        return int(self.agent_queries.sum())

    def evaluate_probes(self, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Values (..., n, k) of every agent i at x[..., i, :] + offsets[j] for
        x:(n, d), or (R, n, d) with replicas, built and evaluated one agent
        block at a time; a block of m agents holds R * m * k probe rows.

        A non-finite value raises, naming the agent, its probe (the displaced
        coordinate and sign of its offset row, or `center`) and its point; with
        replicas it goes to `failures` instead and zeroes the replica's values,
        so that the rest of its discarded round stays finite."""
        x = np.asarray(x, dtype=float)
        counts = self.agent_queries[self.live]
        n, k = counts.shape[-1], offsets.shape[0]
        if x.shape != counts.shape + (self.dim,):
            raise ValueError(f"objective '{self.name}' takes points of shape "
                             f"{counts.shape + (self.dim,)}, got shape {x.shape}")
        values = np.empty(counts.shape + (k,))
        for block in agent_blocks(n, counts.size // n * k * self._row_elements):
            counts[..., block] += k
            values[..., block, :] = self._batch_fn(x[..., block, None, :] + offsets, block)
        self.agent_queries[self.live] = counts
        if np.isfinite(values).all():
            return values
        for r in np.ndindex(values.shape[:-2]):  # the one empty index without replicas
            bad = np.argwhere(~np.isfinite(values[r]))
            if not bad.size:
                continue
            i, j = (int(v) for v in bad[0])
            moved = np.flatnonzero(offsets[j])
            probe = (f"coordinate {moved[0]}, {'+-'[int(offsets[j, moved[0]] < 0)]}mu"
                     if moved.size else "center")
            message = (
                f"objective '{self.name}' agent {i} returned {float(values[r][i, j])!r} at "
                f"probe point {(x[r][i] + offsets[j]).tolist()} ({probe})"
            )
            if self.failures is None:
                raise EvaluationError(message)
            self.failures[r[0]] = message
            values[r] = 0.0
        return values


@functools.lru_cache(maxsize=128)
def _offsets(d: int, mu: float) -> np.ndarray:
    """Probe offsets (2d + 1, d): +mu e_k, then -mu e_k for k ascending, then
    the center."""
    if not 0.0 < mu < math.inf:  # NaN fails the comparison too
        raise ValueError(f"mu must be positive and finite, got {mu}")
    offsets = np.zeros((2 * d + 1, d))
    k = np.arange(d)
    offsets[2 * k, k] = mu
    offsets[2 * k + 1, k] = -mu
    offsets.flags.writeable = False
    return offsets


def estimate_gradient(f: BlackBoxObjective, x: np.ndarray, mu: float) -> np.ndarray:
    """Central-difference gradient estimates (..., n, d) at every agent's row
    of x:(n, d) or (R, n, d); consumes exactly 2d queries per agent."""
    values = f.evaluate_probes(x, _offsets(f.dim, mu)[:-1])
    return (values[..., 0::2] - values[..., 1::2]) / (2.0 * mu)


def estimate_hessian_diag(
    f: BlackBoxObjective, x: np.ndarray, mu: float, center: np.ndarray
) -> np.ndarray:
    """Hessian-diagonal estimates (..., n, d) at x:(..., n, d) around the known
    center values f_i(x[i]), one per agent; 2d queries per agent."""
    values = f.evaluate_probes(x, _offsets(f.dim, mu)[:-1])
    center = np.asarray(center, dtype=float)[..., None]
    return (values[..., 0::2] - 2.0 * center + values[..., 1::2]) / (mu * mu)


def estimate_both(f: BlackBoxObjective, x: np.ndarray, mu: float) -> tuple:
    """Gradient and Hessian-diagonal estimates (grad, hdiag), each (..., n, d),
    from one shared probe set at x:(n, d) or (R, n, d).

    The 2d coordinate probes are reused for both estimates and a single
    extra center evaluation completes the second difference, 2d + 1
    queries per agent in total.
    """
    values = f.evaluate_probes(x, _offsets(f.dim, mu))
    plus = values[..., 0:-1:2]
    minus = values[..., 1:-1:2]
    center = values[..., -1:]
    return (plus - minus) / (2.0 * mu), (plus - 2.0 * center + minus) / (mu * mu)


def gradient_error_bound(L2: float, mu: float, d: int) -> float:
    """Worst-case Euclidean error of the gradient estimate: sqrt(d) L2 mu^2 / 6."""
    return math.sqrt(d) * L2 * mu * mu / 6.0


def hessian_error_bound(L3: float, mu: float) -> float:
    """Worst-case per-coordinate error of the Hessian-diagonal estimate: L3 mu^2 / 12."""
    return L3 * mu * mu / 12.0


def gradient_lipschitz_bound(L1: float, L2: float, mu: float, d: int) -> float:
    """Lipschitz constant of x -> grad estimate: L1 + mu sqrt(d) L2 / 2."""
    return L1 + mu * math.sqrt(d) * L2 / 2.0


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
