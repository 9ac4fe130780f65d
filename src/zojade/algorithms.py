"""Synchronous multi-agent iterations: curvature-tracking Jacobi descent
and two gradient-estimate baselines.

All three algorithms share the consensus matrix and the finite-difference
oracle code path, and advance synchronously: every agent's update at step
t reads only neighbor values from step t-1.  State is stored stacked,
one row per agent, so a round probes every agent's cost in one oracle
call.

The main update combines consensus on the iterates with tracked
numerator/denominator statistics of a per-coordinate parabola model:

    g_i(t) = hdiag_i(t) * x_i(t-1) - grad_i(t)      (local parabola stats)
    h_i(t) = hdiag_i(t)
    y_i(t) = sum_j p_ij [ y_j(t-1) + g_j(t) - g_j(t-1) ]
    z_i(t) = sum_j p_ij [ z_j(t-1) + h_j(t) - h_j(t-1) ]
    x_i(t) = (1 - eps) sum_j p_ij x_j(t-1) + eps * y_i(t) / z_i(t)

with y, z, g, h all starting at zero, so the node sums of y and z equal
those of g and h at every step.  The division is guarded by a
configurable floor on z; activations are counted and reported, and on
well-conditioned strongly convex problems the counter stays at zero.

Note: the curvature estimate is taken at each agent's own iterate
x_i(t-1) (the same point the gradient estimate uses), which is the only
reading under which g and h describe one parabola fit per agent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NONNEG, NUM, POS_INT, POS_NUM, PROB, ConfigurationError, EvaluationError, RunAborted, require
)
from .metrics import RunTrace, TraceRow, ef_mode, loss_metric
from .objectives import ProblemInstance
from .oracle import BlackBoxObjective, estimate_both, estimate_gradient
from .rng import Xoshiro256


@dataclass
class NetworkState:
    """Stacked agent states (rows are agents) plus run counters."""

    x: np.ndarray
    g: np.ndarray
    h: np.ndarray
    y: np.ndarray
    z: np.ndarray
    P: np.ndarray
    iteration: int = 0
    clamp_count: int = 0

    def consensus_error(self) -> float:
        """Norm of the agents' displacement from their mean iterate."""
        return float(np.linalg.norm(self.x - self.x.mean(axis=0)))

    def tracking_residuals(self) -> tuple:
        """Relative conservation residuals of (y vs g) and (z vs h) node sums."""
        return (
            _relative_residual(self.y.sum(axis=0), self.g.sum(axis=0)),
            _relative_residual(self.z.sum(axis=0), self.h.sum(axis=0)),
        )


def _relative_residual(tracked_sum: np.ndarray, signal_sum: np.ndarray) -> float:
    num = float(np.max(np.abs(tracked_sum - signal_sum)))
    if num == 0.0:
        return 0.0
    den = float(np.max(np.abs(signal_sum)))
    return num / max(den, 1e-300)


def initial_state(x0: np.ndarray, P: np.ndarray) -> NetworkState:
    """Zero-initialized tracking state around the given iterates."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or x0.shape[0] != len(P):
        raise ConfigurationError(f"x0 must be (n, d) with n={len(P)}, got {x0.shape}")
    zeros = np.zeros_like(x0)
    return NetworkState(
        x=x0.copy(), g=zeros.copy(), h=zeros.copy(), y=zeros.copy(), z=zeros.copy(), P=P
    )


@dataclass
class _RunConfig:
    """Parameters every algorithm takes: the absolute finite-difference step
    mu, the per-agent query budget, the trace stride and the scale of the
    seeded initial iterates."""

    mu: float
    budget: int = 10_000
    record_every: int = 10
    x0_scale: float = 1.0

    def __post_init__(self):
        require(POS_NUM, mu=self.mu)
        require(POS_INT, budget=self.budget, record_every=self.record_every)
        require(NUM, x0_scale=self.x0_scale)


@dataclass
class JadeConfig(_RunConfig):
    """Parameters of the curvature-tracking update.

    epsilon is the convex-combination weight of the local Newton-type
    target; the convergence theory needs it small, and epsilon = 1 is the
    degenerate pure-jump variant (useful in single-agent sanity checks).
    z entries are clamped below at z_floor before dividing.
    """

    epsilon: float = 0.05
    z_floor: float = 1e-8

    def __post_init__(self):
        super().__post_init__()
        require(PROB, epsilon=self.epsilon)
        require(POS_NUM, z_floor=self.z_floor)


@dataclass
class BaselineConfig(_RunConfig):
    """Parameters of the gradient-estimate baselines (step size eta)."""

    eta: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        require(NONNEG, eta=self.eta)


def _advance(state: NetworkState, x_new: np.ndarray, **changes) -> NetworkState:
    """The next state: `x_new` after a finite check, plus the other `changes`."""
    iteration = state.iteration + 1
    if not np.isfinite(x_new).all():
        i, k = (int(v) for v in np.argwhere(~np.isfinite(x_new))[0])
        raise RunAborted(
            f"non-finite iterate at step {iteration}: agent {i}, coordinate {k} "
            f"became {x_new[i, k]!r}"
        )
    return replace(state, x=x_new, iteration=iteration, **changes)


def jade_step(
    state: NetworkState, objective: BlackBoxObjective, cfg: JadeConfig
) -> NetworkState:
    """One synchronous round of the curvature-tracking Jacobi update; agent i
    queries only its own cost, all agents in one call to `objective`."""
    P = state.P
    grads, hdiags = estimate_both(objective, state.x, cfg.mu)
    g_new = hdiags * state.x - grads
    y_new = P @ (state.y + g_new - state.g)
    z_new = P @ (state.z + hdiags - state.h)
    clamp_count = state.clamp_count + int(np.count_nonzero(z_new < cfg.z_floor))
    z_safe = np.maximum(z_new, cfg.z_floor)
    x_new = (1.0 - cfg.epsilon) * (P @ state.x) + cfg.epsilon * (y_new / z_safe)
    return _advance(state, x_new, g=g_new, h=hdiags, y=y_new, z=z_new, clamp_count=clamp_count)


def gradient_tracking_step(
    state: NetworkState, objective: BlackBoxObjective, cfg: BaselineConfig
) -> NetworkState:
    """Consensus + tracked-average gradient step (generic tracking baseline)."""
    P = state.P
    grads = estimate_gradient(objective, state.x, cfg.mu)
    y_new = P @ (state.y + grads - state.g)
    return _advance(state, P @ state.x - cfg.eta * y_new, g=grads, y=y_new)


def consensus_gd_step(
    state: NetworkState, objective: BlackBoxObjective, cfg: BaselineConfig
) -> NetworkState:
    """Plain consensus plus a local gradient-estimate step (naive baseline)."""
    grads = estimate_gradient(objective, state.x, cfg.mu)
    return _advance(state, state.P @ state.x - cfg.eta * grads)


#: name -> (step function, per-agent queries per iteration as a function of d)
ALGORITHMS = {
    "zo_jade": (jade_step, lambda d: 2 * d + 1),
    "gradient_tracking": (gradient_tracking_step, lambda d: 2 * d),
    "consensus_gd": (consensus_gd_step, lambda d: 2 * d),
}


def draw_initial_iterates(seed: int, n: int, d: int, scale: float) -> np.ndarray:
    """Seeded initial iterates; identical for every algorithm run on this seed."""
    return scale * Xoshiro256(seed).normals(n, d)


def run(
    algorithm: str,
    instance: ProblemInstance,
    P: np.ndarray,
    cfg,
    seed: int,
    label: str = "",
) -> RunTrace:
    """Run one algorithm until the per-agent query budget is exhausted.

    A trace row is recorded at step 0, every `record_every` iterations,
    and at the final iteration.  The run is deterministic given
    (instance, seed); a non-finite update stops it early and marks the
    trace as failed with the abort diagnostic.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm '{algorithm}'; expected one of {sorted(ALGORITHMS)}"
        )
    if len(P) != instance.n:
        raise ConfigurationError(
            f"consensus matrix is {len(P)}x{len(P)} but the instance has {instance.n} agents"
        )
    step_fn, cost_fn = ALGORITHMS[algorithm]
    objective = instance.black_boxes()
    per_step = cost_fn(instance.d)
    x0 = draw_initial_iterates(seed, instance.n, instance.d, cfg.x0_scale)
    state = initial_state(x0, P)

    trace = RunTrace(
        algorithm=algorithm,
        seed=seed,
        label=label or algorithm,
        ef_mode=ef_mode(instance),
    )

    def record():
        ry, rz = state.tracking_residuals()
        trace.rows.append(
            TraceRow(
                iteration=state.iteration,
                queries_per_agent=state.iteration * per_step,
                e_f=loss_metric(instance, state.x),
                consensus_error=state.consensus_error(),
                tracking_residual_y=ry,
                tracking_residual_z=rz,
                clamp_count=state.clamp_count,
            )
        )

    record()
    try:
        while (state.iteration + 1) * per_step <= cfg.budget:
            state = step_fn(state, objective, cfg)
            if state.iteration % cfg.record_every == 0:
                record()
    except (RunAborted, EvaluationError) as exc:
        trace.failed = True
        trace.diagnostic = str(exc)
    if trace.rows[-1].iteration != state.iteration:
        record()
    trace.final_x = state.x.copy()
    return trace
