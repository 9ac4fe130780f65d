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

Replicas: a replica is a (config, seed) pair, and `run` advances those of
one call as one (R, n, d) stack, replica axis first; a round makes one
oracle call for all R * n agents.  Configs share budget and record_every but
may differ in mu, x0_scale and epsilon, z_floor or eta, each then an (R, 1, 1)
column built once per run, so the gamma check's mu ladder is one run of seed
1 at each mu.  Each (n, d) slab meets the arithmetic of a separate run, so
every trace is bitwise its separate run's; folding the replicas into the
probe axis, (n, R k, d), would not be (other BLAS shapes, whose ~1e-14 the
1/mu^2 of the second difference amplifies).  A replica whose probe value or
iterate turns non-finite stops where its separate run stops.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import oracle
from .errors import NONNEG, NUM, POS_INT, POS_NUM, PROB, ConfigurationError, check_entry
from .metrics import TRACE_DTYPE, RunTrace, ef_mode, loss_metric, per_replica, squares
from .objectives import ProblemInstance
from .oracle import BlackBoxObjective, estimate_both, estimate_gradient
from .rng import Xoshiro256


@dataclass
class NetworkState:
    """Stacked agent states (rows are agents, after a leading replica axis in
    a batched run) plus run counters; `clamps` counts the division-clamp
    activations per replica."""

    x: np.ndarray
    g: np.ndarray
    h: np.ndarray
    y: np.ndarray
    z: np.ndarray
    P: np.ndarray
    iteration: int = 0
    clamps: np.ndarray | int = 0

    @property
    def clamp_count(self) -> int:
        """Clamp activations of all replicas together."""
        return int(np.sum(self.clamps))

    def next(self, **fields) -> NetworkState:
        """A new state one step on, with the arrays `fields` replaced."""
        return NetworkState(**vars(self) | fields | {"iteration": self.iteration + 1})

    def take(self, rows) -> NetworkState:
        """The replicas `rows` of a batched state; one replica r gives its
        (n, d) state of views."""
        return NetworkState(self.x[rows], self.g[rows], self.h[rows], self.y[rows], self.z[rows],
                            self.P, self.iteration, self.clamps[rows])

    def consensus_error(self):
        """Norm of the agents' displacement from their mean iterate, one per
        replica of a stack (a float for one (n, d) state), each scaled by its
        largest |deviation| where its squares would overflow."""
        dev = self.x - self.x.mean(axis=-2, keepdims=True)
        dev = dev.reshape(dev.shape[:-2] + (dev.shape[-2] * dev.shape[-1],))
        largest = np.abs(dev).max(axis=-1)
        with np.errstate(over="ignore"):
            big = (largest < np.inf) & (largest * largest * dev.shape[-1] > np.finfo(float).max)
        scale = np.where(big, largest, 1.0)
        return per_replica(scale * np.sqrt(squares(dev / scale[..., None])))

    def tracking_residuals(self) -> tuple:
        """Relative conservation residuals of (y vs g) and (z vs h) node sums,
        one per replica of a stack (a float for one (n, d) state)."""
        return (
            _relative_residual(self.y.sum(axis=-2), self.g.sum(axis=-2)),
            _relative_residual(self.z.sum(axis=-2), self.h.sum(axis=-2)),
        )


def _relative_residual(tracked_sum: np.ndarray, signal_sum: np.ndarray):
    num = np.abs(tracked_sum - signal_sum).max(axis=-1)
    den = np.maximum(np.abs(signal_sum).max(axis=-1), 1e-300)
    with np.errstate(over="ignore"):
        return per_replica(np.where(num == 0.0, 0.0, num / den))


def initial_state(x0: np.ndarray, P: np.ndarray) -> NetworkState:
    """Zero-initialized tracking state around the iterates x0:(n, d), or
    (R, n, d) for R replicas."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (2, 3) or x0.shape[-2] != len(P):
        raise ConfigurationError(f"x0 must be (n, d) or (R, n, d) with n={len(P)}, got {x0.shape}")
    zeros = np.zeros_like(x0)
    return NetworkState(
        x=x0.copy(), g=zeros.copy(), h=zeros.copy(), y=zeros.copy(), z=zeros.copy(), P=P,
        clamps=np.zeros(x0.shape[:-2], dtype=np.int64),
    )


def _param(kind: str, default=MISSING):
    """A run config field whose value must be of `kind`, a key of errors.KINDS."""
    return field(default=default, metadata={"kind": kind})


def param_kinds(cls) -> dict:
    """Each field of a run config class -> its declared kind."""
    return {f.name: f.metadata["kind"] for f in fields(cls)}


@dataclass
class RunConfig:
    """Parameters every algorithm takes: the absolute finite-difference step
    mu, the per-agent query budget, the trace stride and the scale of the
    seeded initial iterates.  Every field of a run config declares its kind,
    and construction checks each value against it."""

    mu: float = _param(POS_NUM)
    budget: int = _param(POS_INT, 10_000)
    record_every: int = _param(POS_INT, 10)
    x0_scale: float = _param(NUM, 1.0)

    def __post_init__(self):
        check_entry(vars(self), param_kinds(type(self)), type(self).__name__)


@dataclass
class JadeConfig(RunConfig):
    """Parameters of the curvature-tracking update.

    epsilon is the convex-combination weight of the local Newton-type
    target; the convergence theory needs it small, and epsilon = 1 is the
    degenerate pure-jump variant (useful in single-agent sanity checks).
    z entries are clamped below at z_floor before dividing.
    """

    epsilon: float = _param(PROB, 0.05)
    z_floor: float = _param(POS_NUM, 1e-8)


@dataclass
class BaselineConfig(RunConfig):
    """Parameters of the gradient-estimate baselines (step size eta)."""

    eta: float = _param(NONNEG, 0.1)


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
    clamped = z_new < cfg.z_floor
    clamps = state.clamps
    if np.count_nonzero(clamped):
        clamps = clamps + np.count_nonzero(clamped, axis=(-2, -1))
    z_safe = np.maximum(z_new, cfg.z_floor)
    x_new = (1.0 - cfg.epsilon) * (P @ state.x) + cfg.epsilon * (y_new / z_safe)
    return state.next(x=x_new, g=g_new, h=hdiags, y=y_new, z=z_new, clamps=clamps)


def gradient_tracking_step(
    state: NetworkState, objective: BlackBoxObjective, cfg: BaselineConfig
) -> NetworkState:
    """Consensus + tracked-average gradient step (generic tracking baseline)."""
    P = state.P
    grads = estimate_gradient(objective, state.x, cfg.mu)
    y_new = P @ (state.y + grads - state.g)
    return state.next(x=P @ state.x - cfg.eta * y_new, g=grads, y=y_new)


def consensus_gd_step(
    state: NetworkState, objective: BlackBoxObjective, cfg: BaselineConfig
) -> NetworkState:
    """Plain consensus plus a local gradient-estimate step (naive baseline)."""
    grads = estimate_gradient(objective, state.x, cfg.mu)
    return state.next(x=state.P @ state.x - cfg.eta * grads)


#: name -> (step function, per-agent queries per iteration as a function of d)
ALGORITHMS = {
    "zo_jade": (jade_step, lambda d: 2 * d + 1),
    "gradient_tracking": (gradient_tracking_step, lambda d: 2 * d),
    "consensus_gd": (consensus_gd_step, lambda d: 2 * d),
}

#: name -> the config class that holds the algorithm's parameters and their defaults
CONFIG_CLASS = {"zo_jade": JadeConfig, "gradient_tracking": BaselineConfig,
                "consensus_gd": BaselineConfig}


def draw_initial_iterates(seed: int, n: int, d: int, scale: float) -> np.ndarray:
    """Seeded initial iterates; identical for every algorithm run on this seed."""
    return scale * Xoshiro256(seed).normals(n, d)


def _check_replicas(algorithm: str, replicas) -> None:
    """Reject all but a non-empty list of distinct (config, seed) pairs whose
    configs are of the algorithm's class and share budget and record_every."""
    cls = CONFIG_CLASS[algorithm]
    if not (isinstance(replicas, list) and replicas and all(
            isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], cls) for p in replicas)):
        raise ConfigurationError(
            f"{algorithm} runs a non-empty list of ({cls.__name__}, seed) pairs, got {replicas!r}")
    for name in ("budget", "record_every"):
        values = [getattr(cfg, name) for cfg, _ in replicas]
        if len(set(values)) > 1:
            raise ConfigurationError(f"{algorithm} replicas must share {name}, got {values}")
    for k, pair in enumerate(replicas):
        if pair in replicas[:k]:
            raise ConfigurationError(f"{algorithm} replica {k} repeats {pair!r}")


def _replica_params(cfgs: list) -> SimpleNamespace:
    """What a step reads from a config, for the replicas' configs: a value
    they share as in a separate run, else each replica's, as the tuple the
    estimators take for mu and as an (R, 1, 1) column for the rest."""
    params = {}
    for name in {f.name for f in fields(cfgs[0])} - {"budget", "record_every", "x0_scale"}:
        values = tuple(getattr(c, name) for c in cfgs)
        params[name] = values[0] if len(set(values)) == 1 else (
            values if name == "mu" else np.reshape(values, (-1, 1, 1)))
    return SimpleNamespace(**params)


def run(algorithm: str, instance: ProblemInstance, P: np.ndarray, replicas: list,
        label: str = "") -> list:
    """Run one algorithm from each (config, seed) replica's initial iterates
    until the per-agent query budget is exhausted; one trace per replica, in
    order, each bitwise the one a run of its replica alone gives.

    A trace row is recorded at step 0, every `record_every` iterations, and
    at the final iteration; a trace's rows are one array of TRACE_DTYPE.
    Records are measured in batches: the recorded states are held (no step
    writes into a state) and measured in one pass over their stack, when
    the run ends or before one more record would take the stack's five
    arrays, or one agent's e_f block, past oracle._BLOCK_ELEMENTS.  A record
    that fills the budget alone is measured at once, on its own arrays.
    A non-finite probe value or iterate stops its replica at the step before
    and marks its trace as failed with the diagnostic (agent indices within
    the replica); the other replicas run on.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm '{algorithm}'; expected one of {sorted(ALGORITHMS)}")
    if len(P) != instance.n:
        raise ConfigurationError(
            f"consensus matrix is {len(P)}x{len(P)} but the instance has {instance.n} agents")
    _check_replicas(algorithm, replicas)
    step_fn, cost_fn = ALGORITHMS[algorithm]
    per_step = cost_fn(instance.d)
    budget, record_every = replicas[0][0].budget, replicas[0][0].record_every
    objective = instance.black_boxes(len(replicas))
    x0 = [draw_initial_iterates(s, instance.n, instance.d, c.x0_scale) for c, s in replicas]
    state = initial_state(np.stack(x0), P)
    params = _replica_params([c for c, _ in replicas])
    mode = ef_mode(instance)
    traces = [RunTrace(algorithm=algorithm, seed=s, label=label or algorithm, ef_mode=mode)
              for _, s in replicas]
    live = list(range(len(replicas)))  # the trace of each replica row of the state
    owners, recorded = [], []  # the trace of each row, and the measured rows, in record order
    pending = []  # the recorded states whose rows are not yet measured
    # replica rows a batch may hold: a row's five state arrays, or its agents'
    # points in one agent's e_f block, take n * max(5 d, row_elements) elements
    limit = oracle._BLOCK_ELEMENTS // (instance.n * max(5 * instance.d,
                                                        instance.family.row_elements))

    def measure() -> None:
        """Write the rows of the pending states, measured on their stack."""
        batch = pending[0] if len(pending) == 1 else NetworkState(
            *(np.concatenate([vars(s)[f] for s in pending]) for f in "xghyz"), P,
            np.repeat([s.iteration for s in pending], [len(s.x) for s in pending]),
            np.concatenate([s.clamps for s in pending]))
        pending.clear()
        rows = np.empty(len(batch.x), TRACE_DTYPE)
        columns = (batch.iteration, batch.iteration * per_step, loss_metric(instance, batch.x),
                   batch.consensus_error(), *batch.tracking_residuals(), batch.clamps)
        for name, values in zip(rows.dtype.names, columns):
            rows[name] = values
        recorded.append(rows)

    def record(batch: NetworkState, ids: list) -> None:
        """Hold the row of `batch` for the traces `ids` of its replicas."""
        held = sum(len(s.x) for s in pending)  # rows not yet measured
        if held and held + len(ids) > limit:
            measure()
            held = 0
        pending.append(batch)
        owners.extend(ids)
        if held + len(ids) >= limit:
            measure()

    def finish(batch: NetworkState, ids: list) -> None:
        """Record `batch` unless its step is recorded, and keep each replica's iterates."""
        if batch.iteration % record_every:
            record(batch, ids)
        for t, x in zip(ids, batch.x):
            traces[t].final_x = x.copy()

    record(state, live)
    while live and (state.iteration + 1) * per_step <= budget:
        new = step_fn(state, objective, params)
        failures = objective.failures  # replica row -> diagnostic
        if not np.isfinite(new.x).all():
            for r, x in enumerate(new.x):
                bad = np.argwhere(~np.isfinite(x))
                if bad.size and r not in failures:
                    i, k = (int(v) for v in bad[0])
                    failures[r] = (f"non-finite iterate at step {new.iteration}: agent {i}, "
                                   f"coordinate {k} became {x[i, k]!r}")
        if failures:  # freeze the failed replicas where their separate runs stop
            failed = sorted(failures)
            ids = [live[r] for r in failed]
            finish(state.take(failed), ids)
            for r, t in zip(failed, ids):
                traces[t].failed, traces[t].diagnostic = True, failures[r]
            keep = [r for r in range(len(live)) if r not in failures]
            new = new.take(keep)
            live = [live[r] for r in keep]
            if live:
                params = _replica_params([replicas[t][0] for t in live])
            objective.live = np.array(live, dtype=np.intp)
            failures.clear()
        state = new
        if live and state.iteration % record_every == 0:
            record(state, live)
    if live:
        finish(state, live)
    if pending:
        measure()
    rows, owner = np.concatenate(recorded), np.array(owners)
    for t, trace in enumerate(traces):
        trace.rows = rows[owner == t]
    objective.answers.clear()  # a counter kept after its run holds no estimates
    return traces
