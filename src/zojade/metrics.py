"""Run traces, the relative-suboptimality metric, and curve analysis."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .objectives import ProblemInstance

#: Below this magnitude of f(x*) the loss metric switches to absolute error.
EF_DENOMINATOR_FLOOR = 1e-12

#: Points with e_f at or below this floor are excluded from rate fits.
EF_FIT_FLOOR = 1e-12


def ef_mode(instance: ProblemInstance) -> str:
    """'relative' normally, 'absolute' when f(x*) is too close to zero to divide by."""
    return "absolute" if abs(instance.f_star) < EF_DENOMINATOR_FLOOR else "relative"


def loss_metric(instance: ProblemInstance, x_list: np.ndarray):
    """Average suboptimality of the agents' iterates under the global cost.

    e_f = (mean_i f(x_i) - f(x*)) / |f(x*)|, falling back to the plain
    difference when |f(x*)| is below the divide floor.  Iterates x:(n, d)
    give one float; x:(R, n, d) gives one e_f per replica, from one pass.
    """
    values = instance.global_value_many(np.atleast_2d(x_list))
    gap = values.mean(axis=-1) - instance.f_star
    if ef_mode(instance) == "relative":
        gap = gap / abs(instance.f_star)
    return per_replica(gap)


def per_replica(values: np.ndarray):
    """An (R,) array as it is; the 0-d value of one (n, d) state as a float."""
    return values if values.ndim else float(values)


def squares(f: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis of f, one BLAS dot per row, the
    dot that np.linalg.norm takes of a single vector."""
    return (f[..., None, :] @ f[..., :, None])[..., 0, 0]


@dataclass
class TraceRow:
    iteration: int
    queries_per_agent: int
    e_f: float
    consensus_error: float
    tracking_residual_y: float
    tracking_residual_z: float
    clamp_count: int


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


@dataclass
class RunTrace:
    """Per-iteration record of one (algorithm, seed) run."""

    algorithm: str
    seed: int
    rows: list = field(default_factory=list)
    config_hash: str = ""
    label: str = ""
    ef_mode: str = "relative"
    failed: bool = False
    diagnostic: str = ""
    final_x: np.ndarray | None = None

    def queries(self) -> np.ndarray:
        return np.array([r.queries_per_agent for r in self.rows], dtype=float)

    def iterations(self) -> np.ndarray:
        return np.array([r.iteration for r in self.rows], dtype=float)

    def ef_values(self) -> np.ndarray:
        return np.array([r.e_f for r in self.rows], dtype=float)


@dataclass
class AggregateCurve:
    """Mean and standard deviation of e_f across seeds on a shared query grid."""

    label: str
    queries: np.ndarray
    ef_mean: np.ndarray
    ef_std: np.ndarray
    config_hash: str = ""
    seeds: tuple = ()


def aggregate_traces(label: str, traces: list) -> AggregateCurve:
    """Mean and standard deviation of e_f over seed traces that record the
    same query grid, as every completed run of one config entry does."""
    if not traces:
        raise ValueError("cannot aggregate an empty trace list")
    grid = traces[0].queries()
    if any(not np.array_equal(t.queries(), grid) for t in traces[1:]):
        raise ValueError(f"{label}: traces record different query grids")
    stack = np.vstack([t.ef_values() for t in traces])
    return AggregateCurve(
        label=label,
        queries=grid,
        ef_mean=stack.mean(axis=0),
        ef_std=stack.std(axis=0),
        config_hash=traces[0].config_hash,
        seeds=tuple(t.seed for t in traces),
    )


def fit_exponential_rate(steps: np.ndarray, ef: np.ndarray, tail_fraction: float = 0.5) -> tuple:
    """Least-squares slope of log e_f over the tail of a decay curve.

    A non-finite e_f is refused.  Points at or below EF_FIT_FLOOR are dropped
    (numerical plateau), then the last `tail_fraction` of the remainder is
    fitted.  Returns (rate per step, r_squared).  Requires at least 10 usable points.
    """
    steps = np.asarray(steps, dtype=float)
    ef = np.asarray(ef, dtype=float)
    bad = np.flatnonzero(~np.isfinite(ef))
    if bad.size:
        raise ValueError(f"e_f is {ef[bad[0]]} at iteration {steps[bad[0]]:.17g}")
    keep = ef > EF_FIT_FLOOR
    steps, ef = steps[keep], ef[keep]
    if len(ef) < 10:
        raise ValueError(
            f"rate fit needs at least 10 points above the {EF_FIT_FLOOR} floor, got {len(ef)}"
        )
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")
    start = len(ef) - max(int(np.ceil(tail_fraction * len(ef))), 10)
    t = steps[start:]
    logy = np.log(ef[start:])
    t_mean = t.mean()
    y_mean = logy.mean()
    denom = float(np.sum((t - t_mean) ** 2))
    if denom == 0.0:
        raise ValueError("rate fit needs more than one distinct abscissa")
    rate = float(np.sum((t - t_mean) * (logy - y_mean)) / denom)
    residual = logy - (y_mean + rate * (t - t_mean))
    ss_tot = float(np.sum((logy - y_mean) ** 2))
    ss_res = float(np.sum(residual**2))
    r_squared = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return rate, r_squared
