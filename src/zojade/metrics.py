"""Run traces, the relative-suboptimality metric, and curve analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

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


#: The columns of a trace and their types, in CSV order: a trace's rows are
#: one array of this dtype, whose elements are numpy records.
TRACE_DTYPE = np.dtype((np.record, [
    ("iteration", "i8"), ("queries_per_agent", "i8"), ("e_f", "f8"), ("consensus_error", "f8"),
    ("tracking_residual_y", "f8"), ("tracking_residual_z", "f8"), ("clamp_count", "i8")]))

TRACE_COLUMNS = TRACE_DTYPE.names


@dataclass
class RunTrace:
    """Per-iteration record of one (algorithm, seed) run."""

    algorithm: str
    seed: int
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, TRACE_DTYPE))
    config_hash: str = ""
    label: str = ""
    ef_mode: str = "relative"
    failed: bool = False
    diagnostic: str = ""
    final_x: np.ndarray | None = None

    def queries(self) -> np.ndarray:
        return self.rows["queries_per_agent"].astype(float)

    def iterations(self) -> np.ndarray:
        return self.rows["iteration"].astype(float)

    def ef_values(self) -> np.ndarray:
        return self.rows["e_f"].astype(float)


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
