"""Experiment configuration, runner, bound-verification suite, CSV output.

A JSON config file describes one experiment: a topology, a problem
instance, a probe step mu, a per-agent query budget, a list of seeds and a
list of algorithm entries.  Unknown or repeated keys anywhere in the file are
rejected, and so are malformed values, before anything is built.  The sha256
hash of the fully defaulted config is stamped into every output file, and
re-running a config reproduces every CSV byte for byte.

Schema (each default lives in one place, named in parentheses).  Every
value's kind is one entry of errors.KINDS, declared once (an instance
key's in objectives.PARAM_KINDS) and checked by errors.check_entry;
numbers are JSON-native (int or float, never a bool) and finite:

    topology    name plus the topology's parameters and their kinds, see
                graphs.TOPOLOGIES; n is the agent count
    instance    family plus the family's parameters, whose keys
                objectives.FAMILIES derives from the family builder's
                signature; only the keys a config sets are passed on, so the
                signature holds the defaults; n comes from the topology
    mu          finite-difference step (RunConfig, as are the next three)
    budget      max queries per agent
    record_every  trace stride
    x0_scale    scale of the seeded initial iterates
    seeds       list of distinct integers
    out_dir     output directory, a non-empty path string ("results")
    algorithms  list of {name, label?, mu?, and the algorithm's own
                parameters: epsilon?, z_floor? (JadeConfig) or eta?
                (BaselineConfig)}; a label (default: the name) is unique
                and one file-name component; checked like topology and
                instance, so a message names a key as algorithms.<key>

Outputs: one `<label>_seed<seed>.csv` trace per run and one
`<label>_aggregate.csv` per algorithm entry with columns
(queries, ef_mean, ef_std) on the query grid its completed runs share.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .algorithms import (
    CONFIG_CLASS, BaselineConfig, JadeConfig, RunConfig, draw_initial_iterates,
    gradient_tracking_step, initial_state, param_kinds, run,
)
from .errors import (
    FILE_NAME, LIST, OBJECT, PATH, POS_NUM, SEEDS, ConfigurationError, InstanceConstructionError,
    check_entry, require,
)
from .graphs import TOPOLOGIES, check_weights, metropolis_hastings, spectral_gap, topology_from_spec
from .metrics import (
    TRACE_COLUMNS, AggregateCurve, RunTrace, aggregate_traces, fit_exponential_rate, loss_metric,
    squares,
)
from .objectives import (
    FAMILIES, ProblemInstance, QuadraticObjective, quartic_instance, ridge_synthetic,
    separable_quadratic_instance, shard_round_robin, synthetic_classification,
)
from .oracle import (
    BlackBoxObjective, admissible_mu, descent_coefficient, estimate_both, estimate_gradient,
    gradient_error_bound, gradient_lipschitz_bound, hessian_error_bound, mu2,
)
from .rng import Xoshiro256

DEFAULTS = {
    "record_every": RunConfig.record_every,
    "x0_scale": RunConfig.x0_scale,
    "out_dir": "results",
}

#: the run parameters every algorithm takes -> their kinds, declared on the run configs
_RUN_KINDS = param_kinds(RunConfig)

#: top-level key -> kind; the keys that DEFAULTS does not fill are required
_TOP_KINDS = {"out_dir": PATH, "topology": OBJECT, "instance": OBJECT, "seeds": SEEDS,
              "algorithms": LIST, **_RUN_KINDS}

#: topology name -> (required keys, optional keys), each mapping a key to its kind
_TOPOLOGY_SCHEMAS = {name: (kinds, {}) for name, (_, kinds) in TOPOLOGIES.items()}

#: family -> (required keys, optional keys), each mapping a key to its kind
_INSTANCE_SCHEMAS = {name: entry[1:] for name, entry in FAMILIES.items()}

#: algorithm -> (required keys, optional keys) of its entries: a label, an own
#: mu and the parameters its config class adds to the run parameters
_ALGORITHM_SCHEMAS = {
    name: ({}, {"label": FILE_NAME, "mu": _RUN_KINDS["mu"]} | {
        key: kind for key, kind in param_kinds(cls).items() if key not in _RUN_KINDS})
    for name, cls in CONFIG_CLASS.items()
}


def _check_schema(mapping, tag: str, schemas: dict, context: str) -> None:
    """Check an object whose `tag` key selects its (required, optional) key kinds."""
    require(OBJECT, **{context: mapping})
    value = mapping.get(tag)
    if value not in sorted(schemas):  # a list, so that no value needs to be hashable
        raise ConfigurationError(f"{context}.{tag} must be one of {sorted(schemas)}, got {value!r}")
    required, optional = schemas[value]
    params = {key: v for key, v in mapping.items() if key != tag}
    check_entry(params, required | optional, f"{context}[{value}]", f"{context}.", required)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if it gives a key twice, whose last value json keeps silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} given twice")
    return obj


@dataclass
class ExperimentConfig:
    """Validated experiment description with all defaults applied."""

    data: dict
    config_hash: str = field(init=False)

    def __post_init__(self):
        self.data = _validate_config(self.data)
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        self.config_hash = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh, object_pairs_hook=_unique_keys)
        except (OSError, ValueError) as exc:  # not UTF-8, not JSON, or a key given twice
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls(raw)

    @property
    def seeds(self) -> list:
        return list(self.data["seeds"])

    @property
    def out_dir(self) -> str:
        return self.data["out_dir"]


def _validate_config(raw: dict) -> dict:
    require(OBJECT, config=raw)
    cfg = {**DEFAULTS, **copy.deepcopy(raw)}
    check_entry(cfg, _TOP_KINDS, "config")

    _check_schema(cfg["topology"], "name", _TOPOLOGY_SCHEMAS, "topology")
    _check_schema(cfg["instance"], "family", _INSTANCE_SCHEMAS, "instance")
    labels = set()
    for entry in cfg["algorithms"]:
        _check_schema(entry, "name", _ALGORITHM_SCHEMAS, "algorithms")
        for f in fields(CONFIG_CLASS[entry["name"]]):
            if f.name not in _RUN_KINDS:
                entry.setdefault(f.name, f.default)
        label = entry.setdefault("label", entry["name"])
        if label in labels:
            raise ConfigurationError(f"duplicate algorithm label '{label}'")
        labels.add(label)
    return cfg


def build_topology(cfg: ExperimentConfig) -> tuple:
    A = topology_from_spec(**cfg.data["topology"])
    return A, metropolis_hastings(A)


def build_instance(cfg: ExperimentConfig) -> ProblemInstance:
    """Call the family's builder with the agent count and the instance keys
    the config sets."""
    params = dict(cfg.data["instance"])
    return FAMILIES[params.pop("family")][0](n=cfg.data["topology"]["n"], **params)


def algorithm_config(cfg: ExperimentConfig, entry: dict):
    """The per-run config of one algorithm entry: its own keys, then the
    top-level run parameters it does not set."""
    cls, values = CONFIG_CLASS[entry["name"]], cfg.data | entry
    return cls(**{f.name: values[f.name] for f in fields(cls)})


# ---------------------------------------------------------------------------
# CSV output


def _write_csv(path: str, meta: str, columns, rows) -> None:
    """One `# meta` comment line, the column header, then one line per row
    of Python ints and floats, each written as its repr."""
    lines = [f"# {meta}", ",".join(columns)]
    lines += [",".join(map(repr, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(path: str, trace: RunTrace) -> None:
    meta = (
        f"algorithm={trace.algorithm} label={trace.label} seed={trace.seed} "
        f"config_hash={trace.config_hash} ef_mode={trace.ef_mode} "
        f"failed={trace.failed} diagnostic={trace.diagnostic!r}"
    )
    _write_csv(path, meta, trace.rows.dtype.names, trace.rows.tolist())


def write_aggregate_csv(path: str, curve: AggregateCurve) -> None:
    seeds = "|".join(str(s) for s in curve.seeds)
    meta = f"label={curve.label} config_hash={curve.config_hash} seeds={seeds}"
    rows = zip(curve.queries.astype(int).tolist(), curve.ef_mean.tolist(), curve.ef_std.tolist())
    _write_csv(path, meta, ("queries", "ef_mean", "ef_std"), rows)


def read_trace_csv(path: str) -> tuple:
    """Read back (iterations, e_f) from a trace CSV, for rate fitting."""
    iterations, efs = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read trace {path}: {exc}") from exc
    rows = [(k, line.strip()) for k, line in enumerate(lines, 1)]
    rows = [(k, r) for k, r in rows if r and not r.startswith("#")]
    if not rows or tuple(rows[0][1].split(",")) != TRACE_COLUMNS:
        raise ConfigurationError(f"{path}: not a trace CSV")
    at, ef = TRACE_COLUMNS.index("iteration"), TRACE_COLUMNS.index("e_f")
    for k, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ConfigurationError(
                f"{path}, line {k}: {len(parts)} fields, expected {len(TRACE_COLUMNS)}: {row!r}"
            )
        try:
            iterations.append(float(parts[at]))
            efs.append(float(parts[ef]))
        except ValueError as exc:
            raise ConfigurationError(f"{path}, line {k}: bad trace row {row!r}") from exc
    return np.array(iterations), np.array(efs)


# ---------------------------------------------------------------------------
# Experiment driver


@dataclass
class ExperimentResult:
    traces: dict
    curves: dict
    failures: list
    out_dir: str

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    seeds: list | None = None,
    quiet: bool = False,
) -> ExperimentResult:
    """Run every (algorithm, seed) replica of a config and write the CSVs;
    each algorithm entry is one batched `run` over all the seeds.

    Initial iterates depend only on the seed, so all algorithms see
    identical starting points on each seed.  Returns the traces, the
    per-algorithm aggregate curves, and the list of failed runs.  Failed
    runs keep their trace files but are left out of the aggregate curve;
    if every seed of an algorithm failed, no aggregate is written.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    seed_list = cfg.seeds if seeds is None else list(seeds)
    require(SEEDS, seeds=seed_list)
    _, P = build_topology(cfg)
    instance = build_instance(cfg)
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in an --out override
        raise ConfigurationError(f"cannot create output directory {out!r}: {exc}") from exc

    traces: dict = {}
    curves: dict = {}
    failures: list = []
    for entry in cfg.data["algorithms"]:
        label = entry["label"]
        algo_cfg = algorithm_config(cfg, entry)
        replicas = [(algo_cfg, s) for s in seed_list]
        traces[label] = dict(zip(seed_list, run(entry["name"], instance, P, replicas, label=label)))
        for seed, trace in traces[label].items():
            trace.config_hash = cfg.config_hash
            write_trace_csv(os.path.join(out, f"{label}_seed{seed}.csv"), trace)
            if trace.failed:
                failures.append((label, seed, trace.diagnostic))
        completed = [traces[label][s] for s in seed_list if not traces[label][s].failed]
        if completed:
            curve = aggregate_traces(label, completed)
            curves[label] = curve
            write_aggregate_csv(os.path.join(out, f"{label}_aggregate.csv"), curve)
            if not quiet:
                print(f"{label}: {len(completed)}/{len(seed_list)} run(s), final mean e_f = "
                      f"{curve.ef_mean[-1]:.3e}, queries/agent = {int(curve.queries[-1])}")
        elif not quiet:
            print(f"{label}: all {len(seed_list)} run(s) failed, no aggregate written")
    if not quiet:
        status = "OK" if not failures else f"{len(failures)} FAILED RUN(S)"
        print(f"experiment {cfg.config_hash}: {status}, outputs in {out}")
    return ExperimentResult(traces=traces, curves=curves, failures=failures, out_dir=out)


def queries_to_threshold(trace: RunTrace, threshold: float) -> float:
    """First recorded per-agent query count at which e_f <= threshold (inf if never)."""
    reached = np.flatnonzero(trace.rows["e_f"] <= threshold)
    return float(trace.rows["queries_per_agent"][reached[0]]) if reached.size else math.inf


# ---------------------------------------------------------------------------
# Quantitative checks of the theory


def solve_estimator_zero(instance: ProblemInstance, mu: float) -> np.ndarray:
    """Find the unique zero of the gradient estimate of the averaged cost.

    For quadratics the estimate is exact and the zero is x*.  Otherwise a
    Newton iteration with the analytic Hessian as Jacobian proxy (the true
    Jacobian differs from it by O(mu^2)) converges from x*.
    """
    consts = instance.constants
    if (consts.L2 == 0.0 and consts.L3 == 0.0) or mu == 0.0:
        return instance.x_star.copy()
    gb = instance.global_black_box()
    x = instance.x_star.astype(float).copy()
    for _ in range(200):
        F = estimate_gradient(gb, x[None], mu)[0]
        if np.max(np.abs(F)) <= 1e-13 * (1.0 + float(np.linalg.norm(x))):
            return x
        x = x - np.linalg.solve(instance.global_hessian(x), F)
    raise InstanceConstructionError(
        f"estimator-zero solve did not converge for mu={mu} on {instance.name}"
    )


def _require_admissible(instance: ProblemInstance, mu: float) -> None:
    """Reject a probe step above the admissible mu of the instance's constants."""
    consts = instance.constants
    limit = admissible_mu(consts.m, consts.L1, consts.L3, instance.d)
    if mu > limit:
        raise ConfigurationError(
            f"mu={mu} exceeds the admissible value {limit:.6g} for this instance"
        )


def gamma_mu_scaling_check(instance: ProblemInstance, mu_list: list, cfg: JadeConfig) -> tuple:
    """Run the tracking algorithm to stationarity per mu (complete graph,
    seed 1) and measure how the converged distance to x* shrinks as mu halves.
    Returns (distances to x*, ratios of consecutive converged distances,
    excluded (mu, diagnostic) pairs).

    Preconditions: at least two mu values, consecutive values halving,
    all within the admissible range of the instance constants.  Runs
    whose final mean iterate does not zero the gradient estimate (to
    1e-9, relative to 1 + its norm) are excluded with a diagnostic.
    """
    if len(mu_list) < 2:
        raise ConfigurationError("mu scaling check needs at least two mu values")
    require(POS_NUM, **{f"mu_list[{k}]": mu for k, mu in enumerate(mu_list)})
    for a, b in zip(mu_list, mu_list[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigurationError(f"mu values must halve, got {a} then {b}")
    instance.constants.require("m", "L1", "L3")
    _require_admissible(instance, max(mu_list))
    P = metropolis_hastings(topology_from_spec("complete", instance.n))

    gb = instance.global_black_box()
    traces = run("zo_jade", instance, P, [(replace(cfg, mu=mu), 1) for mu in mu_list])
    distances, excluded = [], []
    for mu, trace in zip(mu_list, traces):
        x_bar = trace.final_x.mean(axis=0)
        distances.append(float(np.linalg.norm(x_bar - instance.x_star)))
        if trace.failed:
            excluded.append((mu, f"run failed: {trace.diagnostic}"))
            continue
        grad_norm = float(np.linalg.norm(estimate_gradient(gb, x_bar[None], mu)))
        if not grad_norm <= 1e-9 * (1.0 + float(np.linalg.norm(x_bar))):
            excluded.append((mu, f"not stationary: ||grad est|| = {grad_norm:.3e}"))
    out = {mu for mu, _ in excluded}
    ratios = [distances[k] / distances[k + 1] for k in range(len(mu_list) - 1)
              if not {mu_list[k], mu_list[k + 1]} & out and distances[k + 1] > 0.0]
    return distances, ratios, excluded


def lyapunov_bounds_check(
    instance: ProblemInstance, points: int, mu: float, radius: float = 1.0
) -> tuple:
    """Check the four squared-gradient-estimate bounds at `points` sample
    points G + radius N(0, I) drawn with seed 2024.  Returns alpha(mu) and
    the failures, one line per failed bound at a point.

    With V(x) = ||grad_est(x)||^2, G the zero of the estimate, dist =
    ||x - G|| and K = L1 + mu sqrt(d) L2 / 2, the checks are

        V <= K^2 dist^2
        V >= (m^2 - 2 L1 u - u^2) dist^2          with u = d mu^2 L3 / 6
        ||dV/dx|| <= (2 L1 + mu L3 d / 3) K dist
        dV/dx . phi <= alpha(mu) V                with phi = -grad_est / hdiag_est

    dV/dx is itself only available through function queries, so it is
    approximated by central differences of V with inner step mu/100 and
    all tolerances are inflated by a Richardson estimate of the
    differencing error.  All samples go in one oracle call for the
    estimates, and in one for each side of V's differences at each inner
    step.  Steps above the admissible mu are rejected.

    The descent bound covers Hessians H whose H D^-1, D the diagonal of H,
    has a symmetric part with smallest eigenvalue at least m / (2 L1).  On a
    quadratic the estimates are exact, dV/dx . phi = -2 g^T H D^-1 g for g
    the gradient and alpha V = -(m / L1) g^T g, so the bound holds at every
    point if and only if that eigenvalue condition does.  Every diagonal
    Hessian (a separable cost) qualifies, since H D^-1 = I; the battery's
    quadratic and quartic are separable, and its logistic instance gives
    0.56 against m / (2 L1) = 0.087 at x*.  Strong convexity alone does not
    suffice: A = [[17.5, 3.3], [3.3, 1.2]] has exact m = 0.557 and
    L1 = 18.14 but eigenvalue -0.47, and fails the descent bound at 5 of
    400 points at mu = 0.05.
    """
    consts = instance.constants
    consts.require("m", "L1", "L2", "L3")
    m, L1, L2, L3 = consts.m, consts.L1, consts.L2, consts.L3
    d = instance.d
    _require_admissible(instance, mu)
    gamma = solve_estimator_zero(instance, mu)
    K = gradient_lipschitz_bound(L1, L2, mu, d)
    u = d * mu * mu * L3 / 6.0
    lower_coef = m * m - 2.0 * L1 * u - u * u
    dv_coef = (2.0 * L1 + mu * L3 * d / 3.0) * K
    alpha = descent_coefficient(mu, m, L1, L3, d)

    samples = gamma + radius * Xoshiro256(2024).normals(points, d)
    grad, hdiag = estimate_both(instance.global_black_box(points), samples, mu)
    v = squares(grad)
    dist2 = np.sum((samples - gamma) ** 2, axis=-1)
    dist = np.sqrt(dist2)
    slack = 1e-9 * (1.0 + v + K * K * dist2)

    def dV(h: float) -> np.ndarray:
        """(V(x + h e_k) - V(x - h e_k)) / (2 h) at every sample x and coordinate k."""
        box = instance.global_black_box(points * d)
        sides = (samples[:, None, :] + h * np.eye(d), samples[:, None, :] - h * np.eye(d))
        plus, minus = (squares(estimate_gradient(box, S.reshape(-1, d), mu)) for S in sides)
        return (plus - minus).reshape(points, d) / (2.0 * h)

    mu_in = mu / 100.0
    coarse, fine = dV(mu_in), dV(mu_in / 2.0)
    dv_norm = np.sqrt(squares(fine))
    fd_error = 4.0 / 3.0 * np.sqrt(squares(coarse - fine)) + 1e-10 * (1.0 + dv_norm)
    steep = dv_norm > dv_coef * dist + fd_error + 1e-9 * (1.0 + dv_coef * dist)
    positive = np.all(hdiag > 0.0, axis=-1)
    phi = -grad / np.where(positive[:, None], hdiag, 1.0)
    q_slack = fd_error * np.sqrt(squares(phi)) + 1e-9 * (1.0 + abs(alpha) * v)
    ascent = (fine[:, None, :] @ phi[:, :, None])[:, 0, 0] > alpha * v + q_slack
    failed = np.column_stack([v > K * K * dist2 + slack, v < lower_coef * dist2 - slack,
                              steep, ~positive, positive & ascent])
    names = ("upper bound failed", "lower bound failed", "derivative-norm bound failed",
             "curvature estimate not positive", "descent bound failed")
    return alpha, [f"{names[j]} at {samples[i].tolist()}" for i, j in np.argwhere(failed)]


# ---------------------------------------------------------------------------
# Verification suite.  Each public check_* is the one implementation of its
# criterion: verify_suite runs it at desk scale and the acceptance tests at
# acceptance scale, through parameters that hold only what differs between them.


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {"all_passed": self.all_passed, "checks": self.checks}, indent=2
        )


def check_consensus_matrices(report: VerifyReport, seed: int, count: int) -> None:
    """Six named graphs and `count` Erdős–Rényi graphs (n in [2, 40], p in [0.1, 0.9])
    drawn with `seed` get mixing weights that pass check_weights, with gap < 1."""
    named = [("complete", 1), ("complete", 2), ("complete", 7), ("ring", 8), ("path", 9),
             ("grid", 12)]
    graphs = [topology_from_spec(name, n) for name, n in named]
    rng = Xoshiro256(seed)
    for _ in range(count):
        n = 2 + int(rng.uniform() * 39)
        p = 0.1 + 0.8 * rng.uniform()
        graphs.append(topology_from_spec("erdos_renyi", n, p=p, seed=int(rng.uniform() * 2**31)))
    worst = 0.0
    for graph in graphs:
        P = metropolis_hastings(graph)
        problems = check_weights(P, graph)
        gap = spectral_gap(P)
        if problems or not gap < 1.0:
            detail = f"n={len(graph)}: {problems or f'gap {gap}'}"
            report.add("consensus_matrix_invariants", False, detail)
            return
        worst = max(worst, gap)
    report.add("consensus_matrix_invariants", True, f"{len(graphs)} graphs, max gap {worst:.4f}")


def _check_matrix_checker_catches_corruption(report: VerifyReport) -> None:
    # negative control: a deliberately broken matrix must be flagged
    bad = metropolis_hastings(topology_from_spec("ring", 5))
    bad[0, 0] += 0.1
    problems = check_weights(bad)
    report.add(
        "matrix_checker_negative_control",
        any("row sums" in p for p in problems),
        "; ".join(problems) or "corruption not detected",
    )


def _check_objective_instances(report: VerifyReport) -> None:
    # sharding conserves and partitions the rows
    shards = shard_round_robin(53, 7)
    flat = np.concatenate(shards)
    report.add(
        "sharding_conservation",
        len(flat) == 53 and len(np.unique(flat)) == 53,
    )
    rng = Xoshiro256(71)
    ok_grad = True
    ok_opt = True
    ok_consts = True
    for inst in (
        ridge_synthetic(3, 6, 4, seed=61),
        synthetic_classification(3, 8, 4, seed=62, w=0.2),
        quartic_instance(4),
    ):
        c = inst.constants
        if inst.name.startswith("synthetic-ridge") and not (c.L2 == 0.0 and c.L3 == 0.0):
            ok_consts = False
        if inst.name.startswith("synthetic-logistic") and c.m != 0.2:
            ok_consts = False
        gb = inst.global_black_box()
        for _ in range(20):
            x = 0.6 * rng.normals(inst.d)
            mu = 0.01 + 0.02 * rng.uniform()
            est = estimate_gradient(gb, x[None], mu)[0]
            true = inst.global_gradient(x)
            bound = gradient_error_bound(c.L2, mu, inst.d)
            if np.linalg.norm(est - true) > bound + 1e-9 * (1.0 + np.linalg.norm(true)):
                ok_grad = False
            delta = rng.normals(inst.d)
            delta /= max(np.linalg.norm(delta), 1.0)
            if inst.global_value(inst.x_star + delta) < inst.f_star - 1e-12:
                ok_opt = False
        # batch-shape rounding (gemv vs gemm) can leave one-ulp residue
        if abs(loss_metric(inst, np.tile(inst.x_star, (inst.n, 1)))) > 1e-12:
            ok_opt = False
    report.add("analytic_vs_zo_gradients", ok_grad)
    report.add("ground_truth_optimality", ok_opt)
    report.add("reported_constants", ok_consts)


def _check_averaging_contraction(report: VerifyReport) -> None:
    graph = topology_from_spec("ring", 11)
    P = metropolis_hastings(graph)
    gap = spectral_gap(P)
    rng = Xoshiro256(3)
    x = rng.normals(11)
    mean = x.mean()
    deviation = np.linalg.norm(x - mean)
    ok = True
    for _ in range(100):
        x = P @ x
        deviation = deviation * gap
        if np.linalg.norm(x - mean) > deviation + 1e-9:
            ok = False
            break
    report.add("averaging_contraction", ok, f"gap {gap:.4f}")


def _check_oracle_accounting(report: VerifyReport) -> None:
    for d in (1, 2, 5, 17, 50):
        obj = BlackBoxObjective(lambda X, block: np.sum(X * X, axis=-1), d)
        estimate_gradient(obj, np.zeros((1, d)), 0.1)
        if obj.query_count != 2 * d:
            report.add("oracle_query_accounting", False, f"gradient d={d}")
            return
        obj = BlackBoxObjective(lambda X, block: np.sum(X * X, axis=-1), d)
        estimate_both(obj, np.zeros((1, d)), 0.1)
        if obj.query_count != 2 * d + 1:
            report.add("oracle_query_accounting", False, f"joint d={d}")
            return
    report.add("oracle_query_accounting", True)


def random_dominant_quadratic(rng: Xoshiro256, d: int) -> tuple:
    """A symmetric diagonally dominant quadratic at moderate scale.

    Kept at O(1) coefficients so that float cancellation in the second
    difference stays far below the exactness tolerances even at mu = 1e-3.
    """
    R = 0.5 * rng.normals(d, d)
    A = 0.5 * (R + R.T)
    np.fill_diagonal(A, 0.0)
    A += np.diag(np.abs(A).sum(axis=1) + 1.0 + rng.uniforms(d))
    b = rng.normals(d)
    c = float(rng.uniform() - 0.5)
    return A, b, c


def check_quadratic_exactness(
    report: VerifyReport, seed: int, trials: int, d_max: int, mus: tuple
) -> None:
    """Both estimators are exact (1e-9 relative) on random quadratics of dimension <= d_max."""
    rng = Xoshiro256(seed)
    worst = 0.0
    for _ in range(trials):
        d = 1 + int(rng.uniform() * d_max)
        A, b, c = random_dominant_quadratic(rng, d)
        x = 0.5 * rng.normals(d)
        obj = BlackBoxObjective(QuadraticObjective(A[None], b[None], [c]).value_many, d)
        for mu in mus:
            (grad,), (hdiag,) = estimate_both(obj, x[None], mu)
            g_true, h_true = A @ x + b, np.diag(A)
            g_err = np.linalg.norm(grad - g_true) / np.linalg.norm(g_true)
            h_err = np.linalg.norm(hdiag - h_true) / np.linalg.norm(h_true)
            worst = np.max([worst, g_err, h_err])
    report.add("quadratic_exactness", worst <= 1e-9, f"worst relative error {worst:.2e}")


def check_error_bounds(report: VerifyReport) -> None:
    """x^3 at 1 (L2 = 6) and x^4 at 0 (L3 = 24) attain the error bounds (1e-12 relative)."""
    cube = BlackBoxObjective(lambda X, block: X[..., 0] ** 3, 1)
    quart = BlackBoxObjective(lambda X, block: X[..., 0] ** 4, 1)
    worst = 0.0
    for mu in (0.2, 0.1, 0.05):
        g_err = estimate_gradient(cube, np.array([[1.0]]), mu)[0, 0] - 3.0
        _, hdiag = estimate_both(quart, np.array([[0.0]]), mu)
        h_err = hdiag[0, 0]
        for err, bound in (
            (g_err, gradient_error_bound(6.0, mu, 1)),
            (h_err, hessian_error_bound(24.0, mu)),
        ):
            worst = np.max([worst, abs(err - bound) / bound])
    report.add("error_bound_tightness", worst <= 1e-12, f"worst relative deviation {worst:.2e}")


def check_tracking_conservation(
    report: VerifyReport, instance: ProblemInstance, P, cfg: JadeConfig, seed: int
) -> None:
    """A tracking run spends its whole budget and conserves the tracked sums (1e-9 relative)."""
    (trace,) = run("zo_jade", instance, P, [(cfg, seed)])
    rounds = trace.rows["iteration"][-1]
    res = np.max([trace.rows["tracking_residual_y"], trace.rows["tracking_residual_z"]])
    ok = not trace.failed and rounds == cfg.budget // (2 * instance.d + 1) and res <= 1e-9
    report.add("tracking_conservation", ok, f"{rounds} rounds, max residual {res:.2e}")


def check_fixed_point_and_mu_independence(
    report: VerifyReport, instance: ProblemInstance, P, epsilon: float, iterations: int, seed: int
) -> None:
    """x* is the closed-form minimum -b̄/ā (1e-12); runs at two mu end on it (1e-8)."""
    a_bar = np.diagonal(instance.family.A, axis1=1, axis2=2).sum(axis=0) / instance.n
    b_bar = instance.family.b.sum(axis=0) / instance.n
    closed_form = -b_bar / a_bar
    budget = (2 * instance.d + 1) * iterations
    cfg = JadeConfig(mu=1e-1, epsilon=epsilon, budget=budget, record_every=50)
    traces = run("zo_jade", instance, P, [(replace(cfg, mu=mu), seed) for mu in (1e-1, 1e-4)])
    star_gap = float(np.max(np.abs(closed_form - instance.x_star)))
    gap = np.max([np.abs(t.final_x - closed_form) for t in traces])
    ok = not any(t.failed for t in traces) and star_gap <= 1e-12 and gap <= 1e-8
    report.add("separable_fixed_point", ok, f"|x* - x_cf| = {star_gap:.2e}, |x - x_cf| = {gap:.2e}")
    mu_gap = float(np.max(np.abs(traces[0].final_x - traces[1].final_x)))
    report.add("mu_independence_quadratic", mu_gap <= 1e-8, f"trajectory gap {mu_gap:.2e}")


def _check_baseline_sanity(report: VerifyReport) -> None:
    instance = separable_quadratic_instance(6, 3, seed=2)
    P = metropolis_hastings(topology_from_spec("ring", 6))
    cfg = BaselineConfig(mu=0.05, eta=0.15, budget=6 * 500, record_every=10)
    (t1,) = run("gradient_tracking", instance, P, [(cfg, 3)])
    (t2,) = run("consensus_gd", instance, P, [(cfg, 3)])
    ok = not t1.failed and not t2.failed and t1.rows["e_f"][-1] < t1.rows["e_f"][0]
    detail = f"gt final e_f {t1.rows['e_f'][-1]:.2e}, cgd final e_f {t2.rows['e_f'][-1]:.2e}"
    report.add("baseline_runs", ok, detail)
    # Conservation for the tracking baseline, measured against the summand
    # magnitude: the node sum of the tracked gradients itself vanishes at
    # the optimum, so the trace's sum-relative ratio is only meaningful
    # pre-convergence.
    state = initial_state(draw_initial_iterates(3, 6, 3, 1.0), P)
    objective = instance.black_boxes()
    worst = 0.0
    for _ in range(50):
        state = gradient_tracking_step(state, objective, cfg)
        gap = float(np.max(np.abs(state.y.sum(axis=0) - state.g.sum(axis=0))))
        scale = max(float(np.max(np.abs(state.g))), 1.0)
        worst = np.max([worst, gap / scale])
    report.add("baseline_tracking_conservation", worst <= 1e-12, f"residual {worst:.2e}")


def _check_clamp_neutrality(report: VerifyReport) -> None:
    instance = separable_quadratic_instance(6, 3, seed=8)
    P = metropolis_hastings(topology_from_spec("complete", 6))
    cfg = JadeConfig(mu=0.05, epsilon=0.3, budget=7 * 200)
    (trace,) = run("zo_jade", instance, P, [(cfg, 2)])
    clamps = trace.rows["clamp_count"][-1]
    report.add("division_clamp_neutral", clamps == 0, f"{clamps} activations")


def check_exponential_convergence(
    report: VerifyReport, instance: ProblemInstance, P, cfg: JadeConfig, seed: int
) -> None:
    """The loss of a tracking run decays exponentially: fitted rate < 0, r² >= 0.95."""
    (trace,) = run("zo_jade", instance, P, [(cfg, seed)])
    rate, r2 = fit_exponential_rate(trace.iterations(), trace.ef_values())
    ok = not trace.failed and rate < 0.0 and r2 >= 0.95
    report.add("exponential_convergence", ok, f"rate {rate:.3e}, r2 {r2:.4f}")


def check_gamma_scaling(report: VerifyReport) -> None:
    """Each halving of mu shrinks the quartic's converged distance to x* by 2-8x."""
    instance = quartic_instance(4)
    cfg = JadeConfig(mu=0.2, epsilon=0.5, budget=3 * 4000, record_every=100)
    _, ratios, excluded = gamma_mu_scaling_check(instance, [0.2, 0.1, 0.05], cfg)
    ok = not excluded and len(ratios) == 2
    report.add(
        "gamma_mu_scaling",
        ok and all(2.0 <= r <= 8.0 for r in ratios),
        f"ratios {[round(r, 3) for r in ratios]}",
    )


def check_lyapunov(report: VerifyReport, points: int) -> None:
    """The four squared-gradient bounds hold at sampled points, with alpha(mu) < 0."""
    quad = separable_quadratic_instance(4, 3, seed=21)
    logi = synthetic_classification(4, 12, 4, seed=22, w=0.1, separation=1.5)
    quart = quartic_instance(4)
    ok = True
    details = []
    for inst, mu, radius in ((quad, 0.05, 1.0), (logi, 0.02, 0.5), (quart, 0.15, 0.4)):
        alpha, failures = lyapunov_bounds_check(inst, points, mu, radius=radius)
        details.append(f"{inst.name}: alpha {alpha:.3f}")
        ok = ok and not failures and alpha < 0.0
        if failures:
            details.append(failures[0])
    report.add("lyapunov_bound_battery", ok, "; ".join(details))


def check_descent_sign_flip(report: VerifyReport) -> None:
    """The descent coefficient alpha(mu) changes sign at mu2 on the quartic."""
    quart = quartic_instance(4)
    c = quart.constants
    flip = mu2(c.m, c.L1, c.L3, quart.d)
    below = descent_coefficient(flip * 0.98, c.m, c.L1, c.L3, quart.d)
    above = descent_coefficient(flip * 1.02, c.m, c.L1, c.L3, quart.d)
    report.add(
        "descent_coefficient_sign_flip",
        below < 0.0 < above,
        f"alpha({flip * 0.98:.4f}) = {below:.4f}, alpha({flip * 1.02:.4f}) = {above:.4f}",
    )


def check_determinism(report: VerifyReport, raw_config: dict) -> None:
    """Two runs of a config write the same trace and aggregate files, byte for byte."""
    cfg = ExperimentConfig(raw_config)
    expected = len(cfg.data["algorithms"]) * (len(cfg.seeds) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        run_experiment(cfg, out_dir=str(a), quiet=True)
        run_experiment(cfg, out_dir=str(b), quiet=True)
        names = sorted(os.listdir(a))
        same = names == sorted(os.listdir(b)) and all(
            (a / name).read_bytes() == (b / name).read_bytes() for name in names
        )
    detail = f"{len(names)} files compared, {expected} expected"
    report.add("byte_for_byte_determinism", same and len(names) == expected, detail)


def verify_suite(cfg: ExperimentConfig | None = None) -> VerifyReport:
    """Run the full invariant battery and return a machine-readable report.

    When a config is supplied, its topology and instance are additionally
    validated (matrix invariants and ground-truth optimality); the battery
    itself runs on fixed desk-scale problems.
    """
    report = VerifyReport()
    if cfg is not None:
        graph, P = build_topology(cfg)
        report.add("config_consensus_matrix", not check_weights(P, graph))
        instance = build_instance(cfg)
        grad_norm = float(np.linalg.norm(instance.global_gradient(instance.x_star)))
        report.add("config_instance_x_star", grad_norm <= 1e-10, f"||grad|| {grad_norm:.2e}")
    check_consensus_matrices(report, seed=7, count=25)
    _check_matrix_checker_catches_corruption(report)
    _check_averaging_contraction(report)
    _check_oracle_accounting(report)
    _check_objective_instances(report)
    check_quadratic_exactness(report, seed=11, trials=30, d_max=12, mus=(1e-1, 1e-3))
    check_error_bounds(report)
    check_tracking_conservation(
        report,
        separable_quadratic_instance(8, 4, seed=5),
        metropolis_hastings(topology_from_spec("ring", 8)),
        JadeConfig(mu=0.05, epsilon=0.2, budget=9 * 400, record_every=5),
        seed=1,
    )
    check_fixed_point_and_mu_independence(
        report,
        separable_quadratic_instance(5, 3, seed=9),
        metropolis_hastings(topology_from_spec("complete", 5)),
        epsilon=0.3,
        iterations=300,
        seed=4,
    )
    _check_baseline_sanity(report)
    _check_clamp_neutrality(report)
    check_exponential_convergence(
        report,
        separable_quadratic_instance(6, 4, seed=13),
        metropolis_hastings(topology_from_spec("ring", 6)),
        JadeConfig(mu=0.05, epsilon=0.2, budget=9 * 800, record_every=5),
        seed=6,
    )
    check_gamma_scaling(report)
    check_lyapunov(report, points=40)
    check_descent_sign_flip(report)
    check_determinism(
        report,
        {
            "topology": {"name": "ring", "n": 5},
            "instance": {"family": "separable_quadratic", "d": 3, "seed": 1},
            "mu": 0.05,
            "budget": 7 * 60,
            "seeds": [1, 2],
            "algorithms": [{"name": "zo_jade", "epsilon": 0.2}],
        },
    )
    return report
