"""The benchmark's workloads: inputs derived from a seed, one rep, output checks.

Every rep drives zojade through its public entry points only
(``ExperimentConfig.from_file`` + ``run_experiment``, or ``verify_suite``),
one call after the other in this process.  Besides the optional span
recording of ``spans.py``, two light hooks are always installed while a
workload runs, because the end-to-end metrics need them:

* ``harness.build_topology`` / ``harness.build_instance`` are timed
  (two calls per config), which gives the set-up share of a rep;
* every ``BlackBoxObjective`` constructed during a rep is kept, so the
  queries of the rep are read from the objectives' own counters.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Workload seed that reproduces the shipped configs and the pinned values.
DEFAULT_SEED = 1


@dataclass
class Rep:
    """Outcome of one rep: timings, exact work, and what the checks found.

    `wall_s` and `setup_s` are seconds of this host, read from the hooks'
    clock; `speed` turns them into seconds at the reference host speed
    (see hostspeed.py).
    """

    wall_s: float
    setup_s: float
    queries: int
    units: int
    failed_units: int
    digest: str
    problems: list = field(default_factory=list)
    speed: float = 1.0

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.speed

    @property
    def queries_per_s(self) -> float:
        return self.queries / (self.ref_wall_s - self.ref_setup_s)


class Hooks:
    """The always-on set-up timer and objective registry (see module doc).

    `clock` is the time source of every rep timing; the runner points it at
    a clock that leaves out host-speed sampling.
    """

    def __init__(self, patches):
        from zojade import harness, oracle

        self.clock = time.perf_counter
        self.setup_s = 0.0
        self.last_P = None
        self.objectives = []
        hooks = self

        objective_init = oracle.BlackBoxObjective.__dict__["__init__"]

        def registered_init(obj, *args, **kwargs):
            objective_init(obj, *args, **kwargs)
            hooks.objectives.append(obj)

        patches.set(oracle.BlackBoxObjective, "__init__", registered_init)

        def timed(fn, keep_matrix):
            def wrapper(cfg):
                t0 = hooks.clock()
                out = fn(cfg)
                hooks.setup_s += hooks.clock() - t0
                if keep_matrix:
                    hooks.last_P = out[1]
                return out

            return wrapper

        patches.replace_function(harness.build_topology, timed(harness.build_topology, True))
        patches.replace_function(harness.build_instance, timed(harness.build_instance, False))

    def reset(self) -> None:
        self.setup_s = 0.0
        self.objectives = []

    def queries(self) -> int:
        return sum(obj.query_count for obj in self.objectives)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _load_pins() -> dict:
    with open(BENCH_DIR / "pinned.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class ConfigRun:
    """One experiment config of a run workload, with its e_f threshold."""

    key: str
    raw: dict
    threshold: float


class RunWorkload:
    """``zojade run`` on one or more configs, CSVs into a fresh directory per rep.

    `build(seed, tiny)` gives the configs.  Full-size inputs are pinned: at
    every seed, the configs built for the default seed must equal the copies
    in pinned.json, and at the default seed every run's queries-to-threshold
    must equal its pinned value.  A mismatch fails every rep.
    """

    def __init__(self, name: str, build, seed: int, work_dir: Path, tiny: bool = False):
        from zojade import ALGORITHMS, ExperimentConfig

        configs = build(seed, tiny)
        self.configs = configs
        self.work_dir = work_dir
        self.paths = []
        self.expected_queries = 0
        self.expected_final = {}
        for spec in configs:
            path = work_dir / f"{spec.key}.json"
            path.write_text(json.dumps(spec.raw), encoding="utf-8")
            self.paths.append(path)
            cfg = ExperimentConfig(spec.raw)
            n = cfg.data["topology"]["n"]
            d = cfg.data["instance"]["d"]
            budget = cfg.data["budget"]
            for entry in cfg.data["algorithms"]:
                per_step = ALGORITHMS[entry["name"]][1](d)
                iterations = budget // per_step
                self.expected_final[(spec.key, entry["label"])] = (iterations, per_step)
                self.expected_queries += n * iterations * per_step * len(cfg.seeds)
        self.input_problems = []
        self.pins = None
        if not tiny:
            pins = _load_pins()[name]
            for spec in build(DEFAULT_SEED, False):
                if spec.raw != pins["configs"][spec.key]:
                    self.input_problems.append(f"config {spec.key} differs from its copy "
                                               f"in bench/pinned.json")
            if seed == DEFAULT_SEED:
                self.pins = pins

    def rep(self, hooks: Hooks, tracer=None) -> Rep:
        from zojade import ExperimentConfig, queries_to_threshold, run_experiment

        outs = [Path(tempfile.mkdtemp(prefix=f"{spec.key}-", dir=self.work_dir))
                for spec in self.configs]
        hooks.reset()
        clock = hooks.clock
        span = tracer.open(0) if tracer is not None else None
        t0 = clock()
        parse_s = 0.0
        results = []
        for path, out in zip(self.paths, outs):
            tp = clock()
            cfg = ExperimentConfig.from_file(str(path))
            parse_s += clock() - tp
            results.append(run_experiment(cfg, out_dir=str(out), quiet=True))
        wall = clock() - t0
        if span is not None:
            tracer.close(span)

        problems = list(self.input_problems)
        runs = failed = 0
        for spec, result in zip(self.configs, results):
            for label, by_seed in result.traces.items():
                iterations, per_step = self.expected_final[(spec.key, label)]
                for seed, trace in by_seed.items():
                    runs += 1
                    last = trace.rows[-1]
                    if trace.failed:
                        failed += 1
                        problems.append(f"{spec.key}/{label}/seed{seed} failed: "
                                        f"{trace.diagnostic}")
                    elif (last.iteration, last.queries_per_agent) != (
                            iterations, iterations * per_step):
                        problems.append(
                            f"{spec.key}/{label}/seed{seed}: last row at iteration "
                            f"{last.iteration} with {last.queries_per_agent} queries/agent, "
                            f"expected {iterations} and {iterations * per_step}")
                    if self.pins is not None:
                        got = queries_to_threshold(trace, spec.threshold)
                        pinned = self.pins["queries_to_threshold"][spec.key][label][str(seed)]
                        if got != (math.inf if pinned is None else pinned):
                            problems.append(f"{spec.key}/{label}/seed{seed}: queries to "
                                            f"{spec.threshold:g} = {got}, pinned {pinned}")
        queries = hooks.queries()
        if queries != self.expected_queries:
            problems.append(f"objectives counted {queries} queries, "
                            f"expected {self.expected_queries}")
        digest = _digest([p for out in outs for p in sorted(out.iterdir())])
        for out in outs:
            shutil.rmtree(out)
        if problems:
            failed = runs
        return Rep(wall, parse_s + hooks.setup_s, queries, runs, failed, digest, problems)


class VerifyWorkload:
    """``zojade verify --config configs/quickstart.json``; inputs do not depend on the seed.

    The config must equal paper_n20's pinned copy of quickstart, and the
    queries of a rep must equal the count pinned in pinned.json.
    """

    expected_queries = None
    path = ROOT / "configs" / "quickstart.json"
    paths = [path]

    def __init__(self):
        pins = _load_pins()
        self.pinned_queries = pins["verify_desk"]["queries"]
        self.input_problems = []
        if _shipped("quickstart") != pins["paper_n20"]["configs"]["quickstart"]:
            self.input_problems.append("configs/quickstart.json differs from its copy "
                                       "in bench/pinned.json")

    def rep(self, hooks: Hooks, tracer=None) -> Rep:
        from zojade import ExperimentConfig, verify_suite

        hooks.reset()
        clock = hooks.clock
        span = tracer.open(0) if tracer is not None else None
        t0 = clock()
        cfg = ExperimentConfig.from_file(str(self.path))
        parse_s = clock() - t0
        report = verify_suite(cfg)
        wall = clock() - t0
        if span is not None:
            tracer.close(span)
        failed = [c for c in report.checks if not c["passed"]]
        problems = self.input_problems + [f"check {c['name']} failed: {c['detail']}"
                                          for c in failed]
        queries = hooks.queries()
        if queries != self.pinned_queries:
            problems.append(f"objectives counted {queries} queries, "
                            f"pinned {self.pinned_queries}")
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        failed_checks = len(report.checks) if problems else len(failed)
        return Rep(wall, parse_s + hooks.setup_s, queries, len(report.checks),
                   failed_checks, digest, problems)


def setup_pass(workload, clock) -> float:
    """Seconds of `clock` for the set-up work of one rep, done outside a rep.

    For each config of the workload: parse it, then ``harness.build_topology``
    and ``harness.build_instance``, the calls that both ``run_experiment``
    and ``verify_suite`` start with.
    """
    from zojade import ExperimentConfig, harness

    t0 = clock()
    for path in workload.paths:
        cfg = ExperimentConfig.from_file(str(path))
        harness.build_topology(cfg)
        harness.build_instance(cfg)
    return clock() - t0


def _shipped(name: str) -> dict:
    with open(ROOT / "configs" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def paper_configs(seed: int, tiny: bool) -> list:
    """Both shipped configs; the workload seed s gives run seeds s..s+4."""
    out = []
    for key, threshold in (("quickstart", 1e-6), ("logistic", 1e-4)):
        raw = _shipped(key)
        raw["seeds"] = [seed + k for k in range(5)]
        if tiny:
            raw["seeds"] = raw["seeds"][:1]
            raw["budget"] = 30 * (2 * raw["instance"]["d"] + 1)
        out.append(ConfigRun(key, raw, threshold))
    return out


def scale_configs(seed: int, tiny: bool) -> list:
    """The n=200, d=50 scale-up config; seed s gives run seed s, instance s+4, graph s+6."""
    with open(BENCH_DIR / "scale_n200.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["seeds"] = [seed]
    raw["instance"]["seed"] = seed + 4
    raw["topology"]["seed"] = seed + 6
    if tiny:
        raw["topology"].update(n=20, p=0.3)
        raw["instance"]["d"] = 6
        raw["budget"] = 10 * 13
    return [ConfigRun("scale_n200", raw, 1e-4)]


WORKLOADS = ("paper_n20", "scale_n200", "verify_desk")


def make_workload(name: str, seed: int, work_dir: Path, tiny: bool = False):
    if name == "paper_n20":
        return RunWorkload(name, paper_configs, seed, work_dir, tiny)
    if name == "scale_n200":
        return RunWorkload(name, scale_configs, seed, work_dir, tiny)
    if name == "verify_desk":
        return VerifyWorkload()
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def pin_values(name: str, work_dir: Path) -> dict:
    """The values pinned.json holds for workload `name` (to refresh it).

    For a run workload: its configs at the default seed and the
    queries-to-threshold of every run.  For verify_desk: the queries of a rep.
    """
    from zojade import ExperimentConfig, queries_to_threshold, run_experiment

    if name == "verify_desk":
        from spans import Patches
        from zojade import verify_suite

        patches = Patches()
        try:
            hooks = Hooks(patches)
            verify_suite(ExperimentConfig.from_file(str(VerifyWorkload.path)))
        finally:
            patches.restore()
        return {"queries": hooks.queries()}
    configs = (paper_configs if name == "paper_n20" else scale_configs)(DEFAULT_SEED, False)
    pins = {"configs": {}, "queries_to_threshold": {}}
    for spec in configs:
        pins["configs"][spec.key] = spec.raw
        out = tempfile.mkdtemp(dir=work_dir)
        result = run_experiment(ExperimentConfig(spec.raw), out_dir=out, quiet=True)
        shutil.rmtree(out)
        pins["queries_to_threshold"][spec.key] = {
            label: {str(s): (None if math.isinf(q) else q)
                    for s, t in by_seed.items()
                    for q in [queries_to_threshold(t, spec.threshold)]}
            for label, by_seed in result.traces.items()
        }
    return pins

