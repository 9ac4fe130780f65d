"""The package names that the benchmark patches by name still exist and are used.

bench/workloads.py and bench/spans.py swap package functions, methods and
table entries by name while a rep runs.  Applying their patches here makes
a rename in src fail this suite, not only a traced benchmark run.  The
tiny run reps read the traces as the benchmark reads them.
"""

from pathlib import Path

import numpy as np
import pytest

from zojade import ExperimentConfig, harness
from zojade.objectives import FAMILIES

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_patches_apply_and_record_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans
    import workloads

    cfg = ExperimentConfig({
        "topology": {"name": "erdos_renyi", "n": 5, "p": 0.6, "seed": 3},
        "instance": {"family": "separable_quadratic", "d": 2, "seed": 1},
        "mu": 0.05,
        "budget": 5 * 20,
        "seeds": [1, 2],
        "algorithms": [{"name": "zo_jade"}, {"name": "gradient_tracking"}],
    })
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        hooks = workloads.Hooks(patches)
        spans.instrument(tracer, patches)
        harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
        # bench/run.py takes the gap of the weights build_topology returned
        gap = harness.spectral_gap(hooks.last_P)
    finally:
        patches.restore()
    assert isinstance(hooks.last_P, np.ndarray) and hooks.last_P.shape == (5, 5)
    assert 0.0 < gap < 1.0
    names = {spans.SPAN_NAMES[k] for k in tracer.arrays()["name"]}
    assert names == set(spans.SPAN_NAMES) - {"rep", "harness.config"}
    metrics = spans.layer_metrics(tracer.arrays())
    assert metrics["oracle.queries"] == hooks.queries() == 5 * 2 * (20 * 5 + 25 * 4)
    assert metrics["graphs.spectral_gap_calls"] == 1
    assert metrics["harness.csv_files"] == 2 * 3
    # a run measures its trace rows in passes over its held records: each
    # run here holds 3 or 4 records of 2 replicas, far under the element
    # budget, so one pass per run, where every record was one call before
    runs = np.count_nonzero(tracer.arrays()["name"] == spans.SPAN_NAMES.index("algorithms.run"))
    assert runs == 2 and metrics["metrics.record_calls"] == runs


def test_every_family_builds_inside_a_recorded_build_span(tmp_path, monkeypatch):
    # bench/spans.py wraps the public builders under their module names; a
    # family table that held the builders themselves would bypass the wrappers
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans

    data = tmp_path / "data.csv"
    data.write_text("".join(f"{k % 5 - 2},{k * k % 7 / 3},{1 if k % 3 else -1}\n"
                            for k in range(12)), encoding="utf-8")
    params = {
        "separable_quadratic": {"d": 2, "seed": 1},
        "ridge_synthetic": {"d": 2, "per_agent": 3, "seed": 1},
        "synthetic_classification": {"d": 3, "per_agent": 4, "seed": 1},
        "ridge_csv": {"path": str(data)},
        "logistic_csv": {"path": str(data)},
        "quartic": {},
    }
    assert set(params) == set(FAMILIES)
    configs = {
        family: ExperimentConfig({
            "topology": {"name": "ring", "n": 3},
            "instance": {"family": family, **given},
            "mu": 0.05,
            "budget": 70,
            "seeds": [1],
            "algorithms": [{"name": "zo_jade"}],
        })
        for family, given in params.items()
    }
    build_id = spans.SPAN_NAMES.index("objectives.build")
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.instrument(tracer, patches)
        for family, cfg in configs.items():
            before = len(tracer.name)
            harness.build_instance(cfg)
            assert build_id in tracer.arrays()["name"][before:], family
    finally:
        patches.restore()


def test_the_gamma_ladder_runs_as_one_batch_under_the_span_patches(monkeypatch):
    # the three mu of criterion 6 advance as one replica batch: 4,000 traced
    # steps where three separate runs took 12,000, with every query traced
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans
    import workloads

    tracer, patches = spans.Tracer(), spans.Patches()
    report = harness.VerifyReport()
    try:
        hooks = workloads.Hooks(patches)
        spans.instrument(tracer, patches)
        harness.check_gamma_scaling(report)
    finally:
        patches.restore()
    assert report.all_passed, report.checks
    metrics = spans.layer_metrics(tracer.arrays())
    assert metrics["algorithms.steps"] == 4000
    # 3 replicas x 4 agents x (2d + 1 = 3) x 4,000 steps, then one 2d-query
    # stationarity estimate per mu on the global cost
    assert metrics["oracle.queries"] == hooks.queries() == 3 * 4 * 3 * 4000 + 3 * 2
    # every round still runs and counts, but the replicas reach float cycles
    # of period 2, 1 and 2 by round 55 and the counter answers the repeated
    # probe sets: 59 family calls, where each of the 4,003 oracle calls made
    # one without the store
    assert metrics["objectives.eval_calls"] <= 100


def test_the_lyapunov_battery_counts_each_query_once_under_the_span_patches(monkeypatch):
    # each battery makes five oracle calls over all its samples (the estimates,
    # then both sides of V's differences at two inner steps); the other 10 are
    # the Newton steps of the logistic and quartic estimator-zero solves.  No
    # estimator call nests in another, so the traced queries are the counters'
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans
    import workloads

    tracer, patches = spans.Tracer(), spans.Patches()
    report = harness.VerifyReport()
    try:
        hooks = workloads.Hooks(patches)
        spans.instrument(tracer, patches)
        harness.check_lyapunov(report, points=40)
    finally:
        patches.restore()
    assert report.all_passed, report.checks
    metrics = spans.layer_metrics(tracer.arrays())
    assert metrics["oracle.queries"] == hooks.queries() == 9118
    assert metrics["oracle.calls"] == 3 * 5 + 10


@pytest.mark.parametrize("name", ["paper_n20", "scale_n200"])
def test_a_tiny_run_rep_reads_every_trace_without_a_problem(tmp_path, monkeypatch, name):
    # a rep checks each trace's last row by attribute, and reports a row at
    # the wrong step or query count as a problem
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import spans
    import workloads

    patches = spans.Patches()
    try:
        hooks = workloads.Hooks(patches)
        workload = workloads.make_workload(name, workloads.DEFAULT_SEED, tmp_path, tiny=True)
        rep = workload.rep(hooks)
    finally:
        patches.restore()
    assert rep.problems == [] and rep.failed_units == 0
    runs = sum(len(c.raw["seeds"]) * len(c.raw["algorithms"]) for c in workload.configs)
    assert rep.units == runs
