"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/selftest.py

Covers the self-time arithmetic on a synthetic span tree, a tiny-size
smoke run of every workload with tracing off and on that checks every
metric of BENCHMARK.json appears with its unit, the pin on the shipped
configs, and the refusal to run outside a zojade checkout.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
from hostspeed import INTERVAL_S, REFERENCE_KERNEL_S, SpeedSampler  # noqa: E402
from spans import SPAN_NAMES, Patches, inside, layer_metrics, self_times  # noqa: E402
from workloads import (WORKLOADS, Hooks, RunWorkload, VerifyWorkload,  # noqa: E402
                       make_workload, paper_configs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree(rows):
    """Span arrays from (name, start, end, parent, work1, work2) rows."""
    names, start, end, parent, w1, w2 = zip(*rows)
    return {
        "name": np.array([SPAN_NAMES.index(n) for n in names]),
        "start": np.array(start, dtype=float),
        "end": np.array(end, dtype=float),
        "parent": np.array(parent),
        "work1": np.array(w1, dtype=float),
        "work2": np.array(w2, dtype=float),
    }


def test_self_time_is_duration_minus_direct_children():
    spans = _tree([
        ("rep", 0.0, 10.0, -1, 0, 0),              # 0: children 1, 2
        ("algorithms.step", 1.0, 4.0, 0, 0, 0),    # 1: child 3
        ("algorithms.step", 5.0, 9.0, 0, 2, 0),    # 2: children 4, 5
        ("oracle", 1.5, 3.5, 1, 21, 1680),         # 3: child 6
        ("oracle", 5.0, 6.0, 2, 21, 1680),         # 4: child 7
        ("metrics.record", 7.0, 8.5, 2, 0, 0),     # 5: child 8
        ("objectives.eval", 2.0, 3.0, 3, 21, 100), # 6
        ("objectives.eval", 5.25, 5.75, 4, 21, 100),  # 7
        ("objectives.eval", 7.5, 8.0, 5, 4, 50),   # 8: not under the oracle
    ])
    own = self_times(spans["parent"], spans["end"] - spans["start"])
    np.testing.assert_allclose(own, [3.0, 1.0, 1.5, 1.0, 0.5, 1.0, 1.0, 0.5, 0.5])
    assert inside(spans["name"], spans["parent"], "algorithms.step").tolist() == [
        False, False, False, True, True, True, True, True, True]

    m = layer_metrics(spans)
    assert m["algorithms.steps"] == 2
    assert m["algorithms.step_self_s"] == pytest.approx(2.5)
    assert m["algorithms.step_ms_p50"] == pytest.approx(3500.0)
    assert m["algorithms.clamp_count"] == 2
    assert m["oracle.calls"] == 2 and m["oracle.queries"] == 42
    assert m["oracle.self_s"] == pytest.approx(1.5)
    assert m["objectives.eval_calls"] == 2 and m["objectives.eval_rows"] == 42
    assert m["objectives.eval_s"] == pytest.approx(1.5)
    assert m["objectives.eval_bytes_computed"] == 200
    assert m["metrics.record_s"] == pytest.approx(1.5)


def test_build_time_excludes_rng_and_counts_nested_builders_once():
    spans = _tree([
        ("objectives.build", 0.0, 10.0, -1, 0, 0),  # synthetic_classification
        ("rng", 1.0, 7.0, 0, 500, 0),
        ("objectives.build", 7.0, 9.0, 0, 0, 0),    # logistic_instance inside it
        ("objectives.eval", 7.5, 8.0, 2, 3, 0),     # ground-truth solve
    ])
    m = layer_metrics(spans)
    assert m["objectives.build_s"] == pytest.approx(4.0)
    assert m["rng.calls"] == 1 and m["rng.draws"] == 500 and m["rng.self_s"] == 6.0
    assert m["objectives.eval_calls"] == 0


def test_speed_sampler_samples_during_a_rep_and_leaves_its_time_out():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 6 * INTERVAL_S:
            pass
        t1, c1 = time.perf_counter(), sampler.clock()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(sampler.samples) >= 5  # one before, several during, one after
    inside_s = sum(sampler.samples[1:-1])
    assert (t1 - t0) - (c1 - c0) == pytest.approx(inside_s, abs=0.5 * min(sampler.samples))
    assert sampler.factor() == REFERENCE_KERNEL_S / statistics.fmean(sampler.samples)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_smoke_run_reports_every_metric_with_its_unit(name):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    work_dir = Path(tempfile.mkdtemp(dir=BENCH_DIR))
    old_tempdir, tempfile.tempdir = tempfile.tempdir, str(work_dir)
    patches = Patches()
    try:
        hooks = Hooks(patches)
        results = {}
        for trace in (False, True):
            workload = make_workload(name, 3, work_dir, tiny=True)
            results[trace] = bench_run.measure(workload, hooks, 0.0, trace, None)
    finally:
        patches.restore()
        tempfile.tempdir = old_tempdir
        shutil.rmtree(work_dir)

    for trace, result in results.items():
        assert result["problems"] == [] and result["failed"] == 0
        assert result["attempted"] >= 1
    e2e = results[False]["end_to_end"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert set(e2e) == set(bench_run.END_TO_END_UNITS)
    assert all(e2e[k]["median"] > 0 and math.isfinite(e2e[k]["median"]) for k in e2e)
    per_layer = results[True]["per_layer"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_run.PER_LAYER_UNITS
    assert set(per_layer) == set(bench_run.PER_LAYER_UNITS)
    assert all(math.isfinite(v) for v in per_layer.values())
    assert per_layer["oracle.queries"] > 0 and per_layer["algorithms.steps"] > 0


def test_an_edited_shipped_config_fails_every_rep_at_every_seed():
    def edited(seed, tiny):
        configs = paper_configs(seed, tiny)
        configs[1].raw["budget"] -= 21
        return configs

    work_dir = Path(tempfile.mkdtemp(dir=BENCH_DIR))
    try:
        assert RunWorkload("paper_n20", paper_configs, 2, work_dir).input_problems == []
        problems = RunWorkload("paper_n20", edited, 2, work_dir).input_problems
    finally:
        shutil.rmtree(work_dir)
    assert problems == ["config logistic differs from its copy in bench/pinned.json"]
    assert VerifyWorkload().input_problems == []


def test_refuses_to_run_outside_a_checkout():
    bare = Path(tempfile.mkdtemp(dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", "tmp*"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "paper_n20", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=""))
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
