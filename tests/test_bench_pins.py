"""The shipped configs reach their e_f thresholds at the query counts that
bench/pinned.json pins for the benchmark's paper_n20 and scale_n200 workloads.

The benchmark checks these pins only when it runs; this test puts them in
the suite, so a change to a loss or the algorithms that moves a run's
queries-to-threshold fails here.  The pin file is read, never written.
"""

import json
import math
from pathlib import Path

import pytest

from zojade import ExperimentConfig, harness, queries_to_threshold

ROOT = Path(__file__).resolve().parents[1]


# workload, config key, config path and the e_f threshold the workload pins it at
@pytest.mark.parametrize("workload, key, path, threshold", [
    ("paper_n20", "quickstart", "configs/quickstart.json", 1e-6),
    ("paper_n20", "logistic", "configs/logistic.json", 1e-4),
    ("scale_n200", "scale_n200", "bench/scale_n200.json", 1e-4),
], ids=["quickstart", "logistic", "scale_n200"])
def test_config_meets_the_pinned_queries_to_threshold(tmp_path, workload, key, path, threshold):
    pins = json.loads((ROOT / "bench" / "pinned.json").read_text(encoding="utf-8"))
    pinned = pins[workload]["queries_to_threshold"][key]
    cfg = ExperimentConfig.from_file(str(ROOT / path))
    result = harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
    got = {
        label: {str(seed): queries_to_threshold(trace, threshold) for seed, trace in runs.items()}
        for label, runs in result.traces.items()
    }
    want = {
        label: {seed: math.inf if q is None else q for seed, q in by_seed.items()}
        for label, by_seed in pinned.items()
    }
    assert got == want
