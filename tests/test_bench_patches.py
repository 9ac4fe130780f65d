"""The package names that the benchmark patches by name still exist and are used.

bench/workloads.py and bench/spans.py swap package functions, methods and
table entries by name while a rep runs.  Applying their patches here makes
a rename in src fail this suite, not only a traced benchmark run.
"""

from pathlib import Path

import numpy as np

from zojade import ExperimentConfig, harness

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
