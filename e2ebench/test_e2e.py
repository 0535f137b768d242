"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest e2ebench/test_e2e.py
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

import compare
import layers
import run
from workloads import REFERENCE, WORKLOADS, Outcome, Workload


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_checks(name, seed):
    workload = WORKLOADS[name]
    outcome = workload.run(workload.prepare(seed))
    assert outcome.failed_checks == []
    assert outcome.counts["runtime.pool.tasks"] > 0
    assert outcome.sim["sim_train_items_per_s"] > 0
    if name in REFERENCE:
        reference = WORKLOADS[REFERENCE[name]]
        assert outcome.sim == reference.run(reference.prepare(seed)).sim


def test_fold_puts_every_function_in_one_layer():
    from repro.experiments.common import run_solo
    from repro.hw import TESLA_V100, single_gpu_server
    from repro.models import get_model

    profiler = cProfile.Profile()
    profiler.enable()
    run_solo(single_gpu_server, (TESLA_V100,), get_model("MobileNetV2"),
             batch=8, training=True, iterations=2)
    profiler.disable()
    stats = pstats.Stats(profiler).stats

    seen = {layers.layer_of(filename) for filename, _l, _n in stats}
    assert seen <= set(layers.LAYERS)
    assert {"sim.engine", "runtime.executor", "hw.gpu", "graph",
            "stdlib"} <= seen
    folded = layers.fold(stats)
    assert set(folded) == set(layers.LAYERS)
    total = sum(entry[2] for entry in stats.values())
    assert sum(folded.values()) == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("filename, layer", [
    (layers.REPRO_DIR / "sim" / "engine.py", "sim.engine"),
    (layers.REPRO_DIR / "sim" / "process.py", "sim.other"),
    (layers.REPRO_DIR / "models" / "resnet.py", "graph"),
    (layers.REPRO_DIR / "metrics" / "latency.py", "obs.other"),
    (layers.REPRO_DIR / "obs" / "metrics.py", "obs.metrics"),
    (layers.REPRO_DIR / "experiments" / "cluster_scale.py", "core"),
    (layers.REPRO_DIR / "__init__.py", "core"),
    (os.__file__, "stdlib"),
    ("~", "stdlib"),
    ("<frozen importlib._bootstrap>", "stdlib"),
])
def test_layer_of(filename, layer):
    assert layers.layer_of(str(filename)) == layer


def test_changed_simulation_counts_as_failed_run():
    calls = []

    def flaky(_prepared):
        calls.append(None)
        # Warm-up and first timed run agree; later runs drift.
        value = 1.0 if len(calls) <= 2 else 2.0
        return Outcome(sim={"sim_train_items_per_s": value},
                       counts={"runtime.pool.tasks": 10.0})

    fake = Workload("fake", lambda seed: None, flaky)
    result = run.measure([fake], seed=0, seconds=0.0, trace=False)["fake"]
    assert result["attempted"] == run.MIN_RUNS
    assert result["failed"] == run.MIN_RUNS - 1
    assert result["failed"] / result["attempted"] > 0


def test_reference_factors_ignore_a_short_slow_spell():
    fast = [run.REFERENCE_CHUNK_S / 2] * 6
    slow = [run.REFERENCE_CHUNK_S * 2] * 6
    # The host was slow only while the middle region's chunks ran.
    assert run.reference_factors([fast, fast, slow, fast, fast]) \
        == [2.0] * 5
    # A slow phase that lasts is tracked.
    assert run.reference_factors([slow, slow, slow]) == [0.5, 0.5, 0.5]


def _set(run_s, sim=None, failed=0, counts=None):
    """A one-workload set as run.py --out writes it."""
    return {"seed": 0, "seconds": 1, "workloads": {"w": {
        "attempted": len(run_s), "failed": failed,
        "run_s": run_s, "tasks_per_s": [1000.0 / x for x in run_s],
        "setup_s": [0.2, 0.2, 0.2], "peak_rss_mb": [50.0],
        "sim": sim or {"sim_p95_ms": 80.0, "sim_goodput_rps": 30.0},
        "counts": counts or {"runtime.pool.tasks": 100.0}}}}


def _verdicts(set_a, set_b):
    spec = {"end_to_end": [
        {"name": "tasks_per_s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    return {metric: verdict
            for _w, metric, _a, _b, verdict
            in compare.compare(set_a, set_b, spec)}


def test_compare_direction():
    base = _set([1.00, 1.01, 0.99, 1.00])
    slower = _set([1.20, 1.21, 1.19, 1.20])
    assert _verdicts(base, slower)["run_s"] == "worse"
    assert _verdicts(base, slower)["tasks_per_s"] == "worse"
    assert _verdicts(slower, base)["run_s"] == "better"
    assert _verdicts(slower, base)["tasks_per_s"] == "better"
    within = _set([1.05, 1.06, 1.04, 1.05])
    assert _verdicts(base, within)["run_s"] == "same"
    assert _verdicts(base, base)["setup_s"] == "same"


def test_compare_simulated_metrics_are_exact():
    base = _set([1.0, 1.0, 1.0])
    tail = _set([1.0, 1.0, 1.0],
                sim={"sim_p95_ms": 80.000001, "sim_goodput_rps": 30.0})
    more = _set([1.0, 1.0, 1.0],
                sim={"sim_p95_ms": 80.0, "sim_goodput_rps": 30.5})
    assert _verdicts(base, tail)["sim_p95_ms"] == "worse"
    assert _verdicts(tail, base)["sim_p95_ms"] == "better"
    assert _verdicts(base, more)["sim_goodput_rps"] == "better"
    assert _verdicts(base, base)["sim_p95_ms"] == "same"
    failing = _set([1.0, 1.0, 1.0], failed=1)
    assert _verdicts(base, failing)["failed_frac"] == "worse"
    drifted = _set([1.0, 1.0, 1.0], counts={"runtime.pool.tasks": 101.0})
    assert _verdicts(base, drifted)["counts"].startswith("differ")


def test_compare_unresolved_when_spread_exceeds_bound():
    base = _set([1.00, 1.01, 0.99, 1.00])
    noisy = _set([0.80, 1.30, 1.00, 1.40])
    assert _verdicts(base, noisy)["run_s"] == "unresolved"
    assert _verdicts(noisy, base)["run_s"] == "unresolved"
    # Every run of B beats every run of A: resolved despite the spread.
    noisy_slow = _set([1.50, 2.00, 1.60, 2.10])
    assert _verdicts(noisy_slow, base)["run_s"] == "better"
