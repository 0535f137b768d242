"""Float sums that read the same on CPython 3.10 through 3.13.

Built-in ``sum()`` compensates float rounding from 3.12 on, so a
simulated metric summed with it moves by an ulp between interpreters.
CI runs this file on every interpreter of its matrix.
"""

import math

from repro.experiments import cluster_scale
from repro.hw import KernelLaunch, v100_server
from repro.metrics.throughput import JobStats
from repro.sim import Engine
from repro.sim.arith import left_sum

# A plain left fold loses the 1.0 against 1e16; a compensated sum
# (math.fsum, or built-in sum() on 3.12+) keeps it.
CANCELLING = [1e16, 1.0, -1e16]


def test_left_sum_is_a_plain_left_fold():
    assert left_sum(CANCELLING) == 0.0
    assert math.fsum(CANCELLING) == 1.0
    total = 0
    for value in CANCELLING:
        total += value
    assert left_sum(CANCELLING) == total


def test_left_sum_starts_from_the_int_zero():
    assert left_sum([]) == 0 and isinstance(left_sum([]), int)
    assert left_sum([1, 2, 3]) == 6 and isinstance(left_sum([1, 2, 3]), int)
    assert left_sum(iter([0.5, 0.25])) == 0.75


def test_throughput_sums_fold_left():
    stats = JobStats(job="j", batch=1, iteration_times_ms=list(CANCELLING))
    # Two iterations' worth of items over a left-folded 0 ms: no rate.
    assert stats.throughput_items_per_s() == 0.0
    assert stats.mean_iteration_ms() == 0.0


def test_gpu_occupancy_total_folds_left():
    engine = Engine()
    gpu = v100_server(engine, 1).gpu(0)
    for index, occupancy in enumerate((0.1, 0.2, 0.3)):
        gpu.launch(KernelLaunch(name=f"k{index}", context="a",
                                work_ms=5.0, occupancy=occupancy,
                                stream=index))
    assert gpu.total_occupancy == (0.1 + 0.2) + 0.3


def test_cluster_faults_seed_1_aggregate_is_interpreter_free():
    # The e2e cluster_faults workload at its holdout seed: 3.12+ used
    # to read 404.46559552294957 here through built-in sum().
    result = cluster_scale.run(requests=30, nodes=(2,), gpus_per_node=2,
                               seed=1, plan=cluster_scale.default_plan())
    assert result.rows[0]["agg_items_per_s"] == 404.4655955229496
