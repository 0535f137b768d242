"""Benchmark: every experiment of the runner's table, quick and full.

Each case regenerates one table/figure with the runner's own kwargs,
prints it with its headline checks, and fails on any ``FAIL:`` check
(the paper's qualitative claims: who wins, orderings, rough factors).

    PYTHONPATH=src pytest benchmarks/bench_experiments.py -k quick -s
"""

import pytest

from repro.experiments.runner import EXPERIMENTS


@pytest.mark.parametrize("mode", ["quick", "full"])
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_headline_checks(once, name, mode):
    spec = EXPERIMENTS[name]
    result = once(spec.run, mode)
    checks = spec.module.headline_checks(result)
    print()
    print(result.to_table())
    for check in checks:
        print("check:", check)
    assert not [check for check in checks if check.startswith("FAIL")]
