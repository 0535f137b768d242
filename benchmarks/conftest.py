"""Benchmark harness configuration.

``bench_experiments.py`` regenerates each of the paper's tables/figures
on the simulated substrate and prints the resulting table. The
experiments are deterministic, so each runs exactly once (``pedantic``
with one round); the benchmark timing records how long the reproduction
takes to run.

Run with::

    pytest benchmarks/ --benchmark-only -s

The suite degrades gracefully when ``pytest-benchmark`` is not
installed (the minimal CI image omits it): ``run_once`` simply calls
the function, so ``pytest benchmarks/`` still passes — only the timing
report is lost.
"""

from __future__ import annotations

import pytest

try:
    import pytest_benchmark  # noqa: F401
    HAVE_PYTEST_BENCHMARK = True
except ImportError:  # pragma: no cover - exercised in the minimal image
    HAVE_PYTEST_BENCHMARK = False


def run_once(benchmark, func, *args, **kwargs):
    """Execute ``func`` exactly once, under the timer when available."""
    if benchmark is None:
        return func(*args, **kwargs)
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


if HAVE_PYTEST_BENCHMARK:
    @pytest.fixture
    def once(benchmark):
        def runner(func, *args, **kwargs):
            return run_once(benchmark, func, *args, **kwargs)

        return runner
else:
    @pytest.fixture
    def once():
        def runner(func, *args, **kwargs):
            return run_once(None, func, *args, **kwargs)

        return runner
