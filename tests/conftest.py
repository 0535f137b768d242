"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import make_context
from repro.core.context import capture_contexts
from repro.hw import single_gpu_server, v100_server, TESLA_V100
from repro.sim import Engine


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture(scope="session")
def quick_cell():
    """``quick_cell(name, k)``: the k-th run context (cell) that the
    runner experiment ``name`` builds in quick mode at seed 0."""
    from repro.experiments.runner import EXPERIMENTS

    def build(name, index):
        with capture_contexts(select=index) as capture:
            EXPERIMENTS[name].run("quick")
        assert capture.selected is not None, (name, capture.labels)
        return capture.selected
    return build


@pytest.fixture
def v100_ctx():
    """A fresh single-V100 run context (the most common testbed)."""
    return make_context(v100_server, 1, seed=7)


@pytest.fixture
def two_v100_ctx():
    return make_context(v100_server, 2, seed=7)


def run_process(eng: Engine, generator, until=None):
    """Drive a single process to completion and return its value."""
    process = eng.process(generator)
    return eng.run(until=until if until is not None else process)
