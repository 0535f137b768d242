"""Experiment harnesses: one module per table/figure of the paper.

Import each module by name (``from repro.experiments import fig6_tail_latency``);
``repro.experiments.runner.EXPERIMENTS`` is the table of all of them.
See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
