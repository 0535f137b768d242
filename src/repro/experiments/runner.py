"""CLI entry point: regenerate any of the paper's tables and figures.

Usage::

    switchflow-experiments --list
    switchflow-experiments table1 fig2
    switchflow-experiments all --quick
    switchflow-experiments all --quick --jobs 4
    switchflow-experiments fault_sweep --seed 1 --out reports/seed1

``--jobs N`` fans independent experiments across a process pool. Each
experiment renders its complete output (table, optional timeline,
headline checks) to a string inside the worker, and the parent prints
the strings in request order — so a parallel run's stdout is
byte-identical to the sequential run's. When a *single* experiment is
requested, the N workers go to its own fan-out instead (e.g. fig3's
per-config solo runs).

``--seed N`` is passed to every experiment's ``run``. ``--out DIR``
collects the run's artifacts: ``DIR/<experiment>.json`` (title, rows,
notes, checks, seed and the active fault plan), flight records under
``DIR/flight/`` and concurrency reports in ``DIR/concurrency.txt``.

The run-wide flags (``--sanitize --faults --timeseries --concurrency
--serving --jobs --out``) are validated once into a
:class:`~repro.core.options.RunOptions`, which is active for the whole
run and travels with every fan-out payload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Dict, Tuple

from repro.experiments import (
    ablations,
    cluster_scale,
    fault_sweep,
    fig2_timeline,
    fig3_idle,
    fig6_tail_latency,
    fig7_throughput,
    fig8_input_reuse,
    fig9_diff_models,
    fig10_interleaving,
    motivation_streams,
    preemption_overhead,
    serving_colocation,
    table1_state_transfer,
)
from repro.analysis.concurrency import CONCURRENCY_REPORT_FILE
from repro.analysis.integration import SanitizationError
from repro.core.options import (
    RunOptions, RunOptionsError, current_options, use_options,
)
from repro.experiments.common import ExperimentResult, fanout_map
from repro.obs.procpool import ProcPoolStats


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: ``module.run(seed=seed, **full)`` or
    ``module.run(seed=seed, **quick)``.

    Every module also exports ``headline_checks(result)``, the paper's
    qualitative claims as ``PASS:``/``FAIL:``/``WARN:`` lines.
    """

    name: str
    module: ModuleType
    full: Dict[str, Any]
    quick: Dict[str, Any]

    def run(self, mode: str, seed: int = 0) -> ExperimentResult:
        return self.module.run(seed=seed, **getattr(self, mode))


# The one experiment table: the runner, bench_experiments.py and CI all
# iterate it, in this order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.name: spec for spec in (
    ExperimentSpec("motivation", motivation_streams, {}, {}),
    ExperimentSpec("fig2", fig2_timeline,
                   {"iterations": 20}, {"iterations": 6}),
    ExperimentSpec("fig3", fig3_idle, {"iterations": 20}, {
        "iterations": 12,
        "models": ["ResNet50", "MobileNetV2", "NASNetMobile"]}),
    ExperimentSpec("fig6", fig6_tail_latency, {"requests": 60}, {
        "requests": 25,
        "panels": [("VGG16", ["ResNet50", "MobileNetV2"]),
                   ("NMT-panel", ["VGG16"])]}),
    ExperimentSpec("fig7", fig7_throughput, {"iterations": 10}, {
        "iterations": 5, "partners": ["ResNet50", "VGG16"]}),
    ExperimentSpec("fig8", fig8_input_reuse, {"iterations": 10}, {
        "iterations": 5, "models": ["ResNet50", "MobileNetV2"]}),
    ExperimentSpec("fig9", fig9_diff_models, {"iterations": 10}, {
        "iterations": 5, "batches": [128]}),
    ExperimentSpec("fig10", fig10_interleaving, {"iterations": 10}, {
        "iterations": 5, "models": ["ResNet50", "MobileNetV2"]}),
    ExperimentSpec("table1", table1_state_transfer,
                   {}, {"simulate": False}),
    ExperimentSpec("preemption", preemption_overhead,
                   {}, {"models": ["ResNet50", "VGG19"]}),
    ExperimentSpec("ablations", ablations,
                   {}, {"studies": ["context_switch"]}),
    ExperimentSpec("fault_sweep", fault_sweep, {}, {
        "requests": 8, "rates": fault_sweep.QUICK_RATES}),
    ExperimentSpec("cluster_scale", cluster_scale, {}, {
        "requests": 8, "nodes": cluster_scale.QUICK_NODES}),
    ExperimentSpec("serving", serving_colocation, {}, {
        "duration_ms": serving_colocation.QUICK_DURATION_MS,
        "rates": serving_colocation.QUICK_RATES}),
)}


# (name, mode, render timeline, seed)
RenderJob = Tuple[str, str, bool, int]


def _render_experiment(job: RenderJob) -> Tuple[str, str, float]:
    """Run one experiment and render its complete stdout block; with an
    ``--out`` directory, also write its ``<name>.json`` record there.

    Module-level and picklable-in/picklable-out so it can execute either
    in-process (sequential path) or inside a pool worker — both paths
    produce the same bytes. Returns (name, text, wall_seconds).
    """
    name, mode, timeline, seed = job
    spec = EXPERIMENTS[name]
    started = time.perf_counter()  # noqa: repro-analysis (wall-time stats)
    result = spec.run(mode, seed)
    blocks = [result.to_table()]
    if name == "fig2" and timeline:
        blocks.append(fig2_timeline.render_timeline(seed=seed))
    checks = spec.module.headline_checks(result)
    if checks:
        blocks.append("\n".join(f"check: {check}" for check in checks))
    text = "".join(block + "\n\n" for block in blocks)
    options = current_options()
    if options.out is not None:
        record = {"experiment": name, "title": result.title, "seed": seed,
                  "rows": result.rows, "notes": result.notes,
                  "checks": checks}
        if options.faults is not None:
            record["faults"] = options.faults.to_dict()
        (options.out / f"{name}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
    elapsed = time.perf_counter() - started  # noqa: repro-analysis (wall-time stats)
    return name, text, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchflow-experiments",
        description="Regenerate the SwitchFlow paper's tables/figures "
                    "on the simulated substrate.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts / subsets")
    parser.add_argument("--timeline", action="store_true",
                        help="also render the Figure 2 ASCII timeline")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="root seed passed to every experiment")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write <experiment>.json records, flight "
                             "records (flight/) and concurrency reports "
                             "(concurrency.txt) under DIR")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan independent experiments across N "
                             "worker processes (output is byte-identical "
                             "to the sequential run)")
    parser.add_argument("--stats", action="store_true",
                        help="report per-experiment wall time and pool "
                             "utilization on stderr")
    parser.add_argument("--sanitize", action="store_true",
                        help="verify the paper's trace invariants on "
                             "every run (repro.analysis); exit non-zero "
                             "on any ERROR finding")
    parser.add_argument("--faults", metavar="PLAN", default=None,
                        help="fault-plan JSON file (repro.faults); "
                             "every colocation run injects the plan's "
                             "faults and exercises the recovery paths")
    parser.add_argument("--timeseries", metavar="MS", default=None,
                        help="sample windowed time-series metrics every "
                             "MS simulated ms (optionally MS:capacity) "
                             "on every colocation run")
    parser.add_argument("--concurrency", nargs="?", const="hb",
                        default=None, metavar="MODE",
                        help="track races/locksets/deadlocks on every "
                             "colocation run (repro.analysis.concurrency); "
                             "MODE is 'hb' (the default); with --sanitize, "
                             "ERROR findings fail the invocation")
    parser.add_argument("--serving", metavar="SPEC", default=None,
                        help="serving-config overrides for every "
                             "run_serving harness (repro.serving), as "
                             "'key=value,...'; keys: rate, kind, queue, "
                             "shed, batch, timeout, slo")
    args = parser.parse_args(argv)

    try:
        # Validate every run-feature flag (and read the fault plan)
        # once, before any experiment burns time.
        options = RunOptions.parse(
            sanitize=args.sanitize, faults=args.faults,
            timeseries=args.timeseries, concurrency=args.concurrency,
            serving=args.serving, out=args.out, jobs=args.jobs)
    except RunOptionsError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.list or not args.experiments:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] \
        else args.experiments
    status = 0
    valid = []
    for name in names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; use --list", file=sys.stderr)
            status = 2
            continue
        valid.append(name)

    mode = "quick" if args.quick else "full"
    runs = [(name, mode, args.timeline, args.seed) for name in valid]
    if options.out is not None:
        options.out.mkdir(parents=True, exist_ok=True)
        (options.out / CONCURRENCY_REPORT_FILE).unlink(missing_ok=True)

    # One experiment runs in-process (fanout_map's serial path for a
    # single item), so its own fan-out gets the workers.
    started = time.perf_counter()  # noqa: repro-analysis (wall-time stats)
    try:
        with use_options(options):
            outputs = fanout_map(_render_experiment, runs)
    except SanitizationError as exc:
        print(f"sanitizer: invariant violation\n{exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started  # noqa: repro-analysis (wall-time stats)

    for _name, text, _wall in outputs:
        sys.stdout.write(text)

    if args.stats:
        pool_stats = ProcPoolStats(jobs=min(args.jobs, max(1, len(valid))))
        for name, _text, wall in outputs:
            pool_stats.record(name, wall)
        print(pool_stats.render(elapsed), file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
