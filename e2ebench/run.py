"""End-to-end benchmark of the SwitchFlow simulator.

Runs one workload from ``workloads.py`` (or all of them) and prints
every metric by name with its unit. The last line of standard output
is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones named in
``BENCHMARK.json``; with ``--trace 1`` the ``per_layer`` ones. Run from
the repository root, with nothing installed::

    python3 e2ebench/run.py --workload train_solo --seed 0 --seconds 12
    python3 e2ebench/run.py --workload all --seed 0 --out set.json

Timing protocol. One process does everything, one run at a time, with
``REPRO_JOBS=1`` and every other ``REPRO_*`` knob cleared. Each
workload gets one untimed warm-up run. Then the workloads run in turn,
round-robin, for at least three rounds and until each has had
``--seconds``. Inputs are built and ``gc.collect()`` runs before each
run; the timer covers only the harness call. ``setup_s`` is the median
over seven fresh child processes of the time from process start until
the workload's inputs are built, and ``peak_rss_mb`` is the peak resident size of one fresh child that runs
the workload once. With ``--trace 1`` the runs alternate between plain
and under ``cProfile``; the profiled ones give the per-layer host time.

Host times are in *reference seconds*. The machines this runs on are
shared, and their speed drifts by tens of percent over minutes. So a
fixed calibration loop runs just before and just after every timed
region, and the region's wall time is scaled by how much slower or
faster than ``REFERENCE_CHUNK_S`` the loop ran around it and around its
neighbouring regions. Raw wall times are kept in the ``--out`` file
next to the scaled ones.

The exit code is 0 when every run passed its checks, 1 when one did not
and 2 on bad arguments or a missing source tree.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_CHILDREN = 7
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
#: Calibration chunks run before and again after each timed region.
CALIBRATION_CHUNKS = 3
CALIBRATION_EVENTS = 20_000
#: One calibration chunk's duration on the reference host.
REFERENCE_CHUNK_S = 0.010

#: Simulated metrics: name -> (unit, better). They are outputs of a
#: model that has not been validated against hardware, and they repeat
#: exactly for a seed.
SIM_METRICS = {
    "sim_p50_ms": ("ms", "lower"),
    "sim_p95_ms": ("ms", "lower"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_shed_frac": ("ratio", "lower"),
    "sim_train_items_per_s": ("items/s", "higher"),
}


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def calibration_chunk(events: int = CALIBRATION_EVENTS) -> None:
    """A fixed pure-Python event loop: generators, a heap and a dict.

    It shares the simulator's instruction mix but none of its code, so
    a change to the simulator never changes the calibration.
    """
    counts: Dict[int, int] = {}

    def process(pid: int):
        now = 0.0
        while True:
            now = yield 1.0 + (pid * 7 + int(now)) % 5
            counts[pid] = counts.get(pid, 0) + 1

    processes = [process(pid) for pid in range(64)]
    heap = [(next(p), pid, pid) for pid, p in enumerate(processes)]
    heapq.heapify(heap)
    sequence = len(heap)
    for _ in range(events):
        when, _seq, pid = heapq.heappop(heap)
        sequence += 1
        heapq.heappush(
            heap, (when + processes[pid].send(when), sequence, pid))


def _chunks() -> List[float]:
    durations = []
    for _ in range(CALIBRATION_CHUNKS):
        begin = time.perf_counter()
        calibration_chunk()
        durations.append(time.perf_counter() - begin)
    return durations


def timed(region: Callable[[], object]) -> Tuple[object, float, list]:
    """Run ``region`` between calibration chunks.

    Returns its result, its wall seconds, and the chunk durations
    measured just before and just after it.
    """
    before = _chunks()
    begin = time.perf_counter()
    result = region()
    wall = time.perf_counter() - begin
    return result, wall, before + _chunks()


def reference_factors(chunks: List[List[float]]) -> List[float]:
    """Wall-to-reference-seconds factor of each of a series of regions.

    A region's factor uses the chunks around it and around its two
    neighbours: a slow spell of the host shorter than a run can catch
    one region's chunks and miss the run itself.
    """
    factors = []
    for index in range(len(chunks)):
        window = [duration for near in chunks[max(0, index - 1):index + 2]
                  for duration in near]
        factors.append(REFERENCE_CHUNK_S / statistics.median(window))
    return factors


def _clean_environment() -> None:
    # The simulator reads its run features from REPRO_* variables; a
    # stray one would change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_JOBS"] = "1"


def _pin_to_one_cpu() -> None:
    # Runs, calibration chunks and child processes (which inherit the
    # mask) then share one CPU, so the chunks see the contention the
    # runs see. The simulator is single-threaded.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# Child processes: set-up time and peak memory start from a cold process
# ---------------------------------------------------------------------------
def child_main(name: str, seed: int, run: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    prepared = workload.prepare(seed)
    print("ready", flush=True)
    if run:
        workload.run(prepared)
        print(json.dumps({"peak_rss_mb": _peak_rss_kb() / 1024.0}),
              flush=True)
    return 0


def _peak_rss_kb() -> float:
    """This process's peak resident size in KiB.

    ``ru_maxrss`` would also count the parent: Linux carries the
    spawning process's peak over into the child at exec. ``VmHWM``
    belongs to the child's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _child(name: str, seed: int, run: bool) -> Tuple[float, str]:
    """Start one child; return (seconds until ready, its last line)."""
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "rss" if run else "setup", "--workload", name,
               "--seed", str(seed)]
    begin = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        first = child.stdout.readline()
        ready_s = time.perf_counter() - begin
        try:
            rest, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
    if first.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"{name} child exited {child.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, lines[-1] if lines else ""


def measure_cold(name: str, seed: int) -> Dict[str, List[float]]:
    ready, chunks = [], []
    for index in range(SETUP_CHILDREN):
        (ready_s, last), _wall, around = timed(
            lambda index=index: _child(name, seed, run=index == 0))
        ready.append(ready_s)
        chunks.append(around)
        if index == 0:
            rss = [json.loads(last)["peak_rss_mb"]]
    factors = reference_factors(chunks)
    return {"setup_s": [s * f for s, f in zip(ready, factors, strict=True)],
            "setup_wall_s": ready, "peak_rss_mb": rss}


# ---------------------------------------------------------------------------
# Warm runs in this process
# ---------------------------------------------------------------------------
def _entry_points() -> Dict[str, Callable]:
    from repro.analysis.integration import analyze_context, enforce
    from repro.runtime.session import Session
    from repro.sim.engine import Engine

    # Every harness call passes through enforce(), which runs the
    # sanitizer only under REPRO_SANITIZE; the checked workload calls
    # analyze_context() itself. Neither calls the other here.
    return {"schedule": Engine.schedule, "session": Session.__init__,
            "enforce": enforce, "analyze": analyze_context}


def _one_run(workload, seed: int, profiled: bool, tally: dict,
             entries: Dict[str, Callable]) -> Optional[tuple]:
    """Run ``workload`` once, timed; update its tally.

    Returns (wall, chunks, tasks, profile folded by layer, entry-point
    calls) if the run passed, else None.
    """
    from layers import entry_calls, fold

    tally["attempted"] += 1
    prepared = workload.prepare(seed)
    gc.collect()
    profiler = cProfile.Profile() if profiled else None

    def region():
        if profiler is None:
            return workload.run(prepared)
        profiler.enable()
        try:
            return workload.run(prepared)
        finally:
            profiler.disable()

    try:
        outcome, wall, chunks = timed(region)
    except Exception:  # a failed run is counted, and the benchmark goes on
        tally["failed"] += 1
        tally["failures"].append(traceback.format_exc())
        return None
    problems = list(outcome.failed_checks)
    if tally["first"] is None:
        tally["first"] = outcome
    elif outcome.fingerprint() != tally["first"].fingerprint():
        problems.append("simulated metrics or counts differ from the "
                        "first run")
    if tally["expected_sim"] not in (None, outcome.sim):
        problems.append(f"simulated metrics differ from "
                        f"{tally['reference']}")
    if problems:
        tally["failed"] += 1
        tally["failures"].extend(problems)
        return None
    profile = calls = None
    if profiler is not None:
        stats = pstats.Stats(profiler).stats
        profile, calls = fold(stats), entry_calls(stats, entries)
    return (wall, chunks, outcome.counts["runtime.pool.tasks"], profile,
            calls)


def measure(workloads: list, seed: int, seconds: float, trace: bool,
            references: Optional[dict] = None) -> Dict[str, dict]:
    """Warm up each workload, then run them in turn for ``seconds`` each.

    Taking the workloads round-robin, for at least three rounds, spreads
    a slow spell of the host over all of them instead of one. With
    ``trace``, every second round runs under cProfile.

    A run fails when it raises, fails a workload check, or gives
    simulated metrics or counts that differ from the workload's first
    timed run. A workload with an entry in ``references`` must also
    give that workload's simulated metrics on the same seed.
    """
    from layers import LAYERS

    references = references or {}
    entries = _entry_points()
    tallies = {}
    for workload in workloads:
        workload.run(workload.prepare(seed))
        reference = references.get(workload.name)
        tallies[workload.name] = {
            "expected_sim": (reference.run(reference.prepare(seed)).sim
                             if reference is not None else None),
            "reference": reference.name if reference is not None else None,
            "first": None, "attempted": 0, "failed": 0, "failures": []}
    runs: List[tuple] = []
    rounds = 0
    begin = time.perf_counter()
    while (rounds < MIN_RUNS
           or time.perf_counter() - begin < seconds * len(workloads)):
        profiled = trace and rounds % 2 == 1
        rounds += 1
        for workload in workloads:
            record = _one_run(workload, seed, profiled,
                              tallies[workload.name], entries)
            if record is not None:
                runs.append((workload.name, *record))

    results = {}
    for name, tally in tallies.items():
        first = tally["first"]
        results[name] = {
            "attempted": tally["attempted"], "failed": tally["failed"],
            "failures": tally["failures"], "run_s": [], "wall_s": [],
            "tasks_per_s": [], "traced_s": [],
            "self_s": dict.fromkeys(LAYERS, 0.0),
            "calls": {key: [0, 0.0] for key in entries},
            "sim": first.sim if first else {},
            "counts": first.counts if first else {}}
    factors = reference_factors([record[2] for record in runs])
    for (name, wall, _chunks, tasks, profile, calls), factor in zip(
            runs, factors, strict=True):
        result = results[name]
        if profile is None:
            result["run_s"].append(wall * factor)
            result["wall_s"].append(wall)
            result["tasks_per_s"].append(tasks / (wall * factor))
            continue
        result["traced_s"].append(wall * factor)
        for layer, layer_s in profile.items():
            result["self_s"][layer] += layer_s * factor
        for key, (ncalls, cumtime) in calls.items():
            result["calls"][key][0] += ncalls
            result["calls"][key][1] += cumtime * factor
    return results


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def end_to_end(result: dict) -> Dict[str, float]:
    return {metric: statistics.median(result[metric])
            for metric in ("tasks_per_s", "setup_s", "peak_rss_mb")}


def per_layer(result: dict) -> Dict[str, float]:
    traced = len(result["traced_s"])
    metrics = {f"{layer}.self_s": seconds / traced
               for layer, seconds in result["self_s"].items()}
    calls = result["calls"]
    metrics.update({
        "sim.engine.schedule_calls": calls["schedule"][0] / traced,
        "runtime.session.builds": calls["session"][0] / traced,
        "runtime.session.build_s": calls["session"][1] / traced,
        "analysis.sanitize_s": (calls["enforce"][1] + calls["analyze"][1])
        / traced,
        "traced.run_s": statistics.median(result["traced_s"]),
        "traced.overhead_x": statistics.median(result["traced_s"])
        / statistics.median(result["run_s"]),
    })
    metrics.update(result["counts"])
    return metrics


def _declared(section: str) -> Dict[str, str]:
    """metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def as_metrics(values: Dict[str, float], section: str) -> dict:
    units = _declared(section)
    if set(values) != set(units):
        raise RuntimeError(
            f"measured {sorted(set(values) ^ set(units))} do not match "
            f"the {section} metrics of BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def print_result(name: str, seed: int, result: dict) -> None:
    print(f"== {name} (seed {seed}): {result['attempted']} runs, "
          f"{result['failed']} failed ==")
    for failure in result["failures"]:
        print(f"{name}: FAILED: {failure.strip()}", file=sys.stderr)

    def row(metric: str, value: float, unit: str, note: str = "") -> None:
        print(f"  {metric:<28} {value:>14.6g} {unit:<8} {note}".rstrip())

    for metric, unit in (("run_s", "s"), ("wall_s", "s"),
                         ("tasks_per_s", "tasks/s"), ("setup_s", "s"),
                         ("peak_rss_mb", "MB")):
        if result.get(metric):
            samples = result[metric]
            row(metric, statistics.median(samples), unit,
                f"median, IQR {100 * spread(samples):.1f}%, "
                f"n={len(samples)}")
    row("failed_frac", result["failed"] / result["attempted"], "ratio")
    for metric, (unit, _better) in SIM_METRICS.items():
        if metric in result["sim"]:
            row(metric, result["sim"][metric], unit, "simulated")
    if result["traced_s"] and result["run_s"]:
        units = _declared("per_layer")
        for metric, value in per_layer(result).items():
            row(metric, value, units[metric])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long each workload is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write every sample to this JSON file")
    parser.add_argument("--child", choices=("setup", "rss"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC.is_file():
        print(f"error: run from a checkout that has {SRC} and {SPEC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _clean_environment()
    if args.child:
        return child_main(args.workload, args.seed, args.child == "rss")
    _pin_to_one_cpu()

    from workloads import REFERENCE, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r} (choices: "
              f"{', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    results = measure(
        [WORKLOADS[name] for name in names], args.seed, args.seconds,
        bool(args.trace),
        {name: WORKLOADS[ref] for name, ref in REFERENCE.items()})
    for name, result in results.items():
        if not args.trace:
            result.update(measure_cold(name, args.seed))
        print_result(name, args.seed, result)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    section = "per_layer" if args.trace else "end_to_end"
    build = per_layer if args.trace else end_to_end
    metrics = {}
    for name, result in results.items():
        if not result["run_s"] or (args.trace and not result["traced_s"]):
            continue
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, entry in as_metrics(build(result), section).items():
            metrics[prefix + metric] = entry
    correct = failed == 0 and len(metrics) > 0
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": results}, indent=1) + "\n",
            encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
