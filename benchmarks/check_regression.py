"""Gate CI on throughput regressions against the committed baseline.

Compares a freshly generated ``BENCH_core.json`` (the *candidate*)
against the one committed at the repo root (the *baseline*) on the
throughput rates that track the simulator's hot paths. A rate is a
regression when::

    candidate < baseline * (1 - threshold)

with a default threshold of 25% — generous enough to absorb CI-runner
noise (shared vCPUs vary run to run) while still catching the 2x-style
slowdowns that matter. Only *drops* fail; a faster candidate passes.

Usage (what the CI bench job runs)::

    PYTHONPATH=src python benchmarks/bench_core.py --quick \
        --output /tmp/BENCH_candidate.json
    python benchmarks/check_regression.py \
        --baseline BENCH_core.json --candidate /tmp/BENCH_candidate.json

Exits 0 when every rate holds, 1 listing each regressed rate, 2 on
malformed input. Keys present in only one file are reported but never
fatal — the committed baseline may trail a PR that adds a benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: (benchmark name, rate field) pairs gated against the baseline.
#: Higher is better for every one of these.
RATE_KEYS: Tuple[Tuple[str, str], ...] = (
    ("engine.dispatch", "optimized_events_per_sec"),
    ("engine.timeout", "optimized_events_per_sec"),
    ("engine.process", "optimized_events_per_sec"),
    ("engine.mixed", "optimized_events_per_sec"),
    ("executor.dispatch", "nodes_per_sec"),
    ("executor.ready_churn", "tasks_per_sec"),
    ("cost_model.lookup", "cached_lookups_per_sec"),
    ("hw.gpu.launch", "single_context_kernels_per_sec"),
    ("histogram.quantile", "cached_queries_per_sec"),
    ("obs.overhead", "profiled_nodes_per_sec"),
    ("topology.route_lookup", "route_lookups_per_sec"),
    ("analysis.concurrency", "hb_nodes_per_sec"),
    ("serving.request_throughput", "requests_per_sec"),
)

DEFAULT_THRESHOLD = 0.25


class RegressionCheckError(ValueError):
    """A benchmark file is missing, unreadable, or malformed."""


def load_rates(path: Path) -> Dict[str, float]:
    """Extract the gated rates from one BENCH_core.json payload."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RegressionCheckError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise RegressionCheckError(f"{path}: invalid JSON ({exc})") from None
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, dict):
        raise RegressionCheckError(f"{path}: missing 'benchmarks' object")
    rates: Dict[str, float] = {}
    for bench, field in RATE_KEYS:
        entry = benchmarks.get(bench)
        # A non-dict entry (older schema, hand-edited file) is treated
        # like an absent benchmark, not a crash: the key then shows up
        # as new/gone in the report instead of killing the gate.
        value = entry.get(field) if isinstance(entry, dict) else None
        if isinstance(value, (int, float)) and value > 0:
            rates[f"{bench}.{field}"] = float(value)
    return rates


def compare(baseline: Dict[str, float], candidate: Dict[str, float],
            threshold: float) -> Tuple[List[str], List[str]]:
    """Returns (report lines, regressed keys)."""
    lines: List[str] = []
    regressed: List[str] = []
    for key in sorted(set(baseline) | set(candidate)):
        if key not in baseline:
            lines.append(f"  new    {key}: {candidate[key]:,.0f}/s "
                         "(no baseline; not gated)")
            continue
        if key not in candidate:
            lines.append(f"  gone   {key}: baseline "
                         f"{baseline[key]:,.0f}/s, absent from candidate")
            continue
        base, cand = baseline[key], candidate[key]
        ratio = cand / base
        floor = base * (1.0 - threshold)
        if cand < floor:
            regressed.append(key)
            lines.append(
                f"  REGRESSION {key}: {cand:,.0f}/s vs baseline "
                f"{base:,.0f}/s ({ratio:.2f}x, floor {floor:,.0f}/s)")
        else:
            lines.append(f"  ok     {key}: {cand:,.0f}/s vs "
                         f"{base:,.0f}/s ({ratio:.2f}x)")
    return lines, regressed


def markdown_table(baseline: Dict[str, float],
                   candidate: Dict[str, float],
                   threshold: float) -> str:
    """Before/after delta table (GitHub-flavored markdown).

    Written per CI run as the bench-comparison artifact and appended to
    the job summary, so a failing gate shows *which* rate moved and by
    how much without downloading anything.
    """
    rows = ["| rate | baseline /s | candidate /s | delta | status |",
            "| --- | ---: | ---: | ---: | --- |"]
    for key in sorted(set(baseline) | set(candidate)):
        base = baseline.get(key)
        cand = candidate.get(key)
        if base is None:
            rows.append(f"| `{key}` | — | {cand:,.0f} | — | "
                        "new (not gated) |")
            continue
        if cand is None:
            rows.append(f"| `{key}` | {base:,.0f} | — | — | "
                        "gone from candidate |")
            continue
        ratio = cand / base
        status = ("**REGRESSION**" if cand < base * (1.0 - threshold)
                  else "ok")
        rows.append(f"| `{key}` | {base:,.0f} | {cand:,.0f} | "
                    f"{ratio - 1.0:+.1%} | {status} |")
    header = (f"### Core microbenchmarks vs committed baseline\n\n"
              f"Gate: fail when a rate drops more than "
              f"{threshold:.0%}. Candidate runs in quick mode on a "
              f"shared CI runner; the committed baseline is a "
              f"full-mode run, so absolute levels differ more than "
              f"ratios do.\n\n")
    return header + "\n".join(rows) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh BENCH_core.json regresses more "
                    "than --threshold below the committed baseline.")
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_core.json")
    parser.add_argument("--candidate", type=Path, required=True,
                        help="freshly generated BENCH_core.json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD, metavar="FRACTION",
                        help="allowed fractional drop before failing "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--markdown", type=Path, default=None,
                        help="also write a before/after delta table "
                             "(markdown) to this path")
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        print(f"--threshold must be in [0, 1), got {args.threshold}",
              file=sys.stderr)
        return 2

    try:
        baseline = load_rates(args.baseline)
        candidate = load_rates(args.candidate)
    except RegressionCheckError as exc:
        print(f"check_regression: {exc}", file=sys.stderr)
        return 2

    lines, regressed = compare(baseline, candidate, args.threshold)
    # Write the delta table before any verdict bail-out: a baseline
    # with no gated rates still produces the artifact (all rows "new"),
    # so the CI summary never silently goes missing.
    if args.markdown is not None:
        args.markdown.parent.mkdir(parents=True, exist_ok=True)
        args.markdown.write_text(
            markdown_table(baseline, candidate, args.threshold),
            encoding="utf-8")
    if not baseline:
        print(f"check_regression: {args.baseline} has none of the gated "
              "rates", file=sys.stderr)
        return 2
    print(f"regression gate: threshold {args.threshold:.0%} below "
          f"{args.baseline}")
    for line in lines:
        print(line)
    if regressed:
        print(f"FAIL: {len(regressed)} rate(s) regressed more than "
              f"{args.threshold:.0%}: {', '.join(regressed)}",
              file=sys.stderr)
        return 1
    print(f"PASS: all {len([k for k in candidate if k in baseline])} "
          "gated rates within threshold")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
