"""Compare two benchmark sets, metric by metric and workload by workload.

A set is the ``--out`` file of ``run.py`` (with ``--trace 0``)::

    python3 e2ebench/run.py --workload all --seed 0 --out A.json
    python3 e2ebench/run.py --workload all --seed 0 --out B.json
    python3 e2ebench/compare.py A.json B.json

Each row reads better, worse, same or unresolved; B is judged against A.

* Host metrics (the ``end_to_end`` list of ``BENCHMARK.json``, plus
  ``run_s`` with the bound of ``tasks_per_s``) are worse or better when
  B's median moves past the metric's bound. They are unresolved when
  either side's interquartile range is wider than the bound, unless
  every run of B beats every run of A.
* Simulated metrics and ``failed_frac`` are exact: any change counts.
* ``counts`` lists the per-layer counts that differ; they should not.

With ``--history FILE --label TEXT`` a summary of both sets is appended
to FILE as one JSON line. The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from run import SIM_METRICS, SPEC, spread


def host_metrics(spec: dict) -> Dict[str, dict]:
    """name -> {"better", "bound"} for the host-time metrics."""
    metrics = {entry["name"]: {"better": entry["better"],
                               "bound": entry["bound"]}
               for entry in spec["end_to_end"]}
    metrics["run_s"] = {"better": "lower",
                        "bound": metrics["tasks_per_s"]["bound"]}
    return metrics


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative: better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def host_verdict(a: List[float], b: List[float], better: str,
                 bound: float) -> str:
    beats = all(_worse_by(x, y, better) < 0 for x in a for y in b)
    if (spread(a) > bound or spread(b) > bound) and not beats:
        return "unresolved"
    worse = _worse_by(statistics.median(a), statistics.median(b), better)
    if worse > bound:
        return "worse"
    return "better" if worse < -bound else "same"


def exact_verdict(a: float, b: float, better: str) -> str:
    if a == b:
        return "same"
    return "worse" if (b > a) == (better == "lower") else "better"


def compare(set_a: dict, set_b: dict, spec: dict) -> List[tuple]:
    """Rows of (workload, metric, A, B, verdict)."""
    host = host_metrics(spec)
    rows = []
    for name, a in set_a["workloads"].items():
        b = set_b["workloads"].get(name)
        if b is None:
            continue
        for metric, rule in host.items():
            if a.get(metric) and b.get(metric):
                rows.append((name, metric, statistics.median(a[metric]),
                             statistics.median(b[metric]),
                             host_verdict(a[metric], b[metric],
                                          rule["better"], rule["bound"])))
        frac_a = a["failed"] / a["attempted"]
        frac_b = b["failed"] / b["attempted"]
        rows.append((name, "failed_frac", frac_a, frac_b,
                     exact_verdict(frac_a, frac_b, "lower")))
        for metric, (_unit, better) in SIM_METRICS.items():
            if metric in a["sim"] or metric in b["sim"]:
                if metric in a["sim"] and metric in b["sim"]:
                    verdict = exact_verdict(a["sim"][metric],
                                            b["sim"][metric], better)
                else:
                    verdict = "unresolved"
                rows.append((name, metric, a["sim"].get(metric),
                             b["sim"].get(metric), verdict))
        differ = sorted(key for key in set(a["counts"]) | set(b["counts"])
                        if a["counts"].get(key) != b["counts"].get(key))
        rows.append((name, "counts", len(a["counts"]), len(b["counts"]),
                     "differ: " + ", ".join(differ) if differ else "same"))
    return rows


def summarize(result_set: dict) -> dict:
    """The trajectory row for one set: medians, spreads and sim values."""
    out = {}
    for name, result in result_set["workloads"].items():
        row = {}
        for metric in ("run_s", "tasks_per_s", "setup_s"):
            row[metric] = {"median": statistics.median(result[metric]),
                           "iqr_frac": spread(result[metric]),
                           "n": len(result[metric])}
        row["peak_rss_mb"] = statistics.median(result["peak_rss_mb"])
        row["failed_frac"] = result["failed"] / result["attempted"]
        row.update(result["sim"])
        out[name] = row
    return out


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two run.py --out sets (B against A).")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--history", type=Path,
                        help="append a summary of both sets to this file")
    parser.add_argument("--label", default="",
                        help="what the sets measured (for --history)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    set_a = json.loads(args.a.read_text(encoding="utf-8"))
    set_b = json.loads(args.b.read_text(encoding="utf-8"))
    rows = compare(set_a, set_b, spec)
    print(f"{'workload':<20} {'metric':<22} {'A':>12} {'B':>12}  verdict")
    for name, metric, a, b, verdict in rows:
        print(f"{name:<20} {metric:<22} {_fmt(a):>12} {_fmt(b):>12}  "
              f"{verdict}")
    if args.history:
        row = {"label": args.label, "seed": set_a["seed"],
               "seconds": set_a["seconds"],
               "sets": [summarize(set_a), summarize(set_b)]}
        with args.history.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
