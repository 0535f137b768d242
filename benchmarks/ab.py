"""Paired A/B of the end-to-end benchmark: a base revision against the
working tree.

Checks the base revision out into a temporary ``git worktree``, then
runs ``<tree>/e2ebench/run.py --workload W --seconds S`` as alternating
subprocesses, base and working tree, for ``--pairs`` pairs. The side
that goes first swaps from pair to pair, so a slow spell of the host
lands on both sides. Each subprocess is the benchmark exactly as
``BENCHMARK.json`` runs it: ``e2ebench/`` is used as is, and only the
JSON object on the last line of its stdout is read. Each side reads and
writes its bytecode under its own ``PYTHONPYCACHEPREFIX``, so stale
``__pycache__`` directories in the working tree cannot make its
``setup_s`` look faster than the fresh base checkout's.

For every end-to-end metric it prints, per side, the median and the
interquartile range over the pairs, the change's median over the
base's, and the number of pairs the change won (in the metric's
``better`` direction from ``BENCHMARK.json``). The summary is written
as JSON (``--json``) and printed as a Markdown table. The worktree is
removed afterwards, also when a run fails. Run from the repository
root::

    python3 benchmarks/ab.py --base HEAD~1 --workload train_solo \\
        --seconds 4 --pairs 6 --json ab.json

Exits 0 when every run succeeded, 1 when one failed and 2 on bad
arguments or when the base revision cannot be checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

#: The two sides of every pair, in the order summaries list them.
SIDES = ("base", "change")


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``samples``.

    The quartiles are ``statistics.quantiles``'s default (exclusive)
    ones, the same the benchmark's own spread figure uses; with fewer
    than two samples all three are the median.
    """
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def summarize(base: Mapping[str, Sequence[float]],
              change: Mapping[str, Sequence[float]],
              better: Mapping[str, str]) -> Dict[str, dict]:
    """Per-metric summary of paired samples.

    ``base[m][i]`` and ``change[m][i]`` are pair ``i``'s values of
    metric ``m``; ``better[m]`` is ``"higher"`` or ``"lower"``. Only
    metrics both sides measured are summarized. A pair is won when the
    change is strictly better than the base; a tie wins for neither.
    """
    summary: Dict[str, dict] = {}
    for metric in sorted(set(base) & set(change)):
        pairs = list(zip(base[metric], change[metric]))
        higher = better[metric] == "higher"
        won = sum(1 for b, c in pairs if (c > b if higher else c < b))
        entry = {"better": better[metric], "pairs": len(pairs),
                 "won": won}
        for side, samples in zip(SIDES, (base[metric], change[metric])):
            q1, median, q3 = quartiles(samples)
            entry[side] = {"median": median, "q1": q1, "q3": q3,
                           "iqr": q3 - q1, "samples": list(samples)}
        base_median = entry["base"]["median"]
        entry["ratio"] = (entry["change"]["median"] / base_median
                          if base_median else None)
        summary[metric] = entry
    return summary


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def markdown_table(summary: Mapping[str, dict]) -> str:
    """The summary as a Markdown table, one row per metric."""
    lines = ["| metric | base median (IQR) | change median (IQR) "
             "| change / base | pairs won |",
             "| --- | ---: | ---: | ---: | ---: |"]
    for metric, entry in summary.items():
        cells = [f"`{metric}` ({entry['better']} is better)"]
        for side in SIDES:
            stats = entry[side]
            cells.append(f"{_fmt(stats['median'])} ({_fmt(stats['iqr'])})")
        ratio = entry["ratio"]
        cells.append("n/a" if ratio is None else f"{ratio:.3f}x")
        cells.append(f"{entry['won']}/{entry['pairs']}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def better_directions(spec_path: Path = SPEC) -> Dict[str, str]:
    """End-to-end metric name -> ``"higher"``/``"lower"``."""
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def direction_of(metric: str, directions: Mapping[str, str]) -> str:
    """The direction of ``metric``, which may carry a ``workload.``
    prefix (``--workload all`` names metrics that way)."""
    return directions[metric.rsplit(".", 1)[-1]]


def run_benchmark(tree: Path, workload: str, seconds: float, seed: int,
                  pycache: Path) -> Dict[str, float]:
    """One ``e2ebench/run.py`` subprocess in ``tree``; its metrics."""
    command = [sys.executable, str(tree / "e2ebench" / "run.py"),
               "--workload", workload, "--seconds", str(seconds),
               "--seed", str(seed), "--trace", "0"]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n"
            f"{done.stderr.strip()[-2000:]}")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def run_pairs(trees: Mapping[str, Path], scratch: Path, workload: str,
              seconds: float, seed: int, pairs: int
              ) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
    """Alternate the two trees for ``pairs`` pairs; swap who goes first
    every pair."""
    samples: Dict[str, Dict[str, List[float]]] = {side: {} for side in SIDES}
    for index in range(pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            metrics = run_benchmark(trees[side], workload, seconds, seed,
                                    scratch / f"pycache-{side}")
            for name, value in metrics.items():
                samples[side].setdefault(name, []).append(value)
            print(f"pair {index + 1}/{pairs} {side}: "
                  + ", ".join(f"{name}={value:.6g}"
                              for name, value in sorted(metrics.items())),
                  file=sys.stderr, flush=True)
    return samples["base"], samples["change"]


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired A/B of the end-to-end benchmark against a "
                    "base revision.")
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        help="an e2ebench workload name, or 'all'")
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="e2ebench --seconds for every run")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path,
                        help="also write the summary to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        print("error: --pairs must be >= 1 and --seconds > 0",
              file=sys.stderr)
        return 2

    # A terminated run still removes its worktree: SIGTERM unwinds
    # through the finally below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="ab-base-"))
    base_tree = scratch / "tree"
    added = _git("worktree", "add", "--detach", str(base_tree), args.base)
    if added.returncode != 0:
        shutil.rmtree(scratch, ignore_errors=True)
        print(f"error: cannot check out {args.base!r}: "
              f"{added.stderr.strip()}", file=sys.stderr)
        return 2
    try:
        base, change = run_pairs({"base": base_tree, "change": ROOT},
                                 scratch, args.workload, args.seconds,
                                 args.seed, args.pairs)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        _git("worktree", "remove", "--force", str(base_tree))
        _git("worktree", "prune")
        shutil.rmtree(scratch, ignore_errors=True)

    directions = better_directions()
    summary = summarize(base, change, {
        metric: direction_of(metric, directions) for metric in base})
    payload = {"base": args.base, "workload": args.workload,
               "seconds": args.seconds, "seed": args.seed,
               "pairs": args.pairs, "metrics": summary}
    if args.json:
        args.json.write_text(json.dumps(payload, indent=1) + "\n",
                             encoding="utf-8")
    print(markdown_table(summary), end="")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
