"""``python -m repro.analysis`` — lint, graph-check and sanitize.

Subcommands::

    python -m repro.analysis lint src/repro          # determinism lint
    python -m repro.analysis graphs [MODEL ...]      # build + lint graphs
    python -m repro.analysis sanitize table1 fig3 --quick
    python -m repro.analysis concurrency             # concurrency lint
    python -m repro.analysis concurrency --runlog run.jsonl  # replay

``lint`` exits 1 on any ERROR finding; ``graphs`` builds each model's
placed graph and partition and lints both; ``sanitize`` runs the named
experiments through ``switchflow-experiments --sanitize``, so every
run's trace is checked and ERROR findings fail the invocation. Bad
input (a missing path or run log, paths holding no ``.py`` file, an
unknown model) exits 2. ``concurrency`` with no path lints the
installed ``repro`` package, wherever it is run from.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.analysis.concurrency import (
    deadlock_from_runlog,
    lint_concurrency_paths,
)
from repro.analysis.determinism import iter_python_files, lint_paths
from repro.analysis.findings import Report, Severity, merge
from repro.analysis.graph_lint import lint_graph, lint_partition
from repro.models import FIGURE3_MODELS, get_model, model_names
from repro.obs.runlog import RunLog, RunLogError

#: The ``repro`` package directory: what ``concurrency`` lints by default.
PACKAGE_DIR = Path(__file__).resolve().parents[1]


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool],
             expected: str) -> Callable[[str], Any]:
    """An argparse ``type``: convert the value, then refuse what ``ok``
    rejects, so bad input exits 2 with a usage message."""
    def parse(value: str) -> Any:
        try:
            result = convert(value)
            valid = ok(result)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"{expected}, got {value!r}")
        return result
    return parse


_existing_path = _checked(str, lambda path: Path(path).exists(),
                          "expected an existing file or directory")
_model_name = _checked(str, lambda name: name in model_names(),
                       f"expected a model ({', '.join(model_names())})")
_positive_int = _checked(int, lambda number: number >= 1,
                         "expected a positive integer")


def _no_python_files(paths: List[Any]) -> bool:
    """True, after saying so on stderr, when ``paths`` hold no ``.py``."""
    if iter_python_files(paths):
        return False
    print(f"no .py file under {', '.join(map(str, paths))}",
          file=sys.stderr)
    return True


def _finish(report: Report, quiet: bool = False) -> int:
    min_severity = Severity.WARNING if quiet else Severity.INFO
    print(report.render(min_severity=min_severity))
    return 1 if report.has_errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    if _no_python_files(args.paths):
        return 2
    report = lint_paths(args.paths)
    return _finish(report, quiet=args.quiet)


def _cmd_graphs(args: argparse.Namespace) -> int:
    from repro.graph.partition import partition_graph
    from repro.graph.placement import place_graph
    from repro.runtime.session import ACCELERATOR_TAG

    names = args.models or FIGURE3_MODELS
    report = Report("graph lint")
    for name in names:
        model = get_model(name)
        for training in (False, True):
            graph = model.build_graph(
                args.batch, training, include_pipeline=True,
                name=f"{name}/{'train' if training else 'infer'}")
            place_graph(graph, "host-cpu", ACCELERATOR_TAG)
            lint_graph(graph, require_placement=True, report=report)
            lint_partition(partition_graph(graph), report=report)
    report.info("graphs", f"linted {2 * len(names)} graph(s) "
                          f"from {len(names)} model(s)")
    return _finish(report, quiet=args.quiet)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.experiments import runner

    argv = list(args.experiments)
    if args.quick:
        argv.append("--quick")
    if args.jobs != 1:
        argv.extend(["--jobs", str(args.jobs)])
    return runner.main(argv + ["--sanitize"])


def _cmd_concurrency(args: argparse.Namespace) -> int:
    records = None
    if args.runlog:
        try:
            records = RunLog.read(args.runlog)
        except RunLogError as exc:
            print(exc, file=sys.stderr)
            return 2
    paths = args.paths or [PACKAGE_DIR]
    if _no_python_files(paths):
        return 2
    reports = [lint_concurrency_paths(paths)]
    if records is not None:
        reports.append(deadlock_from_runlog(
            records, title=f"concurrency: {args.runlog}"))
    report = merge("concurrency analysis", reports)
    return _finish(report, quiet=args.quiet)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis and sanitizers for the SwitchFlow "
                    "reproduction.")
    parser.add_argument("--quiet", action="store_true",
                        help="report WARNING and above only")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", help="determinism lint over python sources")
    lint.add_argument("paths", nargs="+", type=_existing_path,
                      help="files or directories to lint")
    lint.set_defaults(fn=_cmd_lint)

    graphs = sub.add_parser(
        "graphs", help="build and lint model graphs/partitions")
    graphs.add_argument("models", nargs="*", type=_model_name,
                        help="model names (default: the Figure 3 set)")
    graphs.add_argument("--batch", type=_positive_int, default=32)
    graphs.set_defaults(fn=_cmd_graphs)

    sanitize = sub.add_parser(
        "sanitize", help="run experiments with the trace sanitizer "
                         "enforced")
    sanitize.add_argument("experiments", nargs="+",
                          help="experiment names (as in the runner)")
    sanitize.add_argument("--quick", action="store_true")
    sanitize.add_argument("--jobs", type=int, default=1)
    sanitize.set_defaults(fn=_cmd_sanitize)

    concurrency = sub.add_parser(
        "concurrency", help="concurrency lint (lock/rendezvous usage) "
                            "and post-hoc deadlock replay from a runlog")
    concurrency.add_argument("paths", nargs="*", type=_existing_path,
                             help="files or directories to lint "
                                  "(default: the repro package)")
    concurrency.add_argument("--runlog", metavar="FILE",
                             help="JSONL run log to replay through the "
                                  "wait-for-graph deadlock detector")
    concurrency.set_defaults(fn=_cmd_concurrency)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
