"""Wiring of the analysis passes into the experiment pipeline.

``switchflow-experiments --sanitize`` (and the ``repro.analysis
sanitize`` subcommand) activate :class:`~repro.core.options.RunOptions`
with ``sanitize`` set; the experiment harnesses call :func:`enforce` on
every finished :class:`~repro.core.context.RunContext`, in whichever
process the experiment runs (``fanout_map`` ships the active options to
its workers).

``enforce`` runs the schedule sanitizer and (when sessions are known)
the graph linter, exports finding counts through the run's ``obs``
metrics registry (``analysis.*``), and raises :class:`SanitizationError`
on any ERROR finding — which is what turns ``runner --sanitize`` into a
non-zero exit.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.findings import Report, Severity
from repro.analysis.graph_lint import lint_session
from repro.analysis.sanitizer import SanitizerConfig, sanitize_run
from repro.core.options import current_options


class SanitizationError(RuntimeError):
    """A sanitized run produced at least one ERROR finding."""

    def __init__(self, report: Report) -> None:
        super().__init__(report.render(min_severity=Severity.WARNING))
        self.report = report


def analyze_context(ctx, policy=None, sessions: Iterable = (),
                    label: str = "run",
                    config: Optional[SanitizerConfig] = None) -> Report:
    """Run sanitizer + graph lint over a finished context.

    Always exports ``analysis.*`` counts into the context's metrics
    registry; never raises. Callers that want enforcement use
    :func:`enforce`.
    """
    report = sanitize_run(ctx, policy=policy, config=config)
    report.title = f"analysis: {label}"
    for session in sessions:
        if session is not None:
            lint_session(session, report=report)
    tracker = getattr(ctx, "concurrency", None)
    if tracker is not None:
        # An attached concurrency tracker's findings ride the same
        # report, so races/deadlocks gate --sanitize like any other
        # ERROR and export under analysis.findings_total.
        report.extend(tracker.report(label=label))
    report.export_metrics(ctx.metrics)
    return report


def enforce(ctx, policy=None, sessions: Iterable = (),
            label: str = "run") -> Optional[Report]:
    """Sanitize ``ctx`` if the active options ask for it; raise on ERROR.

    Returns the report when sanitization ran (None when disabled) so
    harnesses can surface warning counts without re-running the passes.
    """
    if not current_options().sanitize:
        return None
    report = analyze_context(ctx, policy=policy, sessions=sessions,
                             label=label)
    if report.has_errors:
        raise SanitizationError(report)
    return report
