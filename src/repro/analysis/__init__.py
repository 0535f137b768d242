"""Static analysis and runtime sanitizers for the reproduction.

Three passes share one :class:`~repro.analysis.findings.Finding` model:

* :mod:`repro.analysis.sanitizer` — trace/run-log invariant checks
  (mutual exclusion, preemption safety, migration off the critical
  path, memory ceiling, span hygiene);
* :mod:`repro.analysis.graph_lint` — static graph/partition/replica
  structure checks run before (or after) execution;
* :mod:`repro.analysis.determinism` — an AST lint for wall-clock,
  global-RNG and set-iteration hazards that would break bit-identical
  replay.

* :mod:`repro.analysis.concurrency` — dynamic happens-before race
  detection, Eraser-style lockset checking and wait-for-graph deadlock
  finding over the instrumented runtime, plus concurrency AST lint
  rules (acquire without try/finally release, blocking while holding a
  device gate, dropped rendezvous tokens).

``python -m repro.analysis`` exposes all of them;
``switchflow-experiments --sanitize`` enforces the trace/graph passes
(and an attached concurrency tracker's findings) on every run.
"""

from repro.analysis.concurrency import (
    ConcurrencyTracker,
    WaitForGraph,
    deadlock_from_runlog,
    finalize_concurrency,
    lint_concurrency_paths,
    lint_concurrency_source,
)
from repro.analysis.determinism import lint_paths, lint_source
from repro.analysis.findings import Finding, Report, Severity, merge
from repro.analysis.graph_lint import (
    lint_graph,
    lint_partition,
    lint_replicas,
    lint_session,
)
from repro.analysis.integration import (
    SanitizationError,
    analyze_context,
    enforce,
)
from repro.analysis.sanitizer import (
    SanitizerConfig,
    open_span_findings,
    sanitize_run,
    sanitize_trace,
)

__all__ = [
    "Finding", "Report", "Severity", "merge",
    "SanitizerConfig", "sanitize_run", "sanitize_trace",
    "open_span_findings",
    "lint_graph", "lint_partition", "lint_replicas", "lint_session",
    "lint_paths", "lint_source",
    "SanitizationError", "analyze_context", "enforce",
    "ConcurrencyTracker", "WaitForGraph", "deadlock_from_runlog",
    "finalize_concurrency", "lint_concurrency_paths",
    "lint_concurrency_source",
]
