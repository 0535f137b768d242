"""Determinism lint: AST checks for replay-breaking constructs.

The simulator's contract — established by the fast-path engine work and
relied on by the byte-identical parallel runner — is that a run is a
pure function of its seed. Three bug classes silently break that:

* **wallclock** — ``time.time()`` / ``datetime.now()`` (and friends)
  leaking wall-clock values into simulated state. Only the
  observability layer (``obs/``) may read wall time.
* **unseeded-rng** — the process-global ``random`` module, an
  argument-less ``random.Random()``, or ``numpy.random`` module state:
  draws that depend on interpreter history rather than the run's seed.
* **set-iteration** — iterating a set (or ``set()`` result) in the
  deterministic core (``sim/``, ``core/``, ``runtime/``): string-hash
  randomization makes the visit order differ between processes, which
  is fatal wherever iteration order feeds the event agenda.

False positives are suppressed inline with ``# noqa: repro-analysis``
on the offending line — explicit and visible at the call site, never a
blanket path exclude.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.analysis.findings import Finding, Report, Severity

PRAGMA = "# noqa: repro-analysis"

#: Fully-qualified callables that read the wall clock.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random``-module functions that mutate/read the global RNG.
GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: Directories whose files are additionally held to the set-iteration
#: rule (the deterministic core feeding the event agenda). ``faults``
#: joined post-PR 4: injected fault timing feeds the agenda the same
#: way scheduler decisions do; so do the job drivers (``workloads``)
#: and the baseline policies.
ORDER_SENSITIVE_DIRS = ("sim", "core", "runtime", "faults", "serving",
                        "workloads", "baselines")

#: Module stems held to the set-iteration rule even though their
#: package is not (``hw`` is mostly passive specs, but topology's
#: route/placement enumeration orders gang-scheduling decisions).
ORDER_SENSITIVE_MODULES = ("topology",)

#: Directory allowed to read wall time (it reports wall-clock stats).
WALLCLOCK_EXEMPT_DIRS = ("obs",)

_SET_BUILTINS = ("set", "frozenset")
_ITERATING_BUILTINS = ("list", "tuple", "iter", "enumerate", "max", "min",
                       "next", "zip", "map", "filter")


class _DeterminismVisitor(ast.NodeVisitor):
    """Single-file AST walk collecting determinism findings."""

    def __init__(self, path: str, order_sensitive: bool,
                 wallclock_exempt: bool) -> None:
        self.path = path
        self.order_sensitive = order_sensitive
        self.wallclock_exempt = wallclock_exempt
        self.findings: List[Finding] = []
        # local name -> fully qualified import path
        self.aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Import tracking
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _qualified(self, node: ast.AST) -> Optional[str]:
        """Dotted path of an expression, resolved through imports."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def _flag(self, node: ast.AST, check: str, message: str) -> None:
        self.findings.append(Finding(
            check=check, severity=Severity.ERROR, message=message,
            where=f"{self.path}:{node.lineno}",
            meta={"line": node.lineno}))

    def visit_Call(self, node: ast.Call) -> None:
        name = self._qualified(node.func)
        if name is not None:
            # `import numpy as np` resolves through the alias map, so
            # names arrive fully qualified already.
            self._check_wallclock(node, name)
            self._check_rng(node, name)
        if self.order_sensitive:
            self._check_call_iterates_set(node)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, name: str) -> None:
        if self.wallclock_exempt:
            return
        if name in WALLCLOCK_CALLS:
            self._flag(
                node, "wallclock",
                f"call to {name}() reads the wall clock; simulated "
                f"components must use engine time (or pragma the line "
                f"for wall-profiling output)")

    def _check_rng(self, node: ast.Call, name: str) -> None:
        if name.startswith("random.") \
                and name.split(".", 1)[1] in GLOBAL_RANDOM_FNS:
            self._flag(
                node, "unseeded-rng",
                f"call to {name}() uses the process-global RNG; draw "
                f"from a seeded repro.sim.rng stream instead")
        elif name == "random.Random" and not node.args \
                and not node.keywords:
            self._flag(
                node, "unseeded-rng",
                "random.Random() without a seed is seeded from the OS; "
                "pass an explicit derive_seed(...) value")
        elif name.startswith("numpy.random."):
            tail = name.split(".", 2)[2]
            if tail == "default_rng" and (node.args or node.keywords):
                pass  # explicitly seeded generator
            else:
                self._flag(
                    node, "unseeded-rng",
                    f"call to {name}() touches numpy's global (or "
                    f"OS-seeded) RNG state; use a seeded Generator")

    # ------------------------------------------------------------------
    # Set-iteration hazards
    # ------------------------------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in _SET_BUILTINS \
                and node.func.id not in self.aliases
        return False

    def _flag_set_iteration(self, node: ast.AST, how: str) -> None:
        self.findings.append(Finding(
            check="set-iteration", severity=Severity.ERROR,
            message=f"{how} iterates a set: visit order depends on "
                    f"string-hash randomization; sort it (or pragma the "
                    f"line if order provably cannot matter)",
            where=f"{self.path}:{node.lineno}",
            meta={"line": node.lineno}))

    def visit_For(self, node: ast.For) -> None:
        if self.order_sensitive and self._is_set_expr(node.iter):
            self._flag_set_iteration(node, "for-loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if self.order_sensitive:
            for generator in node.generators:
                if self._is_set_expr(generator.iter):
                    self._flag_set_iteration(node, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_call_iterates_set(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) \
                and node.func.id in _ITERATING_BUILTINS \
                and node.func.id not in self.aliases \
                and node.args and self._is_set_expr(node.args[0]):
            self._flag_set_iteration(node, f"{node.func.id}(...)")


def _path_flags(path: Union[str, Path]) -> tuple:
    path = Path(path)
    parts = path.parts
    order_sensitive = (any(part in ORDER_SENSITIVE_DIRS for part in parts)
                       or path.stem in ORDER_SENSITIVE_MODULES)
    wallclock_exempt = any(part in WALLCLOCK_EXEMPT_DIRS for part in parts)
    return order_sensitive, wallclock_exempt


def lint_source(source: str, path: str = "<string>",
                order_sensitive: Optional[bool] = None,
                wallclock_exempt: Optional[bool] = None) -> List[Finding]:
    """Lint one module's source; returns unsuppressed findings."""
    auto_order, auto_exempt = _path_flags(path)
    visitor = _DeterminismVisitor(
        path,
        order_sensitive=auto_order if order_sensitive is None
        else order_sensitive,
        wallclock_exempt=auto_exempt if wallclock_exempt is None
        else wallclock_exempt)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            check="syntax", severity=Severity.ERROR,
            message=f"cannot parse: {exc.msg}",
            where=f"{path}:{exc.lineno or 0}")]
    visitor.visit(tree)
    lines = source.splitlines()
    kept: List[Finding] = []
    for finding in visitor.findings:
        line_no = finding.meta.get("line", 0)
        line = lines[line_no - 1] if 0 < line_no <= len(lines) else ""
        if PRAGMA in line:
            continue  # explicitly waived at the call site
        kept.append(finding)
    return kept


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Iterable[Union[str, Path]],
               title: str = "determinism lint") -> Report:
    """Lint every ``.py`` file under ``paths`` into one report."""
    report = Report(title)
    files = iter_python_files(list(paths))
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        report.findings.extend(lint_source(source, str(file_path)))
    report.info("determinism", f"scanned {len(files)} file(s)")
    return report
