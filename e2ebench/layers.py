"""Fold a cProfile of one run into host self-time per simulator layer.

Every profiled function lands in exactly one layer, chosen by the module
that defines it; everything outside ``src/repro`` (stdlib, builtins,
numpy, this benchmark) is ``stdlib``. Because each function's self time
(``tottime``) is counted once, the layers sum to the profile's total.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Tuple

import repro

REPRO_DIR = Path(repro.__file__).resolve().parent

#: (module prefix under ``repro``, layer); the first match wins.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim.engine", "sim.engine"),
    ("sim.trace", "sim.trace"),
    ("sim", "sim.other"),
    ("runtime.executor", "runtime.executor"),
    ("runtime.threadpool", "runtime.threadpool"),
    ("runtime", "runtime.other"),
    ("data", "runtime.other"),
    ("hw.gpu", "hw.gpu"),
    ("hw", "hw.other"),
    ("graph", "graph"),
    ("models", "graph"),
    # The open-loop front-end and the closed-loop job drivers: the two
    # ways requests and iterations reach the scheduler.
    ("serving", "serving"),
    ("workloads", "serving"),
    ("faults", "faults"),
    ("obs.metrics", "obs.metrics"),
    ("obs", "obs.other"),
    ("metrics", "obs.other"),
    ("analysis.concurrency", "analysis.concurrency"),
    ("analysis", "analysis.other"),
)
#: core, baselines, experiments and the package root.
CORE = "core"
STDLIB = "stdlib"
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _prefix, layer in LAYER_RULES] + [CORE, STDLIB]))


def layer_of(filename: str) -> str:
    """The layer a function defined in ``filename`` belongs to.

    cProfile names builtins ``~`` and frozen or generated code
    ``<...>``; neither is an absolute path, so both are ``stdlib``.
    """
    if not os.path.isabs(filename):
        return STDLIB
    try:
        relative = Path(filename).resolve().relative_to(REPRO_DIR)
    except ValueError:
        return STDLIB
    module = ".".join(relative.with_suffix("").parts)
    for prefix, layer in LAYER_RULES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return CORE


def fold(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict."""
    totals = dict.fromkeys(LAYERS, 0.0)
    layers: Dict[str, str] = {}
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) \
            in stats.items():
        if filename not in layers:
            layers[filename] = layer_of(filename)
        totals[layers[filename]] += tottime
    return totals


def entry_calls(stats: Dict[tuple, tuple],
                functions: Dict[str, Callable]
                ) -> Dict[str, Tuple[int, float]]:
    """(calls, cumulative seconds) of each named function."""
    out = {}
    for name, function in functions.items():
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        _cc, ncalls, _tt, cumtime, _callers = stats.get(
            key, (0, 0, 0.0, 0.0, None))
        out[name] = (ncalls, cumtime)
    return out
