"""Deterministic fault injection and recovery (`repro.faults`).

Turns the sanitizer from a passive checker into an adversarial proof:
a :class:`FaultPlan` injects crashes, stalls, OOM, transfer failures
and spurious preemptions into a run, the runtime recovers (retry with
backoff, restart-from-checkpoint, victim re-admission, degradation to
time slicing), and `repro.analysis` then verifies the paper's
invariants still held throughout.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CLOCK_KINDS,
    KINDS,
    SITE_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    RecoveryConfig,
    Trigger,
)
from repro.faults.recovery import (
    DegradationTracker,
    InjectedJobCrash,
    MigrationFailedError,
    backoff_ms,
)

__all__ = [
    "CLOCK_KINDS",
    "KINDS",
    "SITE_KINDS",
    "DegradationTracker",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedJobCrash",
    "MigrationFailedError",
    "RecoveryConfig",
    "Trigger",
    "backoff_ms",
]
