"""Throughput accounting for training/inference jobs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.arith import left_sum


@dataclass
class JobStats:
    """Per-job progress record, filled in by the workload drivers."""

    job: str
    batch: int
    started_at: float = 0.0
    finished_at: Optional[float] = None
    iteration_times_ms: List[float] = field(default_factory=list)
    #: (start, end) simulated-time window of each iteration — the
    #: "session" windows the Figure 3 busy/idle analysis needs.
    iteration_spans: List[Tuple[float, float]] = field(default_factory=list)
    crashed: bool = False
    crash_reason: Optional[str] = None
    preemptions: int = 0
    migrations: int = 0

    @property
    def iterations(self) -> int:
        return len(self.iteration_times_ms)

    def record_iteration(self, duration_ms: float) -> None:
        if duration_ms < 0:
            raise ValueError("iteration duration cannot be negative")
        self.iteration_times_ms.append(duration_ms)

    def throughput_items_per_s(self, warmup: int = 0) -> float:
        """Steady-state items/second, skipping ``warmup`` iterations."""
        samples = self.iteration_times_ms[warmup:]
        if not samples:
            return 0.0
        total_ms = left_sum(samples)
        if total_ms <= 0:
            return 0.0
        return len(samples) * self.batch / (total_ms / 1000.0)

    def throughput_after(self, t_ms: float) -> float:
        """items/second over iterations that started at or after t_ms.

        Used to measure a preempted job's post-migration throughput
        without diluting it with its pre-preemption iterations.
        """
        durations = [end - start for start, end in self.iteration_spans
                     if start >= t_ms]
        total_ms = left_sum(durations)
        if total_ms <= 0:
            return 0.0
        return len(durations) * self.batch / (total_ms / 1000.0)

    def mean_iteration_ms(self, warmup: int = 0) -> float:
        samples = self.iteration_times_ms[warmup:]
        if not samples:
            return 0.0
        return left_sum(samples) / len(samples)

    def __str__(self) -> str:
        status = "CRASHED" if self.crashed else f"{self.iterations} iters"
        return (f"{self.job}: {status}, "
                f"{self.throughput_items_per_s(warmup=1):.1f} items/s")


def improvement_percent(baseline_items_per_s: float,
                        improved_items_per_s: float) -> float:
    """Throughput improvement, as the paper reports it (Figs 8-10)."""
    if baseline_items_per_s <= 0:
        raise ValueError("baseline throughput must be positive")
    return (improved_items_per_s / baseline_items_per_s - 1.0) * 100.0
