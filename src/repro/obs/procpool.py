"""Utilization accounting for the multiprocessing experiment harness.

The simulator's thread pools publish ``pool.*`` metrics in simulated
time; the experiment *runner*'s process pool lives in real wall-clock
time, so it gets its own small accounting object. The runner records
one entry per experiment task and reports how busy the worker slots
were — the "did --jobs N actually help" number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class ProcPoolStats:
    """Wall-clock task accounting for one process-pool run."""

    jobs: int
    tasks: List[Tuple[str, float]] = field(default_factory=list)

    def record(self, name: str, wall_s: float) -> None:
        self.tasks.append((name, float(wall_s)))

    @property
    def busy_s(self) -> float:
        """Total worker-seconds spent executing tasks."""
        return sum(wall for _name, wall in self.tasks)

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of worker-slot capacity that was busy."""
        if elapsed_s <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_s / (elapsed_s * self.jobs))

    def render(self, elapsed_s: float) -> str:
        """Human-readable report (the runner prints this to stderr)."""
        lines = [
            f"pool: {self.jobs} worker(s), {len(self.tasks)} task(s), "
            f"wall {elapsed_s:.2f}s, busy {self.busy_s:.2f}s, "
            f"utilization {100.0 * self.utilization(elapsed_s):.0f}%"
        ]
        lines.extend(
            f"  {name}: {wall:.2f}s"
            for name, wall in sorted(self.tasks, key=lambda t: -t[1]))
        return "\n".join(lines)
