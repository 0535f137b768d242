"""Interconnect links (PCIe / shared DRAM) between devices.

A link serializes transfers in each direction: concurrent requests queue
behind one another, which is what makes the paper's asynchronous state
transfer (Section 3.3, Table 1) occupy the link off the critical path
rather than for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event
from repro.sim.resources import Lock
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

from repro.hw.specs import LinkSpec


@dataclass(frozen=True)
class TransferStats:
    """Outcome of a completed transfer."""

    nbytes: int
    n_tensors: int
    duration_ms: float
    started_at: float
    finished_at: float


def transfer_time_ms(spec: LinkSpec, nbytes: int, n_tensors: int = 1) -> float:
    """Analytic time for a transfer: latency + per-tensor setup + payload."""
    if nbytes < 0 or n_tensors < 0:
        raise ValueError("transfer sizes cannot be negative")
    return (spec.latency_ms
            + n_tensors * spec.per_tensor_overhead_ms
            + nbytes / spec.bytes_per_ms)


class Link:
    """A directed, serialized transfer channel between two endpoints."""

    def __init__(self, engine: "Engine", spec: LinkSpec, src: str, dst: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.engine = engine
        self.spec = spec
        self.src = src
        self.dst = dst
        self.tracer = tracer
        self.lane = f"link:{self.src}->{self.dst}"
        self._lock = Lock(engine)
        self.bytes_moved = 0
        self.transfers_completed = 0

    def transfer(self, nbytes: int, n_tensors: int = 1,
                 label: str = "memcpy") -> Event:
        """Start a transfer; returns an event firing with TransferStats."""
        done = self.engine.event()
        self.engine.process(
            self._run(done, int(nbytes), int(n_tensors), label),
            name=f"{self.lane}:{label}")
        return done

    def _run(self, done: Event, nbytes: int, n_tensors: int, label: str):
        yield self._lock.acquire()
        span = None
        try:
            started = self.engine.now
            duration = transfer_time_ms(self.spec, nbytes, n_tensors)
            if self.tracer is not None:
                span = self.tracer.begin(
                    self.lane, label, nbytes=nbytes, n_tensors=n_tensors)
            yield self.engine.timeout(duration)
            self.bytes_moved += nbytes
            self.transfers_completed += 1
            done.succeed(TransferStats(
                nbytes=nbytes, n_tensors=n_tensors, duration_ms=duration,
                started_at=started, finished_at=self.engine.now))
        finally:
            # Close even when the timeout is interrupted mid-transfer
            # (e.g. a fault kills the run): a leaked open span would trip
            # the span-leak sanitizer check and corrupt lane nesting.
            if span is not None and not span.closed:
                span.close()
            self._lock.release()
