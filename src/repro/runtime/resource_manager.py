"""Per-device persistent state tracking (TF resource manager analogue).

Tracks where each job's model weights (and optimizer slots, for
training) currently live, allocates/frees the device memory behind
them, and implements the migration transfer SwitchFlow relies on:
asynchronous copy to the destination device, source freed only after
the copy lands (Section 3.3 / Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.faults.recovery import MigrationFailedError, backoff_ms
from repro.hw.memory import AllocationRecord
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.topology import Cluster
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.runlog import RunLog


@dataclass
class JobState:
    """Where a job's persistent variables live right now."""

    job: str
    nbytes: int
    n_tensors: int
    device: Optional[str] = None
    allocation: Optional[AllocationRecord] = None


class ResourceManager:
    """Tracks persistent variables for every job on a machine."""

    def __init__(self, machine: "Cluster",
                 metrics: Optional["MetricsRegistry"] = None,
                 runlog: Optional["RunLog"] = None) -> None:
        self.machine = machine
        self.engine = machine.engine
        self.metrics = metrics
        self.runlog = runlog
        self._states: Dict[str, JobState] = {}
        self.transfers_started = 0
        self.transfer_ms_total = 0.0

    # ------------------------------------------------------------------
    def register_job(self, job: str, state_bytes: int,
                     n_tensors: int) -> JobState:
        """Declare a job's persistent footprint (not yet materialized)."""
        if job in self._states:
            raise ValueError(f"job {job!r} already registered")
        state = JobState(job=job, nbytes=int(state_bytes),
                         n_tensors=int(n_tensors))
        self._states[job] = state
        return state

    def state_of(self, job: str) -> JobState:
        return self._states[job]

    def release_job(self, job: str) -> None:
        state = self._states.pop(job, None)
        if state is not None and state.allocation is not None:
            self.machine.device(state.device).memory.free(state.allocation)

    # ------------------------------------------------------------------
    def ensure_state(self, job: str, device_name: str) -> Event:
        """Event firing once the job's variables are resident on device.

        Three cases: already there (fires immediately); nowhere yet
        (fresh allocation — model initialization); elsewhere (migration:
        allocate at destination, asynchronous copy over the link, free
        the source afterwards — the Table 1 path).
        """
        state = self._states[job]
        done = self.engine.event()
        if state.device == device_name:
            done.succeed("resident")
            return done
        dst = self.machine.device(device_name)
        if state.device is None:
            state.allocation = dst.memory.allocate(
                job, "weights", state.nbytes)
            state.device = device_name
            done.succeed("initialized")
            return done
        self.engine.process(
            self._migrate(state, device_name, done),
            name=f"state-transfer/{job}")
        return done

    def _migrate(self, state: JobState, device_name: str, done: Event):
        src_name = state.device
        src = self.machine.device(src_name)
        dst = self.machine.device(device_name)
        old_allocation = state.allocation
        new_allocation = dst.memory.allocate(
            state.job, "weights", state.nbytes)
        # Transfers traverse the topology route — one hop on a single
        # machine, src-PCIe -> network -> dst-PCIe across nodes.
        route = self.machine.route(src_name, device_name)
        self.transfers_started += 1
        started = self.engine.now
        if self.runlog is not None:
            fields = dict(job=state.job, src=src_name, dst=device_name,
                          nbytes=state.nbytes, n_tensors=state.n_tensors)
            if route.hops > 1:
                # Multi-hop only: single-node records stay byte-for-byte
                # identical to the pre-topology schema.
                fields["route"] = route.describe()
                fields["hops"] = route.hops
            self.runlog.emit("state_transfer_start", **fields)
        # Fault injection: each transfer attempt may be failed by the
        # plan; retry with capped exponential backoff, and surface a
        # MigrationFailedError through ``done`` once retries run out so
        # the policy can re-admit the victim.
        injector = self.machine.faults
        attempt = 0
        first_failure: Optional[float] = None
        while (injector is not None
               and injector.transfer_should_fail(
                   state.job, src_name, device_name)):
            if first_failure is None:
                first_failure = self.engine.now
            # A failed copy still burns link time before the error
            # surfaces: charge half the analytic route cost.
            yield self.engine.timeout(0.5 * route.cost_ms(
                state.nbytes, state.n_tensors))
            recovery = injector.recovery
            if attempt >= recovery.transfer_retries:
                dst.memory.free(new_allocation)
                if self.metrics is not None:
                    self.metrics.counter(
                        "rm.migrations_failed_total",
                        "state migrations abandoned after retries",
                        job=state.job, dst=device_name).inc()
                if self.runlog is not None:
                    self.runlog.emit(
                        "migration_failed", job=state.job,
                        src=src_name, dst=device_name,
                        attempts=attempt + 1,
                        elapsed_ms=self.engine.now - started)
                done.fail(MigrationFailedError(
                    state.job, device_name, attempt + 1,
                    elapsed_ms=self.engine.now - started))
                return
            yield self.engine.timeout(backoff_ms(
                attempt, recovery.backoff_base_ms,
                recovery.backoff_cap_ms))
            attempt += 1
        yield route.transfer(state.nbytes, n_tensors=state.n_tensors,
                             label=f"state/{state.job}")
        if first_failure is not None:
            injector.record_recovery(
                "transfer_fail", self.engine.now - first_failure,
                job=state.job, dst=device_name)
        elapsed = self.engine.now - started
        self.transfer_ms_total += elapsed
        if self.metrics is not None:
            self.metrics.counter(
                "rm.transfers_total", "state migrations completed",
                job=state.job).inc()
            self.metrics.counter(
                "rm.transfer_bytes_total", "state bytes migrated",
                job=state.job).inc(state.nbytes)
            self.metrics.histogram(
                "rm.transfer_ms", "state migration latency (Table 1)",
                job=state.job, src=src_name,
                dst=device_name).observe(elapsed)
        if self.runlog is not None:
            self.runlog.emit("state_transfer_done", job=state.job,
                             src=src_name, dst=device_name,
                             transfer_ms=elapsed)
        # Source copy retained until the transfer lands (the paper's
        # deliberate memory-for-latency tradeoff), then released.
        if old_allocation is not None:
            src.memory.free(old_allocation)
        state.allocation = new_allocation
        state.device = device_name
        done.succeed("migrated")
