"""Run context: one simulated machine plus the shared runtime plumbing.

Bundles the engine, machine, rendezvous, resource manager, RNG registry
and the two thread pools of the SwitchFlow design (Figure 4): the
*global* pool shared by all sessions, and the small *temporary* pool
that isolates preempted jobs until preemption completes. Their summed
worker count equals the host core count, as the paper requires.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, List, Optional

from repro.graph.cost_model import register_cost_cache_collector
from repro.hw.topology import Cluster
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLog
from repro.runtime.rendezvous import Rendezvous
from repro.runtime.resource_manager import ResourceManager
from repro.runtime.threadpool import ThreadPool
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

# Worker threads reserved for the temporary pool (paper: configurable;
# a tradeoff between isolation and preempted-job performance).
DEFAULT_TEMPORARY_WORKERS = 4


class RunContext:
    """Everything a workload driver needs to execute jobs."""

    def __init__(self, machine_factory: Callable[[Engine, Tracer], Cluster],
                 seed: int = 0,
                 temporary_workers: int = DEFAULT_TEMPORARY_WORKERS,
                 trace: bool = True) -> None:
        self.engine = Engine()
        self.tracer = Tracer(self.engine, enabled=trace)
        self.metrics = MetricsRegistry(clock=lambda: self.engine.now)
        self.runlog = RunLog(clock=lambda: self.engine.now)
        self.machine = machine_factory(self.engine, self.tracer)
        self.rendezvous = Rendezvous(self.engine)
        self.resources = ResourceManager(self.machine,
                                         metrics=self.metrics,
                                         runlog=self.runlog)
        self.rng = RngRegistry(seed)
        # Fault injector (repro.faults); attach_faults() installs one.
        self.faults = None
        # Windowed metrics sampler (repro.obs.timeseries);
        # attach_timeseries() installs one. None = sampling disabled,
        # which costs nothing anywhere.
        self.timeseries = None
        # Concurrency tracker (repro.analysis.concurrency);
        # attach_concurrency() installs one. None = every runtime hook
        # site pays one global load + None test and nothing else.
        self.concurrency = None
        # Serving-config overrides (repro.serving.config);
        # attach_serving() installs one. None = served-model specs run
        # exactly as the experiment declared them.
        self.serving = None
        # Job handles that ran on this context and the policy they ran
        # under (filled by the workload harness) — lets post-run
        # analysis like the critical-path profiler reach sessions/
        # executors without a side channel.
        self.jobs = []
        self.policy = None
        self.metrics.register_collector(self._collect_device_metrics)
        register_cost_cache_collector(self.metrics)

        cores = self.machine.cpu.spec.cores
        # Scale the temporary pool down on small hosts (the TX2 has only
        # four cores); the global pool must keep the lion's share.
        temporary_workers = max(1, min(temporary_workers, cores // 4))
        self.global_pool = ThreadPool(
            self.engine, self.machine.cpu, cores - temporary_workers,
            name="global", rng=self.rng, metrics=self.metrics)
        self.temporary_pool = ThreadPool(
            self.engine, self.machine.cpu, temporary_workers,
            name="temporary", rng=self.rng, metrics=self.metrics)
        # tf.data's private thread pools: each job's input pipeline has
        # its own pool (as each TF instance does), NOT the executor
        # pools. Pipelines of co-located jobs still contend for physical
        # cores through the CpuDevice semaphore — that core-level fight
        # is what slows two co-located pipelines down (Figures 8-10).
        self._data_pools = {}
        self.data_pool = self.data_pool_for("_shared_")
        capture = _CAPTURE.get()
        if capture is not None:
            capture._add(self)

    def data_pool_for(self, job_name: str) -> ThreadPool:
        """The per-job tf.data thread pool (created on first use)."""
        if job_name not in self._data_pools:
            self._data_pools[job_name] = ThreadPool(
                self.engine, self.machine.cpu,
                self.machine.cpu.spec.data_workers,
                name=f"data/{job_name}", rng=self.rng,
                metrics=self.metrics)
        return self._data_pools[job_name]

    def _collect_device_metrics(self, registry: MetricsRegistry) -> None:
        """Pull-style gauges mirroring per-device runtime state.

        Registered as a registry collector so the hot paths (kernel
        admission, allocation) pay nothing; the gauges refresh whenever
        metrics are read.
        """
        now = self.engine.now
        for gpu in self.machine.gpus:
            device = gpu.name
            busy = gpu.busy_ms_until(now)
            registry.gauge("gpu.busy_ms", device=device).set(busy)
            registry.gauge("gpu.busy_fraction", device=device).set(
                busy / now if now > 0 else 0.0)
            registry.gauge("gpu.kernels_total", device=device).set(
                gpu.kernels_completed)
            registry.gauge("gpu.context_switches_total",
                           device=device).set(gpu.context_switches)
            registry.gauge("mem.used_bytes", device=device).set(
                gpu.memory.used_bytes)
            registry.gauge("mem.high_water_bytes", device=device).set(
                gpu.memory.high_water_mark)
            registry.gauge("mem.oom_total", device=device).set(
                gpu.memory.oom_events)

    def attach_faults(self, plan):
        """Install a fault plan: build the injector, mirror it on the
        machine (for executor/resource-manager hooks) and arm its
        clock-scoped faults. Returns the injector."""
        if self.faults is not None:
            raise RuntimeError("faults already attached to this context")
        # Local import: repro.faults sits above core in the layering.
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(self, plan)
        self.faults = injector
        self.machine.faults = injector
        injector.arm()
        return injector

    def attach_timeseries(self, interval_ms: float = 100.0,
                          capacity: int = 512):
        """Start windowed metrics sampling; returns the sampler.

        Off by default: until this is called no periodic process exists
        and no instrument pays any sampling cost.
        """
        if self.timeseries is not None:
            raise RuntimeError("timeseries already attached to this context")
        # Local import: obs.timeseries reads core-owned surfaces only.
        from repro.obs.timeseries import TimeSeriesSampler

        sampler = TimeSeriesSampler(self.engine, self.metrics,
                                    interval_ms=interval_ms,
                                    capacity=capacity)
        self.timeseries = sampler.start()
        return sampler

    def attach_concurrency(self):
        """Install the happens-before/lockset/deadlock tracker.

        Installing hooks the runtime's instrumentation sites process-
        wide, replacing any tracker a previous context attached (one
        context is analyzed at a time). Returns the tracker.
        """
        if self.concurrency is not None:
            raise RuntimeError("concurrency already attached to this context")
        # Local import: repro.analysis sits above core in the layering.
        from repro.analysis.concurrency import ConcurrencyTracker

        tracker = ConcurrencyTracker(self.engine, runlog=self.runlog,
                                     ctx=self)
        tracker.install()
        self.concurrency = tracker
        return tracker

    def attach_serving(self, config):
        """Install serving-config overrides (a
        :class:`~repro.serving.config.ServingConfig`); every
        :func:`~repro.serving.frontend.run_serving` call on this
        context applies them to its served-model specs. Returns the
        config."""
        if self.serving is not None:
            raise RuntimeError("serving already attached to this context")
        self.serving = config
        return config

    @property
    def now(self) -> float:
        return self.engine.now

    def run(self, until: Optional[object] = None):
        """Drive the simulation (delegates to the engine)."""
        return self.engine.run(until=until)


def make_context(machine_builder, *args, seed: int = 0,
                 trace: bool = True,
                 temporary_workers: int = DEFAULT_TEMPORARY_WORKERS,
                 fault_plan=None,
                 timeseries_interval_ms: Optional[float] = None,
                 concurrency: Optional[str] = None,
                 serving=None,
                 **kwargs) -> RunContext:
    """Convenience: ``make_context(v100_server, n_gpus=1, seed=1)``."""
    def factory(engine: Engine, tracer: Tracer) -> Cluster:
        return machine_builder(engine, *args, tracer=tracer, **kwargs)
    ctx = RunContext(factory, seed=seed, trace=trace,
                     temporary_workers=temporary_workers)
    if fault_plan is not None:
        ctx.attach_faults(fault_plan)
    if timeseries_interval_ms is not None:
        ctx.attach_timeseries(interval_ms=timeseries_interval_ms)
    if concurrency is not None:
        if concurrency != "hb":
            raise ValueError(f"unknown concurrency mode {concurrency!r}")
        ctx.attach_concurrency()
    if serving is not None:
        ctx.attach_serving(serving)
    return ctx


class ContextCapture:
    """The contexts built inside one :func:`capture_contexts` block, in
    build order: the selected one kept whole, every one reduced to a
    one-line label (its jobs, simulated end time, policy and injected
    fault count) once it is done."""

    def __init__(self, select: Optional[int] = None) -> None:
        self.select = select
        self.selected: Optional[RunContext] = None
        self.labels: List[str] = []
        self._last: Optional[RunContext] = None

    def _add(self, ctx: RunContext) -> None:
        # A context is labelled when the next one is built (experiments
        # run one to the end before building another) or at block exit.
        self._label_last()
        if len(self.labels) == self.select:
            self.selected = ctx
        self._last = ctx

    def _label_last(self) -> None:
        ctx = self._last
        if ctx is not None:
            jobs = ", ".join(job.name for job in ctx.jobs) or "-"
            label = f"{jobs}  (end {ctx.now:.1f} ms)"
            if ctx.policy is not None:
                label += f"  {type(ctx.policy).__name__}"
            if ctx.faults is not None:
                label += f", faults {ctx.faults.injected_total():.0f}"
            self.labels.append(label)
            self._last = None


_CAPTURE: ContextVar[Optional[ContextCapture]] = ContextVar(
    "context_capture", default=None)


@contextmanager
def capture_contexts(select: Optional[int] = None
                     ) -> Iterator[ContextCapture]:
    """Record every :class:`RunContext` built in the block; the
    ``select``-th (0-based) is kept for inspection after the block."""
    capture = ContextCapture(select)
    token = _CAPTURE.set(capture)
    try:
        yield capture
    finally:
        _CAPTURE.reset(token)
        capture._label_last()
