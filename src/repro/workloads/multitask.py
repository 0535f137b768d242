"""Multi-task learning with shared input preprocessing (Section 3.4).

Implements the paper's merged-graph execution: a *master* model owns the
input pipeline; *secondary* models link their recv nodes to the master's
tensor, which SwitchFlow keeps as an immutable copy in GPU memory. The
schedule is the paper's strict lockstep: shared CPU preprocessing, then
each model's GPU executor in round-robin, before moving to the next
batch. The shared pipeline may still prefetch the next batch while the
GPU executors drain the current one (tf.data keeps running underneath).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.context import RunContext
from repro.metrics.throughput import JobStats
from repro.models.base import ModelSpec
from repro.runtime.session import Session
from repro.sim.resources import Store


@dataclass
class MultiTaskResult:
    """Outcome of a lockstep input-reuse run."""

    ctx: RunContext
    #: Completion time of each lockstep round (all models, one batch).
    round_times_ms: List[float] = field(default_factory=list)
    stats: Dict[str, JobStats] = field(default_factory=dict)

    def rounds(self) -> int:
        return len(self.round_times_ms)

    def mean_round_ms(self, warmup: int = 0) -> float:
        samples = self.round_times_ms[warmup:]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def items_per_second(self, batch: int, warmup: int = 0) -> float:
        """Per-model item throughput (each model sees every batch)."""
        mean = self.mean_round_ms(warmup)
        if mean <= 0:
            return 0.0
        return batch / (mean / 1000.0)


def run_multitask(ctx: RunContext, models: List[ModelSpec], batch: int,
                  training: bool, iterations: int,
                  gpu_index: int = 0, prefetch: bool = True,
                  data_workers: int = 32) -> MultiTaskResult:
    """Run ``models`` in lockstep over a shared input pipeline."""
    if not models:
        raise ValueError("need at least one model")
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    gpu = ctx.machine.gpu(gpu_index)
    pool = ctx.global_pool

    sessions: List[Session] = []
    for index, model in enumerate(models):
        job_name = f"mt{index}/{model.name}"
        sessions.append(Session(
            machine=ctx.machine, model=model, batch=batch,
            training=training, job=job_name, rendezvous=ctx.rendezvous,
            resources=ctx.resources, rng=ctx.rng,
            include_pipeline=(index == 0), data_workers=data_workers))
    master = sessions[0]

    result = MultiTaskResult(ctx=ctx)
    for session in sessions:
        result.stats[session.job] = JobStats(job=session.job, batch=batch)

    def _producer(buffer: Store):
        from repro.sim.errors import Interrupted

        try:
            for iteration in range(iterations):
                yield from master.run_cpu_stage(
                    ctx.data_pool_for(master.job), iteration)
                yield buffer.put(iteration)
        except Interrupted:
            return

    def _lockstep():
        for session in sessions:
            yield ctx.resources.ensure_state(session.job, gpu.name)
        buffer = Store(ctx.engine, capacity=2 if prefetch else 1)
        producer = ctx.engine.process(_producer(buffer), name="mt/producer")
        try:
            for iteration in range(iterations):
                round_start = ctx.engine.now
                yield buffer.get()
                for index, session in enumerate(sessions):
                    # Secondary models reuse the master's device-resident
                    # input: their recv nodes are pre-satisfied, so they
                    # pay no preprocessing and no HtoD copy.
                    completed = (set() if index == 0
                                 else set(session.recv_node_ids))
                    run = session.start_gpu_stage(
                        pool, gpu.name, iteration, completed=completed)
                    outcome = yield run.done
                    session.finish_gpu_stage(run, iteration)
                    if outcome != "completed":
                        raise RuntimeError(
                            f"lockstep run of {session.job} ended "
                            f"{outcome!r}")
                    result.stats[session.job].record_iteration(
                        ctx.engine.now - round_start)
                result.round_times_ms.append(ctx.engine.now - round_start)
        finally:
            if producer.is_alive:
                producer.interrupt("lockstep finished")
            for session in sessions:
                session.release()

    driver = ctx.engine.process(_lockstep(), name="mt/lockstep")
    ctx.engine.run(until=driver)
    return result
