"""Tests for executors and sessions: execution, abort/resume, memory."""

import pytest

from repro.core import make_context
from repro.hw import OutOfMemoryError, v100_server
from repro.models import get_model
from repro.runtime import Session


@pytest.fixture
def session_setup(v100_ctx):
    ctx = v100_ctx
    session = Session(
        machine=ctx.machine, model=get_model("ResNet50"), batch=8,
        training=True, job="job", rendezvous=ctx.rendezvous,
        resources=ctx.resources, rng=ctx.rng)
    return ctx, session


def _run_iteration(ctx, session, iteration=0, device=None):
    device = device or ctx.machine.gpu(0).name

    def driver(env):
        yield ctx.resources.ensure_state(session.job, device)
        yield from session.run_cpu_stage(ctx.data_pool, iteration)
        run = session.start_gpu_stage(ctx.global_pool, device, iteration)
        outcome = yield run.done
        session.finish_gpu_stage(run, iteration)
        return outcome

    process = ctx.engine.process(driver(ctx.engine))
    return ctx.engine.run(until=process)


class TestSessionExecution:
    def test_full_iteration_completes(self, session_setup):
        ctx, session = session_setup
        assert _run_iteration(ctx, session) == "completed"
        assert session.iterations_completed == 1
        assert ctx.engine.now > 0

    def test_multi_version_executors_cover_all_devices(self, session_setup):
        ctx, session = session_setup
        expected = {device.name for device in ctx.machine.devices}
        assert set(session.versions) == expected

    def test_compute_runs_on_cpu_fallback(self, session_setup):
        ctx, session = session_setup
        outcome = _run_iteration(ctx, session,
                                 device=ctx.machine.cpu.name)
        assert outcome == "completed"
        # No GPU kernels at all.
        assert ctx.machine.gpu(0).kernels_completed == 0

    def test_cpu_fallback_is_much_slower(self, two_v100_ctx):
        ctx = two_v100_ctx

        def compute_time(device_name, job_name):
            session = Session(
                machine=ctx.machine, model=get_model("MobileNetV2"),
                batch=8, training=True, job=job_name,
                rendezvous=ctx.rendezvous, resources=ctx.resources)
            timings = {}

            def driver(env):
                yield ctx.resources.ensure_state(job_name, device_name)
                yield from session.run_cpu_stage(ctx.data_pool, 0)
                timings["compute_start"] = env.now
                run = session.start_gpu_stage(
                    ctx.global_pool, device_name, 0)
                yield run.done
                session.finish_gpu_stage(run, 0)
                return env.now - timings["compute_start"]

            process = ctx.engine.process(driver(ctx.engine))
            return ctx.engine.run(until=process)

        gpu_ms = compute_time(ctx.machine.gpu(0).name, "gpu-job")
        cpu_ms = compute_time(ctx.machine.cpu.name, "cpu-job")
        assert cpu_ms > 3 * gpu_ms

    def test_node_bodies_run_one_frame_deep(self, session_setup):
        # A resumed worker walks its loop, the node body and at most the
        # CPU op below it: no per-kind helper generators in between.
        ctx, session = session_setup
        chains = set()

        def sampler(env):
            while True:
                yield env.timeout(0.05)
                for pool in (ctx.global_pool, ctx.data_pool):
                    for worker in pool.workers:
                        names = []
                        gen = worker.process.generator
                        while gen is not None:
                            names.append(gen.gi_code.co_name)
                            gen = gen.gi_yieldfrom
                        chains.add(tuple(names))

        ctx.engine.process(sampler(ctx.engine))
        assert _run_iteration(ctx, session) == "completed"
        assert ("_loop", "_node_body", "execute") in chains
        assert max(len(chain) for chain in chains) == 3

    def test_transient_memory_freed_after_run(self, session_setup):
        ctx, session = session_setup
        gpu = ctx.machine.gpu(0)
        _run_iteration(ctx, session)
        # Only the persistent weights remain.
        assert gpu.memory.used_bytes == session.state_bytes
        assert gpu.memory.high_water_mark >= session.peak_memory_bytes

    def test_oom_on_transient_allocation(self, v100_ctx):
        ctx = v100_ctx
        gpu = ctx.machine.gpu(0)
        hog = gpu.memory.allocate("hog", "block",
                                  gpu.memory.free_bytes - 100)
        session = Session(
            machine=ctx.machine, model=get_model("ResNet50"), batch=8,
            training=True, job="job", rendezvous=ctx.rendezvous,
            resources=ctx.resources)
        with pytest.raises(OutOfMemoryError):
            _run_iteration(ctx, session)
        gpu.memory.free(hog)


class TestAbortResume:
    def test_abort_mid_run_then_resume_elsewhere(self, two_v100_ctx):
        ctx = two_v100_ctx
        gpu0, gpu1 = ctx.machine.gpus
        session = Session(
            machine=ctx.machine, model=get_model("ResNet50"), batch=8,
            training=True, job="job", rendezvous=ctx.rendezvous,
            resources=ctx.resources)
        outcome = {}

        def driver(env):
            yield ctx.resources.ensure_state("job", gpu0.name)
            yield from session.run_cpu_stage(ctx.data_pool, 0)
            run = session.start_gpu_stage(ctx.global_pool, gpu0.name, 0)
            result = yield run.done
            outcome["first"] = result
            outcome["completed_before"] = len(run.completed)
            session.finish_gpu_stage(run, 0)
            # Resume on the other GPU with the completed set carried.
            yield ctx.resources.ensure_state("job", gpu1.name)
            resumed = session.start_gpu_stage(
                ctx.global_pool, gpu1.name, 0, completed=run.completed)
            result = yield resumed.done
            outcome["second"] = result
            session.finish_gpu_stage(resumed, 0)

        def preemptor(env):
            # The CPU stage takes ~80 ms (8 chunks x 80 ms on 8 workers);
            # strike a little into the GPU stage.
            yield env.timeout(95.0)
            yield from session.abort_gpu_stage()
            outcome["abort_done_at"] = env.now

        driver_proc = ctx.engine.process(driver(ctx.engine))
        ctx.engine.process(preemptor(ctx.engine))
        ctx.engine.run(until=driver_proc)

        assert outcome["first"] == "aborted"
        assert outcome["second"] == "completed"
        assert 0 < outcome["completed_before"] < \
            len(session.compute_subgraph)
        # In-flight kernels drained quickly: abort is not a full iteration.
        assert outcome["abort_done_at"] < 115.0
        # The resumed run finished the remaining work on the other GPU.
        assert ctx.machine.gpu(1).kernels_completed > 0

    def test_abort_during_recv_transfer_puts_the_tensor_back(
            self, session_setup):
        ctx, session = session_setup
        gpu = ctx.machine.gpu(0).name
        seen = {}

        def driver(env):
            yield ctx.resources.ensure_state(session.job, gpu)
            yield from session.run_cpu_stage(ctx.data_pool, 0)
            run = session.start_gpu_stage(ctx.global_pool, gpu, 0)
            # The RECV node has taken the batch off its channel and is
            # inside the ~0.5 ms HtoD copy.
            yield env.timeout(0.001)
            seen["pending_at_abort"] = ctx.rendezvous.pending_channels()
            seen["active_at_abort"] = run.active
            yield from session.abort_gpu_stage()
            seen["status"] = run.status
            seen["active"] = run.active
            seen["pending"] = ctx.rendezvous.pending_channels()
            session.finish_gpu_stage(run, 0)
            resumed = session.start_gpu_stage(
                ctx.global_pool, gpu, 0, completed=run.completed)
            outcome = yield resumed.done
            session.finish_gpu_stage(resumed, 0)
            return outcome

        process = ctx.engine.process(driver(ctx.engine))
        assert ctx.engine.run(until=process) == "completed"
        assert seen["pending_at_abort"] == 0
        assert seen["active_at_abort"] == 1
        assert seen["status"] == "aborted"
        assert seen["active"] == 0
        # The aborted RECV returned the batch to its channel, so the
        # resumed run's RECV found it instead of blocking forever.
        assert seen["pending"] == 1
        assert session.iterations_completed == 1

    def test_abort_with_no_run_is_noop(self, session_setup):
        ctx, session = session_setup

        def driver(env):
            yield from session.abort_gpu_stage()
            return "ok"

        process = ctx.engine.process(driver(ctx.engine))
        assert ctx.engine.run(until=process) == "ok"

    def test_resume_with_everything_completed_is_instant(self, session_setup):
        ctx, session = session_setup
        _run_iteration(ctx, session)
        all_nodes = {n.node_id for n in session.compute_subgraph}

        def driver(env):
            run = session.start_gpu_stage(
                ctx.global_pool, ctx.machine.gpu(0).name, 1,
                completed=all_nodes)
            outcome = yield run.done
            session.finish_gpu_stage(run, 1)
            return outcome

        start = ctx.engine.now
        process = ctx.engine.process(driver(ctx.engine))
        assert ctx.engine.run(until=process) == "completed"
        assert ctx.engine.now == start
