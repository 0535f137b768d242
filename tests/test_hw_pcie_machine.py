"""Tests for interconnect links, CPU device, and the single-host
testbeds (one-node clusters)."""

import pytest

from repro.hw import (
    CpuDevice,
    GTX_1080_TI,
    NVLINK2,
    PCIE3_X16,
    RTX_2080_TI,
    XEON_DUAL_18C,
    jetson_tx2,
    single_gpu_server,
    transfer_time_ms,
    two_gpu_server,
    v100_server,
)
from repro.sim import Engine, Tracer, UnhandledEventFailure


class TestLink:
    def test_analytic_transfer_time(self):
        payload = int(1 * PCIE3_X16.bytes_per_ms)   # exactly 1 ms of data
        expected = (PCIE3_X16.latency_ms
                    + PCIE3_X16.per_tensor_overhead_ms + 1.0)
        assert transfer_time_ms(PCIE3_X16, payload, 1) == \
            pytest.approx(expected)

    def test_per_tensor_overhead_scales(self):
        slow = transfer_time_ms(PCIE3_X16, 1000, n_tensors=100)
        fast = transfer_time_ms(PCIE3_X16, 1000, n_tensors=1)
        assert slow - fast == pytest.approx(
            99 * PCIE3_X16.per_tensor_overhead_ms)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            transfer_time_ms(PCIE3_X16, -1)

    def test_transfers_serialize_on_the_link(self):
        engine = Engine()
        machine = v100_server(engine, 1)
        link = machine.link(machine.cpu.name, machine.gpu(0).name)
        nbytes = int(5 * PCIE3_X16.bytes_per_ms)
        first = link.transfer(nbytes)
        second = link.transfer(nbytes)

        def waiter(env):
            stats1 = yield first
            stats2 = yield second
            return stats1, stats2

        process = engine.process(waiter(engine))
        stats1, stats2 = engine.run(until=process)
        assert stats2.started_at >= stats1.finished_at
        assert link.transfers_completed == 2
        assert link.bytes_moved == 2 * nbytes

    def test_opposite_directions_are_independent(self):
        engine = Engine()
        machine = v100_server(engine, 1)
        nbytes = int(10 * PCIE3_X16.bytes_per_ms)
        down = machine.link(machine.cpu.name, machine.gpu(0).name)
        up = machine.link(machine.gpu(0).name, machine.cpu.name)
        first = down.transfer(nbytes)
        second = up.transfer(nbytes)

        def waiter(env):
            yield env.all_of([first, second])

        process = engine.process(waiter(engine))
        engine.run(until=process)
        # Full-duplex: both finish in ~one transfer time, not two.
        assert engine.now < 1.5 * transfer_time_ms(PCIE3_X16, nbytes, 1)


class TestCpuDevice:
    def test_execute_occupies_a_core(self):
        engine = Engine()
        cpu = CpuDevice(engine, XEON_DUAL_18C)

        def proc(env):
            yield from cpu.execute(5.0, label="op")

        process = engine.process(proc(engine))
        engine.run(until=process)
        assert engine.now == pytest.approx(5.0)
        assert cpu.ops_completed == 1

    def test_contention_beyond_core_count(self):
        engine = Engine()
        spec = XEON_DUAL_18C
        cpu = CpuDevice(engine, spec)

        def proc(env):
            yield from cpu.execute(10.0)

        for _ in range(spec.cores + 1):
            engine.process(proc(engine))
        engine.run()
        # cores tasks in parallel, then one more round.
        assert engine.now == pytest.approx(20.0)

    def test_negative_cost_rejected(self):
        engine = Engine()
        cpu = CpuDevice(engine, XEON_DUAL_18C)

        def proc(env):
            yield from cpu.execute(-1.0)

        engine.process(proc(engine))
        with pytest.raises(UnhandledEventFailure, match="negative CPU cost"):
            engine.run()


class TestMachine:
    def test_two_gpu_server_topology(self):
        engine = Engine()
        machine = two_gpu_server(engine)
        assert [g.spec.name for g in machine.gpus] == \
            [GTX_1080_TI.name, RTX_2080_TI.name]
        assert [d.name for d in machine.devices] == \
            ["Xeon 2x18c", "GTX 1080 Ti", "RTX 2080 Ti"]
        # Links exist host<->gpu and gpu<->gpu, both directions.
        for a in [machine.cpu.name] + [g.name for g in machine.gpus]:
            for b in [machine.cpu.name] + [g.name for g in machine.gpus]:
                if a != b:
                    assert machine.link(a, b) is not None

    def test_duplicate_gpu_names_are_disambiguated(self):
        engine = Engine()
        machine = v100_server(engine, 3)
        assert machine.cpu.name == "Xeon 2x18c"
        assert [g.name for g in machine.gpus] == \
            ["Tesla V100", "Tesla V100 #1", "Tesla V100 #2"]

    def test_device_lookup_errors(self):
        engine = Engine()
        machine = single_gpu_server(engine, GTX_1080_TI)
        with pytest.raises(KeyError):
            machine.device("nope")
        with pytest.raises(KeyError):
            machine.link("nope", "other")

    def test_jetson_uses_shared_memory_link(self):
        engine = Engine()
        machine = jetson_tx2(engine)
        link = machine.link(machine.cpu.name, machine.gpu(0).name)
        assert link.spec.name == "TX2 shared DRAM"

    def test_v100_count_validated(self):
        with pytest.raises(ValueError):
            v100_server(Engine(), 5)

    def test_shared_tracer_across_devices(self):
        engine = Engine()
        tracer = Tracer(engine)
        machine = v100_server(engine, 2, tracer=tracer)
        assert machine.cpu.tracer is tracer
        assert all(gpu.tracer is tracer for gpu in machine.gpus)

    @pytest.mark.parametrize("build", [
        two_gpu_server,
        lambda engine: v100_server(engine, 4),
        jetson_tx2,
        lambda engine: single_gpu_server(engine, RTX_2080_TI),
    ], ids=["two-gpu", "v100x4", "jetson", "single-gpu"])
    def test_single_host_is_a_one_node_cluster(self, build):
        machine = build(Engine())
        assert len(machine.nodes) == 1
        node = machine.nodes[0]
        assert machine.cpu is node.cpu
        for device in machine.devices:
            assert machine.node_of(device.name) is node
            assert machine.host_cpu(device.name) is machine.cpu
            assert machine.node_name_of(device.name) == "node0"

    def test_single_host_gpu_links_are_pcie_never_nvlink(self):
        for machine in (two_gpu_server(Engine()), v100_server(Engine(), 4)):
            gpus = [g.name for g in machine.gpus]
            for a in gpus:
                assert machine.link(machine.cpu.name, a).spec is PCIE3_X16
                for b in gpus:
                    if a != b:
                        link = machine.link(a, b)
                        assert link.spec is PCIE3_X16
                        assert link.spec is not NVLINK2
