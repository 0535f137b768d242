"""Cluster topology tests: typed links, routes, gang placement, and the
cross-node sanitizer invariants.

The load-bearing property throughout: a Machine is the degenerate
one-node cluster, so everything that holds for a Cluster route holds
for the single link it wraps — and single-node behavior is unchanged.
"""

import pytest

from repro.analysis.sanitizer import open_span_findings, sanitize_trace
from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    make_context,
)
from repro.core.switchflow import SwitchFlowPolicy
from repro.graph.placement import GangMember, GangScheduler
from repro.hw import (
    NETWORK_100G,
    NVLINK2,
    PCIE3_X16,
    Cluster,
    Route,
    transfer_time_ms,
    v100_cluster,
    v100_server,
)
from repro.hw.pcie import Link
from repro.models import get_model
from repro.obs.audit import decisions
from repro.sim import Engine, Interrupted, Tracer
from repro.workloads import JobSpec, run_colocation


# ---------------------------------------------------------------------------
# LinkSpec edge cases (transfer_time_ms on the new specs)
# ---------------------------------------------------------------------------
class TestClusterLinkSpecs:
    def test_zero_byte_transfer_still_pays_latency_and_setup(self):
        for spec in (NVLINK2, NETWORK_100G):
            assert transfer_time_ms(spec, 0, n_tensors=1) == \
                pytest.approx(spec.latency_ms + spec.per_tensor_overhead_ms)

    def test_zero_tensors_is_pure_latency(self):
        assert transfer_time_ms(NETWORK_100G, 0, n_tensors=0) == \
            pytest.approx(NETWORK_100G.latency_ms)

    def test_per_tensor_overhead_dominates_on_the_network(self):
        # Framing a 100-tensor model costs an order of magnitude more
        # over RoCE than over NVLink — the reason routes batch state
        # into one logical transfer instead of a message per tensor.
        nvlink = (transfer_time_ms(NVLINK2, 0, 100)
                  - transfer_time_ms(NVLINK2, 0, 1))
        network = (transfer_time_ms(NETWORK_100G, 0, 100)
                   - transfer_time_ms(NETWORK_100G, 0, 1))
        assert nvlink == pytest.approx(99 * NVLINK2.per_tensor_overhead_ms)
        assert network == pytest.approx(
            99 * NETWORK_100G.per_tensor_overhead_ms)
        assert network > 10 * nvlink

    def test_nvlink_outruns_pcie_on_bulk_payloads(self):
        nbytes = 500 * 1024 * 1024
        assert transfer_time_ms(NVLINK2, nbytes) < \
            transfer_time_ms(PCIE3_X16, nbytes)


# ---------------------------------------------------------------------------
# Route
# ---------------------------------------------------------------------------
class TestRoute:
    def _cluster(self):
        engine = Engine()
        return engine, v100_cluster(engine, 2, 2)

    def test_route_must_be_contiguous(self):
        engine = Engine()
        a_b = Link(engine, PCIE3_X16, "a", "b")
        c_d = Link(engine, PCIE3_X16, "c", "d")
        with pytest.raises(ValueError, match="not contiguous"):
            Route(engine, [a_b, c_d])
        with pytest.raises(ValueError, match="at least one link"):
            Route(engine, [])

    def test_same_node_route_is_the_direct_link(self):
        _engine, cluster = self._cluster()
        route = cluster.route("node0/gpu0", "node0/gpu1")
        assert route.hops == 1
        assert route.path == ("node0/gpu0", "node0/gpu1")
        assert route.links[0] is cluster.link("node0/gpu0", "node0/gpu1")
        assert route.links[0].spec is NVLINK2

    def test_cross_node_route_stages_through_both_cpus(self):
        _engine, cluster = self._cluster()
        route = cluster.route("node0/gpu0", "node1/gpu1")
        assert route.hops == 3
        assert route.path == ("node0/gpu0", "node0/cpu", "node1/cpu",
                              "node1/gpu1")
        assert route.describe() == \
            "node0/gpu0->node0/cpu->node1/cpu->node1/gpu1"
        specs = [link.spec for link in route.links]
        assert specs == [PCIE3_X16, NETWORK_100G, PCIE3_X16]

    def test_cpu_endpoints_drop_their_pcie_legs(self):
        _engine, cluster = self._cluster()
        assert cluster.route("node0/cpu", "node1/gpu0").hops == 2
        assert cluster.route("node0/cpu", "node1/cpu").hops == 1
        assert cluster.route("node0/cpu", "node1/cpu").links[0].spec \
            is NETWORK_100G

    def test_routes_are_cached(self):
        _engine, cluster = self._cluster()
        assert cluster.route("node0/gpu0", "node1/gpu1") is \
            cluster.route("node0/gpu0", "node1/gpu1")

    def test_cost_is_the_sum_of_hops(self):
        _engine, cluster = self._cluster()
        route = cluster.route("node0/gpu0", "node1/gpu1")
        nbytes, n_tensors = 10_000_000, 7
        expected = sum(transfer_time_ms(link.spec, nbytes, n_tensors)
                       for link in route.links)
        assert route.cost_ms(nbytes, n_tensors) == pytest.approx(expected)
        assert cluster.route_cost_ms("node0/gpu0", "node1/gpu1", nbytes,
                                     n_tensors) == pytest.approx(expected)

    def test_multi_hop_transfer_serializes_hops(self):
        engine, cluster = self._cluster()
        route = cluster.route("node0/gpu0", "node1/gpu0")
        nbytes = 50_000_000
        done = route.transfer(nbytes, n_tensors=3, label="state/job")

        def waiter(env):
            stats = yield done
            return stats

        process = engine.process(waiter(engine))
        stats = engine.run(until=process)
        assert stats.nbytes == nbytes
        assert stats.duration_ms == pytest.approx(
            route.cost_ms(nbytes, 3))
        assert engine.now == pytest.approx(route.cost_ms(nbytes, 3))
        # Each hop moved the full payload through its own link.
        for link in route.links:
            assert link.bytes_moved == nbytes
            assert link.transfers_completed == 1

    def test_single_hop_transfer_is_transcript_identical_to_the_link(self):
        # A 1-hop route must delegate verbatim: same spans, same lanes.
        def spans(use_route):
            engine = Engine()
            cluster = v100_cluster(engine, 1, 2)
            link = cluster.link("node0/gpu0", "node0/gpu1")
            source = (cluster.route("node0/gpu0", "node0/gpu1")
                      if use_route else link)
            done = source.transfer(1_000_000, n_tensors=2, label="x")

            def waiter(env):
                yield done

            engine.run(until=engine.process(waiter(engine)))
            return cluster.tracer.to_rows(), engine.now

        assert spans(True) == spans(False)


# ---------------------------------------------------------------------------
# Cluster addressing and the degenerate Machine surface
# ---------------------------------------------------------------------------
class TestClusterAddressing:
    def test_canonical_device_names(self):
        engine = Engine()
        cluster = v100_cluster(engine, 2, 2)
        assert [d.name for d in cluster.devices] == [
            "node0/cpu", "node1/cpu",
            "node0/gpu0", "node0/gpu1", "node1/gpu0", "node1/gpu1"]
        assert cluster.cpu.name == "node0/cpu"
        assert cluster.gpu(2).name == "node1/gpu0"
        assert isinstance(cluster, Cluster)

    def test_device_lookup_and_errors(self):
        engine = Engine()
        cluster = v100_cluster(engine, 2, 1)
        assert cluster.device("node1/gpu0") is cluster.gpu(1)
        with pytest.raises(KeyError, match="no device named 'node2/gpu0'"):
            cluster.device("node2/gpu0")
        with pytest.raises(KeyError, match="no device named"):
            cluster.route("node0/gpu0", "nowhere")
        with pytest.raises(KeyError, match="no link"):
            cluster.link("node0/gpu0", "node1/gpu0")   # not directly linked

    def test_node_queries(self):
        engine = Engine()
        cluster = v100_cluster(engine, 2, 2)
        assert cluster.node_name_of("node1/gpu0") == "node1"
        assert cluster.same_node("node0/gpu0", "node0/cpu")
        assert not cluster.same_node("node0/gpu0", "node1/gpu0")
        assert cluster.host_cpu("node1/gpu1").name == "node1/cpu"
        assert cluster.host_cpu("node1/cpu").name == "node1/cpu"

    def test_builder_validates_shape(self):
        with pytest.raises(ValueError):
            v100_cluster(Engine(), 0, 2)
        with pytest.raises(ValueError):
            v100_cluster(Engine(), 1, 0)

    def test_machine_is_the_degenerate_cluster(self):
        engine = Engine()
        machine = v100_server(engine, 2)
        gpu0, gpu1 = (g.name for g in machine.gpus)
        assert machine.same_node(gpu0, gpu1)
        assert machine.node_name_of(gpu0) == "node0"
        assert machine.node_of(gpu0) is machine
        assert machine.host_cpu(gpu0) is machine.cpu
        route = machine.route(gpu0, gpu1)
        assert route.hops == 1
        assert route.links[0] is machine.link(gpu0, gpu1)
        assert machine.route(gpu0, gpu1) is route   # cached
        assert machine.route_cost_ms(gpu0, gpu1, 1000, 2) == \
            pytest.approx(transfer_time_ms(route.links[0].spec, 1000, 2))
        with pytest.raises(KeyError, match="no device named"):
            machine.same_node(gpu0, "node7/gpu9")

    def test_machine_device_dict_matches_scan(self):
        engine = Engine()
        machine = v100_server(engine, 4)
        for device in machine.devices:
            assert machine.device(device.name) is device


# ---------------------------------------------------------------------------
# Span hygiene on interrupted transfers (regression: the Link span leak)
# ---------------------------------------------------------------------------
class TestInterruptedTransferSpans:
    def test_interrupted_transfer_leaves_no_open_span(self):
        engine = Engine()
        tracer = Tracer(engine)
        link = Link(engine, PCIE3_X16, "a", "b", tracer=tracer)
        done = engine.event()
        duration = transfer_time_ms(PCIE3_X16, 10_000_000)

        def doomed(env):
            try:
                yield from link._run(done, 10_000_000, 1, "memcpy")
            except Interrupted:
                pass

        victim = engine.process(doomed(engine), name="xfer")

        def killer(env):
            yield env.timeout(duration / 2)
            victim.interrupt("fault mid-transfer")

        engine.process(killer(engine))
        engine.run()
        assert not done.triggered
        assert link.transfers_completed == 0
        assert open_span_findings(tracer) == []
        # The span was closed at interrupt time, not dropped entirely.
        rows = tracer.to_rows()
        assert len(rows) == 1
        assert rows[0]["end"] == pytest.approx(duration / 2)

    def test_interrupted_transfer_releases_the_link(self):
        engine = Engine()
        link = Link(engine, PCIE3_X16, "a", "b")
        first = engine.event()

        def doomed(env):
            try:
                yield from link._run(first, 10_000_000, 1, "m")
            except Interrupted:
                pass

        victim = engine.process(doomed(engine))

        def killer(env):
            yield env.timeout(0.1)
            victim.interrupt("die")

        def retry(env):
            yield env.timeout(0.2)
            stats = yield link.transfer(1000)
            return stats

        engine.process(killer(engine))
        process = engine.process(retry(engine))
        stats = engine.run(until=process)
        # The follow-up transfer went through: the lock was not leaked.
        assert stats.nbytes == 1000
        assert link.transfers_completed == 1


# ---------------------------------------------------------------------------
# Route-cost ordering in the migration target
# ---------------------------------------------------------------------------
class TestMigrationTargetRouteOrdering:
    def _policy(self, cluster_shape=(2, 2)):
        ctx = make_context(v100_cluster, *cluster_shape, seed=3)
        return ctx, SwitchFlowPolicy(ctx)

    def _victim(self, ctx, device):
        return JobHandle(name="victim", model=get_model("MobileNetV2"),
                         batch=8, training=True, priority=PRIORITY_LOW,
                         preferred_device=device)

    def test_same_node_gpu_beats_cross_node(self):
        ctx, policy = self._policy()
        victim = self._victim(ctx, "node0/gpu0")
        target, rejected = policy._migration_target(victim, "node0/gpu0")
        assert target == "node0/gpu1"
        reasons = {r["device"]: r["why"] for r in rejected}
        assert "route cost" in reasons["node1/gpu0"]
        assert "node0/gpu1" in reasons["node1/gpu0"]
        assert "route cost" in reasons["node1/gpu1"]

    def test_remote_candidates_rank_by_route_cost(self):
        # From node1's GPU the cheap target is the node1 sibling, even
        # though node0's GPUs are identical hardware.
        ctx, policy = self._policy()
        victim = self._victim(ctx, "node1/gpu1")
        target, _rejected = policy._migration_target(victim, "node1/gpu1")
        assert target == "node1/gpu0"

    def test_single_node_keeps_pre_topology_reasons(self):
        # Equal-cost candidates fall back to the old "slower than
        # chosen" wording: no route costs surface on one node.
        ctx, policy = self._policy(cluster_shape=(1, 3))
        victim = self._victim(ctx, "node0/gpu0")
        target, rejected = policy._migration_target(victim, "node0/gpu0")
        assert target == "node0/gpu1"
        assert [r["why"] for r in rejected] == ["slower than chosen"]

    def test_held_same_node_gate_loses_to_free_remote_gpu(self):
        ctx, policy = self._policy()
        holder = JobHandle(name="holder", model=get_model("MobileNetV2"),
                           batch=8, training=True, priority=PRIORITY_HIGH,
                           preferred_device="node0/gpu1")
        policy.gates["node0/gpu1"].holder = holder
        victim = self._victim(ctx, "node0/gpu0")
        target, rejected = policy._migration_target(victim, "node0/gpu0")
        assert target == "node1/gpu0"
        reasons = {r["device"]: r["why"] for r in rejected}
        assert reasons["node0/gpu1"] == "held by higher priority"


# ---------------------------------------------------------------------------
# Gang scheduler
# ---------------------------------------------------------------------------
GIB = 1024 ** 3


def member(job, memory_gib, state_gib=0.1, critical_path_ms=10.0):
    return GangMember(job=job, memory_bytes=int(memory_gib * GIB),
                      state_bytes=int(state_gib * GIB), n_tensors=10,
                      critical_path_ms=critical_path_ms)


class TestGangScheduler:
    def _cluster(self, n_nodes=2, gpus=2):
        engine = Engine()
        return v100_cluster(engine, n_nodes, gpus)

    def test_gang_co_locates_on_one_node(self):
        scheduler = GangScheduler(self._cluster())
        placements = scheduler.place_gang(
            [member("a", 4), member("b", 4)])
        assert len({p.node for p in placements}) == 1
        assert not any(p.spilled for p in placements)
        assert {p.device for p in placements} <= \
            {f"{placements[0].node}/gpu0", f"{placements[0].node}/gpu1"}

    def test_second_gang_lands_on_the_emptier_node(self):
        scheduler = GangScheduler(self._cluster())
        first = scheduler.place_gang([member("a", 4, state_gib=8.0)])
        second = scheduler.place_gang([member("b", 4, state_gib=8.0)])
        assert first[0].node != second[0].node

    def test_spill_only_when_off_the_critical_path(self):
        # Home node full; the member's critical path is long enough to
        # hide the network copy -> spill.
        cluster = self._cluster()
        scheduler = GangScheduler(cluster)
        # a and b park 20 GiB of persistent state on each home GPU, so
        # c (20 GiB footprint) no longer fits there; c's own state is
        # tiny and its critical path long, so the network copy hides.
        gang = [member("a", 20, state_gib=20.0),
                member("b", 20, state_gib=20.0),
                member("c", 20, state_gib=0.01, critical_path_ms=1000.0)]
        placements = scheduler.place_gang(gang)
        assert [p.spilled for p in placements] == [False, False, True]
        assert placements[2].node != placements[0].node
        assert "off-path spill" in placements[2].reason

    def test_on_path_transfer_stacks_instead_of_spilling(self):
        cluster = self._cluster()
        scheduler = GangScheduler(cluster)
        # Same shape, but a tiny critical path: the network transfer
        # would be on-path, so the member time-shares the home node.
        gang = [member("a", 20, state_gib=20.0),
                member("b", 20, state_gib=20.0),
                member("c", 20, state_gib=0.01, critical_path_ms=0.01)]
        placements = scheduler.place_gang(gang)
        assert not placements[2].spilled
        assert placements[2].node == placements[0].node
        assert "stacked on home node" in placements[2].reason

    def test_placements_emit_audit_decisions(self):
        ctx = make_context(v100_cluster, 2, 2, seed=0)
        scheduler = GangScheduler(ctx.machine, runlog=ctx.runlog)
        scheduler.place([[member("a", 4), member("b", 4)]])
        placed = decisions(ctx.runlog.records, kind="gang_place")
        assert [d["job"] for d in placed] == ["a", "b"]
        assert all(d["node"] == placed[0]["node"] for d in placed)
        assert placed[1]["rejected"] == [
            {"device": placed[0]["chosen"],
             "why": "less free memory than chosen"}]

    def test_machine_degenerate_case_always_co_locates(self):
        engine = Engine()
        scheduler = GangScheduler(v100_server(engine, 2))
        placements = scheduler.place_gang(
            [member("a", 4), member("b", 4), member("c", 40)])
        assert all(p.node == "node0" for p in placements)
        assert not any(p.spilled for p in placements)

    def test_empty_gang_and_no_gpus_are_handled(self):
        engine = Engine()
        scheduler = GangScheduler(v100_server(engine, 2))
        assert scheduler.place_gang([]) == []
        cpu_only = v100_cluster(Engine(), 1, 1)
        cpu_only.nodes[0].gpus.clear()
        with pytest.raises(ValueError, match="no GPUs"):
            GangScheduler(cpu_only).place_gang([member("a", 1)])


# ---------------------------------------------------------------------------
# Cross-node sanitizer invariants
# ---------------------------------------------------------------------------
class TestRoutePlacementCheck:
    DEVICES = {"node0/cpu", "node1/cpu", "node0/gpu0", "node1/gpu0"}

    def _report(self, records):
        return sanitize_trace([], records=records,
                              known_devices=self.DEVICES)

    def test_consistent_transfer_chain_is_clean(self):
        records = [
            {"event": "state_transfer_start", "t_ms": 1.0, "job": "j",
             "src": "node0/gpu0", "dst": "node1/gpu0",
             "route": "node0/gpu0->node0/cpu->node1/cpu->node1/gpu0",
             "hops": 3},
            {"event": "state_transfer_done", "t_ms": 5.0, "job": "j",
             "src": "node0/gpu0", "dst": "node1/gpu0"},
            {"event": "state_transfer_start", "t_ms": 9.0, "job": "j",
             "src": "node1/gpu0", "dst": "node0/gpu0"},
        ]
        assert not self._report(records).by_check("route-placement")

    def test_departure_from_wrong_device_is_an_error(self):
        records = [
            {"event": "state_transfer_done", "t_ms": 5.0, "job": "j",
             "src": "node0/gpu0", "dst": "node1/gpu0"},
            {"event": "state_transfer_start", "t_ms": 9.0, "job": "j",
             "src": "node0/gpu0", "dst": "node0/cpu"},
        ]
        findings = self._report(records).by_check("route-placement")
        assert len(findings) == 1
        assert "last recorded on 'node1/gpu0'" in findings[0].message

    def test_route_must_join_the_endpoints(self):
        records = [{
            "event": "state_transfer_start", "t_ms": 1.0, "job": "j",
            "src": "node0/gpu0", "dst": "node1/gpu0",
            "route": "node0/gpu0->node0/cpu->node1/cpu", "hops": 2}]
        findings = self._report(records).by_check("route-placement")
        assert len(findings) == 1
        assert "does not join" in findings[0].message

    def test_hop_count_must_match_the_path(self):
        records = [{
            "event": "state_transfer_start", "t_ms": 1.0, "job": "j",
            "src": "node0/gpu0", "dst": "node1/gpu0",
            "route": "node0/gpu0->node0/cpu->node1/cpu->node1/gpu0",
            "hops": 2}]
        findings = self._report(records).by_check("route-placement")
        assert len(findings) == 1
        assert "claims 2" in findings[0].message

    def test_unknown_endpoint_and_waypoint_are_errors(self):
        records = [{
            "event": "state_transfer_start", "t_ms": 1.0, "job": "j",
            "src": "node0/gpu0", "dst": "node9/gpu0",
            "route": "node0/gpu0->node9/cpu->node9/gpu0", "hops": 2}]
        messages = [f.message for f in
                    self._report(records).by_check("route-placement")]
        assert any("unknown device 'node9/gpu0'" in m for m in messages)
        assert any("stages through unknown device 'node9/cpu'" in m
                   for m in messages)


# ---------------------------------------------------------------------------
# End-to-end: a two-node colocation run exercises all of the above
# ---------------------------------------------------------------------------
class TestClusterEndToEnd:
    def test_cross_node_migrations_cost_more_and_sanitize_clean(self):
        from repro.analysis.sanitizer import sanitize_run

        ctx = make_context(v100_cluster, 2, 2, seed=3)
        machine = ctx.machine
        trainers = [
            JobSpec(job=JobHandle(name=f"bg{i}", model=get_model("ResNet50"),
                                  batch=16, training=True,
                                  priority=PRIORITY_LOW,
                                  preferred_device=gpu.name),
                    iterations=100_000, background=True)
            for i, gpu in enumerate(machine.gpus)]
        streams = [
            JobSpec(job=JobHandle(name=f"fg{i}", model=get_model("MobileNetV2"),
                                  batch=1, training=False,
                                  priority=PRIORITY_HIGH,
                                  preferred_device=machine.gpus[i].name),
                    iterations=4, start_delay_ms=500.0 + 20.0 * i)
            for i in range(2)]
        policy_holder = {}

        def factory(context):
            policy_holder["policy"] = SwitchFlowPolicy(context)
            return policy_holder["policy"]

        result = run_colocation(ctx, factory, trainers + streams)
        assert not result.crashed_jobs()
        assert policy_holder["policy"].preemptions >= 1

        done = [r for r in ctx.runlog.records
                if r.get("event") == "state_transfer_done"]
        same = [r["transfer_ms"] for r in done
                if machine.same_node(r["src"], r["dst"])]
        cross = [r["transfer_ms"] for r in done
                 if not machine.same_node(r["src"], r["dst"])]
        assert same and cross, "expected both route classes to occur"
        assert min(cross) > max(same)

        # Multi-hop transfers carry their route, and it sanitizes clean
        # (route placement + per-node memory ceilings included).
        starts = [r for r in ctx.runlog.records
                  if r.get("event") == "state_transfer_start"
                  and "route" in r]
        assert any(r["hops"] == 3 for r in starts)
        report = sanitize_run(ctx, policy=policy_holder["policy"])
        assert not report.has_errors, [f.message for f in report.errors]
