"""Tests for the dynamic concurrency analyzer and its lint rules."""

import pytest

from repro.analysis.concurrency import (
    ConcurrencyTracker,
    WaitForGraph,
    deadlock_from_runlog,
    finalize_concurrency,
    lint_concurrency_source,
)
from repro.analysis.findings import Severity
from repro.core import (
    JobHandle,
    RunOptions,
    SwitchFlowPolicy,
    current_options,
    make_context,
    use_options,
)
from repro.hw import XEON_DUAL_18C, CpuDevice, v100_server
from repro.models import get_model
from repro.runtime import Task, ThreadPool
from repro.runtime.rendezvous import Rendezvous
from repro.sim import Engine, instrument
from repro.sim.errors import Interrupted
from repro.sim.resources import Lock
from repro.workloads import JobSpec, run_colocation


@pytest.fixture(autouse=True)
def _unhook_tracker():
    """Never leak a tracker into other tests (process-wide hook)."""
    yield
    instrument.clear_tracker()


def tracked_engine():
    engine = Engine()
    tracker = ConcurrencyTracker(engine).install()
    return engine, tracker


def findings(tracker, check):
    return [f for f in tracker.report() if f.check == check]


# ---------------------------------------------------------------------------
# Happens-before race detection
# ---------------------------------------------------------------------------
class TestRaceDetection:
    def test_unordered_writes_race(self):
        engine, tracker = tracked_engine()

        def writer(site):
            yield engine.timeout(1)
            tracker.access("shared.counter", "write", where=site)

        engine.process(writer("a"), name="wa")
        engine.process(writer("b"), name="wb")
        engine.run()
        races = findings(tracker, "concurrency.race")
        assert len(races) == 1
        assert races[0].severity is Severity.ERROR
        assert "shared.counter" in races[0].message

    def test_race_deduplicated_per_actor_pair(self):
        engine, tracker = tracked_engine()

        def writer():
            for _ in range(5):
                yield engine.timeout(1)
                tracker.access("k", "write")

        engine.process(writer())
        engine.process(writer())
        engine.run()
        assert len(findings(tracker, "concurrency.race")) == 1

    def test_lock_ordered_accesses_are_clean(self):
        engine, tracker = tracked_engine()
        lock = Lock(engine)

        def writer(delay):
            yield engine.timeout(delay)
            yield lock.acquire()
            tracker.access("guarded.counter", "write")
            lock.release()

        engine.process(writer(1))
        engine.process(writer(2))
        engine.run()
        report = tracker.report()
        assert not report.has_errors
        assert not report.warnings  # lockset sees the held mutex too

    def test_implicit_guard_orders_and_covers(self):
        # The guard= discipline used by the runtime's instrumented
        # sites: consistent guards mean no race and no lockset gap.
        engine, tracker = tracked_engine()

        def writer():
            yield engine.timeout(1)
            tracker.access("mem:gpu0", "write", guard="lock:mem:gpu0")

        engine.process(writer())
        engine.process(writer())
        engine.run()
        report = tracker.report()
        assert not report.has_errors
        assert not report.warnings

    def test_fork_edge_orders_creator_before_child(self):
        engine, tracker = tracked_engine()

        def parent():
            tracker.access("cfg", "write")
            yield engine.timeout(1)
            engine.process(child())

        def child():
            tracker.access("cfg", "write")
            yield engine.timeout(1)

        engine.process(parent())
        engine.run()
        assert not findings(tracker, "concurrency.race")

    def test_rendezvous_send_orders_producer_before_consumer(self):
        engine, tracker = tracked_engine()
        rdv = Rendezvous(engine)

        def producer():
            tracker.access("tensor.meta", "write")
            yield engine.timeout(1)
            yield rdv.send("it0", "input", object())

        def consumer():
            yield rdv.recv("it0", "input")
            tracker.access("tensor.meta", "write")

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert not findings(tracker, "concurrency.race")

    def test_cancelled_pool_tasks_release_their_handoffs(self):
        engine, tracker = tracked_engine()
        cpu = CpuDevice(engine, XEON_DUAL_18C)
        pool = ThreadPool(engine, cpu, n_workers=1, name="one")
        ran = []

        def body(worker, index):
            yield engine.timeout(1)
            ran.append(index)

        tasks = [Task(name=f"t{index}", job="j",
                      body=lambda worker, index=index: body(worker, index))
                 for index in range(5)]
        for task in tasks:
            pool.submit([task])
        assert pool.cancel(lambda task: task is not tasks[0]) == 4
        engine.run()
        assert ran == [0]
        assert tracker._handoffs == {}


# ---------------------------------------------------------------------------
# Lockset (Eraser) pass
# ---------------------------------------------------------------------------
class TestLockset:
    def test_ordered_unguarded_writes_warn_without_a_race(self):
        engine, tracker = tracked_engine()
        lock = Lock(engine)

        def first():
            yield engine.timeout(1)
            tracker.access("unguarded", "write")
            yield lock.acquire()
            lock.release()

        def second():
            yield engine.timeout(2)
            yield lock.acquire()
            lock.release()
            tracker.access("unguarded", "write")

        engine.process(first())
        engine.process(second())
        engine.run()
        report = tracker.report()
        # The lock orders the two writes, so there is no race, but
        # neither write holds it: the discipline violation is caught.
        assert not findings(tracker, "concurrency.race")
        locksets = [f for f in report if f.check == "concurrency.lockset"]
        assert len(locksets) == 1
        assert locksets[0].severity is Severity.WARNING

    def test_single_actor_never_reported(self):
        engine, tracker = tracked_engine()

        def writer():
            for _ in range(3):
                yield engine.timeout(1)
                tracker.access("private", "write")

        engine.process(writer())
        engine.run()
        assert not tracker.report().warnings


# ---------------------------------------------------------------------------
# Deadlock detection
# ---------------------------------------------------------------------------
class TestDeadlock:
    def test_two_lock_cycle_detected_live(self):
        engine, tracker = tracked_engine()
        a, b = Lock(engine), Lock(engine)

        def grab(first, second):
            yield first.acquire()
            yield engine.timeout(1)
            yield second.acquire()

        engine.process(grab(a, b), name="p1")
        engine.process(grab(b, a), name="p2")
        engine.run()
        cycles = findings(tracker, "concurrency.deadlock")
        assert any("wait-for cycle" in f.message for f in cycles)

    def test_lost_rendezvous_token_reported(self):
        # The PR 4 executor bug, reduced: an aborted path consumed the
        # token, so the real consumer blocks forever. Not a cycle —
        # caught by end-of-run quiescence instead.
        engine, tracker = tracked_engine()
        rdv = Rendezvous(engine)

        def producer():
            yield rdv.send("it0", "input", object())

        def rogue():
            yield rdv.recv("it0", "input")  # consumes, never re-sends

        def consumer():
            yield engine.timeout(1)
            yield rdv.recv("it0", "input")  # blocks forever

        engine.process(producer())
        engine.process(rogue())
        engine.process(consumer(), name="gpu-stage")
        engine.run()
        stuck = findings(tracker, "concurrency.deadlock")
        assert len(stuck) == 1
        assert "still blocked" in stuck[0].message
        assert "chan:it0/input" in stuck[0].message

    def test_granted_wait_leaves_no_finding(self):
        engine, tracker = tracked_engine()
        rdv = Rendezvous(engine)

        def producer():
            yield engine.timeout(1)
            yield rdv.send("it0", "input", object())

        def consumer():
            yield rdv.recv("it0", "input")

        engine.process(consumer())
        engine.process(producer())
        engine.run()
        assert not tracker.report().has_errors

    def test_interrupted_waiter_is_not_a_deadlock(self):
        engine, tracker = tracked_engine()
        rdv = Rendezvous(engine)

        def consumer():
            try:
                yield rdv.recv("it0", "never")
            except Interrupted:
                pass

        proc = engine.process(consumer())

        def killer():
            yield engine.timeout(1)
            proc.interrupt("shutdown")

        engine.process(killer())
        engine.run()
        assert not tracker.report().has_errors

    def test_waiting_rows_snapshot(self):
        engine, tracker = tracked_engine()
        rdv = Rendezvous(engine)

        def consumer():
            yield rdv.recv("it0", "never")

        engine.process(consumer(), name="stuck")
        engine.run()
        rows = tracker.waiting_rows()
        assert rows == [{"actor": "stuck#1",
                         "resource": "chan:it0/never"}]


class TestWaitForGraph:
    def test_cycle_found_and_broken(self):
        graph = WaitForGraph()
        graph.grant("A", "r1", exclusive=True)
        graph.grant("B", "r2", exclusive=True)
        assert graph.block("A", "r2") is None
        cycle = graph.block("B", "r1")
        assert cycle is not None
        assert {edge[0] for edge in cycle} == {"A", "B"}
        graph.release("A", "r1")
        graph.unblock("B")
        assert graph.find_cycle("A") is None

    def test_replay_from_runlog_records(self):
        records = [
            {"event": "cc_grant", "actor": "A", "resource": "gate:gpu0"},
            {"event": "cc_grant", "actor": "B", "resource": "gate:gpu1"},
            {"event": "cc_block", "actor": "A", "resource": "gate:gpu1"},
            {"event": "cc_block", "actor": "B", "resource": "gate:gpu0",
             "t_ms": 4.0},
            {"event": "other", "actor": "C"},
        ]
        report = deadlock_from_runlog(records)
        cycles = [f for f in report.errors
                  if "wait-for cycle" in f.message]
        assert len(cycles) == 1
        assert "replayed 4 cc_* record(s)" in report.render()

    def test_replay_flags_never_granted_wait(self):
        records = [
            {"event": "cc_block", "actor": "W",
             "resource": "chan:it3/input"},
        ]
        report = deadlock_from_runlog(records)
        assert report.has_errors
        assert "no grant before the log ends" in report.errors[0].message

    def test_replay_of_clean_log_is_clean(self):
        records = [
            {"event": "cc_block", "actor": "A", "resource": "gate:gpu0"},
            {"event": "cc_grant", "actor": "A", "resource": "gate:gpu0"},
            {"event": "cc_release", "actor": "A", "resource": "gate:gpu0"},
        ]
        assert not deadlock_from_runlog(records).has_errors


# ---------------------------------------------------------------------------
# End-to-end: instrumented runtime under a real colocation run
# ---------------------------------------------------------------------------
class TestEndToEnd:
    def test_clean_colocation_run_has_no_findings(self):
        ctx = make_context(v100_server, 2, seed=0, concurrency="hb")
        trainer = JobHandle(
            name="train", model=get_model("ResNet50"), batch=16,
            training=True, preferred_device=ctx.machine.gpu(0).name)
        inference = JobHandle(
            name="infer", model=get_model("MobileNetV2"), batch=8,
            training=False, priority=0,
            preferred_device=ctx.machine.gpu(0).name)
        run_colocation(ctx, SwitchFlowPolicy, [
            JobSpec(job=trainer, iterations=2),
            JobSpec(job=inference, iterations=2)])
        report = ctx.concurrency.report(label="colocation")
        assert not report.at_least(Severity.WARNING), report.render()
        assert ctx.concurrency.accesses > 0
        assert ctx.concurrency.sync_ops > 0

    def test_live_runlog_replays_clean(self):
        ctx = make_context(v100_server, 2, seed=0, concurrency="hb")
        job = JobHandle(name="solo", model=get_model("MobileNetV2"),
                        batch=8, training=False,
                        preferred_device=ctx.machine.gpu(0).name)
        run_colocation(ctx, SwitchFlowPolicy,
                       [JobSpec(job=job, iterations=2)])
        report = deadlock_from_runlog(
            record for record in ctx.runlog.records)
        assert not report.has_errors

    def test_stale_tracker_ignores_other_engines(self):
        assert current_options().concurrency is None
        _engine, tracker = tracked_engine()
        # A fresh context's run fires every sync hook with objects from
        # its own engine; the stale tracker must drop all of them.
        ctx = make_context(v100_server, 1, seed=1)
        job = JobHandle(name="solo", model=get_model("MobileNetV2"),
                        batch=8, training=False,
                        preferred_device=ctx.machine.gpu(0).name)
        run_colocation(ctx, SwitchFlowPolicy,
                       [JobSpec(job=job, iterations=1)])
        assert tracker.sync_ops == 0
        assert not tracker.report().at_least(Severity.WARNING)


# ---------------------------------------------------------------------------
# Harness integration: run-options attach, finalize, report file
# ---------------------------------------------------------------------------
class TestHarnessIntegration:
    def test_disabled_by_default(self):
        assert current_options().concurrency is None
        ctx = make_context(v100_server, 1, seed=1)
        current_options().attach(ctx, policy=None)
        assert ctx.concurrency is None

    def test_env_attaches_and_selects_mode(self):
        ctx = make_context(v100_server, 1, seed=1)
        RunOptions.parse(concurrency="1").attach(ctx, policy=None)
        tracker = ctx.concurrency
        assert tracker is not None
        # The attached tracker wins; a second attach is a no-op.
        RunOptions.parse(concurrency="hb").attach(ctx, policy=None)
        assert ctx.concurrency is tracker

    def test_finalize_is_idempotent_and_exports_metrics(self):
        assert not current_options().sanitize
        ctx = make_context(v100_server, 1, seed=1, concurrency="hb")
        report = finalize_concurrency(ctx, label="t")
        assert report is not None
        assert report.title == "concurrency: t"
        assert ctx.metrics.value("analysis.runs_total") >= 1
        assert finalize_concurrency(ctx) is None  # second call: no-op
        assert instrument.TRACKER is None

    def test_finalize_appends_report_file(self, tmp_path):
        ctx = make_context(v100_server, 1, seed=1, concurrency="hb")
        with use_options(RunOptions(out=tmp_path)):
            finalize_concurrency(ctx, label="filecheck")
        out = tmp_path / "concurrency.txt"
        assert "concurrency: filecheck" in out.read_text(encoding="utf-8")

    def test_double_attach_rejected(self):
        ctx = make_context(v100_server, 1, seed=1, concurrency="hb")
        with pytest.raises(RuntimeError):
            ctx.attach_concurrency()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="lockset"):
            make_context(v100_server, 1, seed=1, concurrency="lockset")


# ---------------------------------------------------------------------------
# AST lint rules
# ---------------------------------------------------------------------------
class TestConcurrencyLint:
    def lint(self, source, path="src/repro/runtime/x.py"):
        return lint_concurrency_source(source, path)

    def test_token_drop_flagged(self):
        source = (
            "def stage(rdv):\n"
            "    yield rdv.recv('it0', 'input')\n")
        found = self.lint(source)
        assert [f.check for f in found] == ["concurrency.token-drop"]
        assert found[0].severity is Severity.ERROR

    def test_bound_token_is_clean(self):
        source = (
            "def stage(rdv):\n"
            "    token = yield rdv.recv('it0', 'input')\n"
            "    return token\n")
        assert self.lint(source) == []

    def test_acquire_without_finally_release_flagged(self):
        source = (
            "def stage(sem):\n"
            "    yield sem.acquire()\n"
            "    work()\n"
            "    sem.release()\n")
        found = self.lint(source)
        assert [f.check for f in found] == \
            ["concurrency.acquire-no-release"]

    def test_finally_release_is_clean(self):
        source = (
            "def stage(sem):\n"
            "    yield sem.acquire()\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        sem.release()\n")
        assert self.lint(source) == []

    def test_cross_function_release_not_flagged(self):
        # acquire here, release elsewhere: the pairing is invisible, so
        # the rule stays quiet rather than guessing.
        source = (
            "def stage(gate, job):\n"
            "    yield gate.request(job)\n")
        assert self.lint(source) == []

    def test_hold_wait_flagged(self):
        source = (
            "def stage(gate, job, store):\n"
            "    yield gate.request(job)\n"
            "    yield store.get()\n"
            "    gate.release(job)\n")
        found = self.lint(source)
        checks = [f.check for f in found]
        assert "concurrency.hold-wait" in checks

    def test_hold_wait_with_timeout_race_is_clean(self):
        source = (
            "def stage(gate, job, store, engine):\n"
            "    yield gate.request(job)\n"
            "    yield engine.any_of([store.get(), engine.timeout(5)])\n"
            "    gate.release(job)\n")
        found = self.lint(source)
        assert "concurrency.hold-wait" not in [f.check for f in found]

    def test_wait_after_release_is_clean(self):
        source = (
            "def stage(gate, job, store):\n"
            "    yield gate.request(job)\n"
            "    gate.release(job)\n"
            "    yield store.get()\n")
        found = self.lint(source)
        assert "concurrency.hold-wait" not in [f.check for f in found]

    def test_pragma_suppresses(self):
        source = (
            "def stage(rdv):\n"
            "    yield rdv.recv('it0', 'x')  # noqa: repro-analysis\n")
        assert self.lint(source) == []

    def test_syntax_error_reported_not_raised(self):
        found = self.lint("def broken(:\n")
        assert [f.check for f in found] == ["syntax"]

    def test_runtime_tree_is_lint_clean(self):
        from repro.analysis.concurrency import lint_concurrency_paths

        report = lint_concurrency_paths(["src/repro"])
        assert not report.at_least(Severity.WARNING), report.render()
