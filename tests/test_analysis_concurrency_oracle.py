"""Differential test: the hb tracker's clocks == a full-merge oracle.

:class:`ConcurrencyTracker` skips or copies most vector-clock joins
(publication discipline, DESIGN.md §11). :class:`FullMergeTracker`
below is the plain algorithm: every acquire, release, hand-off and fork
merges clocks entry by entry. Both trackers watch the same run
through a :class:`Tee`; the acting actor's clock at every shared-state
access, the final actor and sync clocks, and the rendered report must
be identical.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.concurrency import ConcurrencyTracker
from repro.core import PRIORITY_HIGH, PRIORITY_LOW, JobHandle, make_context
from repro.core.switchflow import SwitchFlowPolicy
from repro.hw import XEON_DUAL_18C, CpuDevice, v100_server
from repro.models import get_model
from repro.runtime import Task, ThreadPool
from repro.runtime.rendezvous import Rendezvous
from repro.sim import Engine, RngRegistry, instrument
from repro.sim.resources import Lock, Semaphore
from repro.workloads import JobSpec, run_colocation


@pytest.fixture(autouse=True)
def _unhook_tracker():
    yield
    instrument.clear_tracker()


def _merge(dst: Dict[int, int], src: Dict[int, int]) -> None:
    for aid, clock in src.items():
        if dst.get(aid, 0) < clock:
            dst[aid] = clock


class RecordingTracker(ConcurrencyTracker):
    """Records the acting actor's clock at every hb access."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.clocks: List[tuple] = []

    def _check_hb(self, state, key, kind, actor, where) -> None:
        self.clocks.append((actor.aid, sorted(actor.vc.items())))
        super()._check_hb(state, key, kind, actor, where)

    def sync_clocks(self) -> Dict[str, list]:
        return {key: sorted(sync.vc.items())
                for key, sync in self._syncs.items()}


class FullMergeTracker(RecordingTracker):
    """Every happens-before edge as an entry-by-entry merge."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.full_sync: Dict[str, Dict[int, int]] = {}

    def process_created(self, process) -> None:
        if process.engine is not self.engine:
            return
        creator = self._current()
        child = self._new_actor(process)
        child.vc = dict(creator.vc)
        child.vc[child.aid] = 1
        creator.vc[creator.aid] += 1

    def _acquire_edge(self, actor, key: str) -> None:
        sync = self.full_sync.get(key)
        if sync:
            _merge(actor.vc, sync)

    def _release_edge(self, actor, key: str) -> None:
        _merge(self.full_sync.setdefault(key, {}), actor.vc)
        actor.vc[actor.aid] += 1

    def handoff_send(self, token) -> None:
        actor = self._current()
        self._handoffs[token] = dict(actor.vc)
        actor.vc[actor.aid] += 1

    def handoff_recv(self, token) -> None:
        vc = self._handoffs.pop(token, None)
        if vc is not None:
            _merge(self._current().vc, vc)

    def sync_clocks(self) -> Dict[str, list]:
        return {key: sorted(vc.items())
                for key, vc in self.full_sync.items()}


class Tee:
    """Installed as the tracker: forwards every hook to each tracker."""

    def __init__(self, *trackers) -> None:
        self.trackers = trackers

    def __getattr__(self, name: str):
        hooks = [getattr(tracker, name) for tracker in self.trackers]

        def forward(*args, **kwargs) -> None:
            for hook in hooks:
                hook(*args, **kwargs)
        return forward


def watch(engine) -> Tee:
    tee = Tee(RecordingTracker(engine), FullMergeTracker(engine))
    instrument.set_tracker(tee)
    return tee


def observed(tracker: RecordingTracker) -> tuple:
    actors = [tracker._engine_actor] + list(tracker._actors.values())
    return (tracker.clocks,
            sorted((a.aid, a.name, sorted(a.vc.items())) for a in actors),
            tracker.sync_clocks(),
            tracker.report(label="oracle").render())


def assert_same_clocks(tee: Tee, min_accesses: int) -> None:
    fast, full = (observed(tracker) for tracker in tee.trackers)
    assert len(fast[0]) >= min_accesses
    assert fast == full


# ---------------------------------------------------------------------------
# Random sync programs
# ---------------------------------------------------------------------------
N_LOCKS, N_SEMS, N_CHANS, N_VARS = 2, 2, 3, 3


def run_program(program, seed: int = 0) -> Tee:
    """Run ``program`` (one op list per root process) under both
    trackers.

    Ops: ``("lock", i, var, delay)`` critical section on a mutex;
    ``("sem", i, var, delay)`` the same on a 2-permit semaphore (odd
    ``i`` is anonymous); ``("try", i, var)`` a ``try_acquire``;
    ``("send", ch)`` / ``("recv", ch)`` rendezvous messages;
    ``("task", var, delay)`` a pool task that writes ``var``;
    ``("cancel",)`` cancels this process's queued tasks; ``("fork",
    ops)`` starts a child running ``ops``; ``("read"|"write", var,
    guarded)`` a bare access; ``("sleep", delay)``.
    """
    engine = Engine()
    tracker = watch(engine)
    cpu = CpuDevice(engine, XEON_DUAL_18C)
    pool = ThreadPool(engine, cpu, n_workers=2, name="oracle",
                      rng=RngRegistry(seed))
    locks = [Lock(engine) for _ in range(N_LOCKS)]
    sems = [Semaphore(engine, 2, name=None if i % 2 else f"s{i}")
            for i in range(N_SEMS)]
    rdv = Rendezvous(engine)

    def access(kind, var, guarded, where):
        tracker.access(f"v{var}", kind, where=where,
                       guard=f"g{var}" if guarded else None)

    def task_body(var, delay, where):
        def body(worker):
            yield engine.timeout(delay)
            access("write", var, False, where)
        return body

    def proc(pid, ops):
        for step, op in enumerate(ops):
            where = f"p{pid}/{step}"
            kind = op[0]
            if kind in ("lock", "sem"):
                _, index, var, delay = op
                resource = (locks if kind == "lock" else sems)[index]
                yield resource.acquire()
                try:
                    yield engine.timeout(delay)
                    access("write", var, False, where)
                finally:
                    resource.release()
            elif kind == "try":
                _, index, var = op
                if sems[index].try_acquire():
                    access("read", var, False, where)
                    sems[index].release()
            elif kind == "send":
                rdv.send("oracle", f"c{op[1]}", where)
            elif kind == "recv":
                token = yield rdv.recv("oracle", f"c{op[1]}")
                access("read", op[1], False, token)
            elif kind == "task":
                _, var, delay = op
                pool.submit([Task(name=where, job=f"p{pid}",
                                  body=task_body(var, delay, where))])
            elif kind == "cancel":
                pool.cancel(lambda task, job=f"p{pid}": task.job == job)
            elif kind == "fork":
                engine.process(proc(f"{pid}.{step}", op[1]),
                               name=f"p{pid}.{step}")
            elif kind == "sleep":
                yield engine.timeout(op[1])
            else:
                access(kind, op[1], op[2], where)

    for pid, ops in enumerate(program):
        engine.process(proc(pid, ops), name=f"p{pid}")
    engine.run(until=1000.0)
    return tracker


delays = st.integers(min_value=0, max_value=3)
var_ids = st.integers(min_value=0, max_value=N_VARS - 1)
leaf_op = st.one_of(
    st.tuples(st.just("lock"), st.integers(0, N_LOCKS - 1), var_ids, delays),
    st.tuples(st.just("sem"), st.integers(0, N_SEMS - 1), var_ids, delays),
    st.tuples(st.just("try"), st.integers(0, N_SEMS - 1), var_ids),
    st.tuples(st.just("send"), st.integers(0, N_CHANS - 1)),
    st.tuples(st.just("recv"), st.integers(0, N_CHANS - 1)),
    st.tuples(st.just("task"), var_ids, delays),
    st.tuples(st.just("cancel")),
    st.tuples(st.sampled_from(["read", "write"]), var_ids, st.booleans()),
    st.tuples(st.just("sleep"), delays),
)
op_lists = st.lists(
    st.one_of(leaf_op,
              st.tuples(st.just("fork"), st.lists(leaf_op, max_size=5))),
    max_size=10)


@settings(max_examples=80, deadline=None)
@given(st.lists(op_lists, min_size=1, max_size=4),
       st.integers(min_value=0, max_value=3))
def test_clocks_match_full_merge_oracle(program, seed):
    assert_same_clocks(run_program(program, seed), min_accesses=0)


def test_fixed_program_matches_oracle():
    # Deterministic cover of every op kind, with the shapes the
    # shortcuts key on: repeated acquires of an unchanged sync clock,
    # two holders of one semaphore, a message chain and a fork.
    program = [
        [("write", 0, True), ("lock", 0, 1, 1), ("send", 0),
         ("task", 2, 1), ("task", 2, 1), ("cancel",),
         ("sem", 0, 1, 2), ("fork", [("recv", 1), ("write", 1, False)]),
         ("write", 0, True)],
        [("recv", 0), ("lock", 0, 1, 0), ("sem", 0, 2, 1),
         ("sem", 1, 2, 1), ("send", 1), ("read", 0, True)],
        [("sleep", 2), ("try", 0, 2), ("sem", 1, 0, 3), ("task", 1, 0),
         ("lock", 1, 0, 1), ("lock", 0, 1, 1)],
    ]
    assert_same_clocks(run_program(program), min_accesses=10)


# ---------------------------------------------------------------------------
# A SwitchFlow colocation run with preemption
# ---------------------------------------------------------------------------
def test_colocation_clocks_match_full_merge_oracle():
    ctx = make_context(v100_server, 2, seed=0)
    tee = watch(ctx.engine)
    gpu = ctx.machine.gpu(0).name
    train = JobHandle(name="train", model=get_model("VGG16"), batch=16,
                      training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu)
    infer = JobHandle(name="infer", model=get_model("MobileNetV2"),
                      batch=1, training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu)
    run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=train, iterations=1000, background=True),
        JobSpec(job=infer, iterations=3, start_delay_ms=200.0)])
    assert train.stats.preemptions > 0
    assert_same_clocks(tee, min_accesses=200)
