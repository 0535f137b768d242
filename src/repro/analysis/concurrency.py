"""Dynamic concurrency analysis: races, locksets, and deadlocks.

SwitchFlow's correctness argument rests on concurrency invariants —
exclusive device ownership during preemption — and the runtime already
shipped one real concurrency bug (the PR 4 executor deadlock: an
aborted run consumed a rendezvous token without completing its RECV).
This module turns those invariants into checkable properties:

* **Happens-before tracking** (:class:`ConcurrencyTracker`). Every
  synchronization source is an edge: ``DeviceGate`` grant/release,
  ``Semaphore`` acquire/release, rendezvous SEND/RECV, ``ThreadPool``
  task hand-off, GPU-kernel completion callbacks, and process forks.
  Actors (simulated processes, plus the serialized event loop itself)
  carry vector clocks; instrumented accesses to shared runtime state
  (device memory accounting, executor run state, policy job tables)
  that are unordered by happens-before are flagged as
  ``concurrency.race`` ERRORs.

  Clocks follow a *publication discipline*: an actor's clock leaves it
  only at a release into a sync clock, a hand-off send or a fork, and
  each is followed at once by advancing the actor's own component. So
  any clock holding ``A ↦ ≥k`` covers everything actor ``A`` published
  at ``k`` (the epoch rule). Most joins are therefore skipped in O(1)
  (a sync clock's version or origin shows the actor already covers
  it; a hand-off's sender epoch is already held) or done as a C-level
  ``dict`` copy (a release into a dominated sync clock; a receive by
  an actor that absorbed nothing since its last publication). The
  clocks are identical to entry-by-entry merging; any new hook that
  publishes a clock must advance the own component right after.

* **Eraser-style lockset pass** over the same access stream: each
  shared location's candidate lockset is the intersection of the
  guards held at every access once a second actor touches it; a
  written location whose candidate set goes empty gets a
  ``concurrency.lockset`` WARNING. It catches *discipline* violations
  even when this execution happened to order the accesses.

* **Wait-for-graph deadlock detection**, live and post-hoc. Blocking
  waits add an actor→resource edge; grants record resource→holder
  edges; a cycle at block time is a ``concurrency.deadlock`` ERROR
  (and dumps the flight recorder). Waits still pending when the run
  ends — the lost-token shape of the PR 4 bug, which is *not* a cycle
  — are reported at :meth:`ConcurrencyTracker.report` time. The same
  graph replays from runlog ``cc_*`` records
  (:func:`deadlock_from_runlog`) so a saved run can be analyzed after
  the fact.

* **AST lint rules** (:func:`lint_concurrency_source`) in the
  determinism lint's framework: ``concurrency.acquire-no-release``
  (an acquire paired with a release that is not exception-safe),
  ``concurrency.hold-wait`` (blocking on another resource while
  holding a device gate, with no timeout bounding the wait), and
  ``concurrency.token-drop`` (a rendezvous token received and
  discarded — exactly how the PR 4 deadlock started). Suppress with
  the shared ``# noqa: repro-analysis`` pragma.

Everything flows through the :class:`~repro.analysis.findings.Report`
model, so ``runner --sanitize`` enforcement, the
``analysis.findings_total{check="concurrency.*"}`` metrics and the CLI
all work unchanged. Tracking is attached per run context
(``ctx.attach_concurrency()``) or by the active run options (the
runner's ``--concurrency`` flag); disabled tracking costs one global
load and a ``None`` test per hook site.
"""

from __future__ import annotations

import ast
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.determinism import PRAGMA, iter_python_files
from repro.analysis.findings import Finding, Report, Severity
from repro.core.options import current_options
from repro.sim import instrument

#: File under the run's ``--out`` directory that each run's rendered
#: concurrency report is appended to. No directory, no file.
CONCURRENCY_REPORT_FILE = "concurrency.txt"

#: Rendered reports held back from the file inside a
#: :func:`capture_concurrency_reports` block; None outside one.
_CAPTURED_REPORTS: ContextVar[Optional[List[str]]] = ContextVar(
    "captured_concurrency_reports", default=None)

#: Actor id of the serialized event loop (engine callbacks run here).
_ENGINE_AID = 0


def _join(dst: Dict[int, int], src: Dict[int, int]) -> None:
    """Pointwise-max merge of vector clock ``src`` into ``dst``."""
    for aid, clock in src.items():
        if dst.get(aid, 0) < clock:
            dst[aid] = clock


def _advance(actor: "_Actor") -> None:
    """Close the actor's epoch right after it published its clock."""
    actor.vc[actor.aid] += 1
    actor.clean = True


def _dominates(actor: "_Actor", key: str, sync: "_SyncClock") -> bool:
    """O(1) sufficient test that ``actor.vc`` covers ``sync.vc``."""
    if actor.seen.get(key) == sync.version:
        return True
    origin = sync.origin
    return origin is not None and actor.vc.get(origin[0], 0) >= origin[1]


def _absorb(actor: "_Actor", src: Dict[int, int]) -> None:
    """``actor.vc`` := ``actor.vc`` joined with ``src``.

    A clean actor whose last publication ``src`` already includes
    (epoch rule) takes a copy of ``src`` with its own component
    restored, instead of the entry-by-entry merge.
    """
    vc = actor.vc
    aid = actor.aid
    own = vc[aid]
    if actor.clean and src.get(aid, 0) >= own - 1:
        vc = actor.vc = dict(src)
        vc[aid] = own
    else:
        _join(vc, src)
    actor.clean = False


class _Actor:
    """One thread of execution: a simulated process or the event loop."""

    __slots__ = ("aid", "name", "vc", "held", "proc", "clean", "seen")

    def __init__(self, aid: int, name: str, proc: Any = None) -> None:
        self.aid = aid
        self.name = name
        self.vc: Dict[int, int] = {aid: 1}
        self.held: Set[str] = set()   # mutex-semantics resources held
        self.proc = proc
        # True while ``vc`` is the initial clock, or exactly the last
        # publication plus the own-component bump (see _absorb).
        self.clean = True
        # sync key -> version of that sync clock this clock dominates.
        self.seen: Dict[str, int] = {}

    def __repr__(self) -> str:
        return f"<_Actor {self.name!r}>"


class _SyncClock:
    """The clock of one synchronization object (lock, channel, guard).

    ``version`` bumps on every release into it. ``origin`` is
    ``(aid, own)`` while ``vc`` is an exact copy of what actor ``aid``
    published at own-value ``own``, else None.
    """

    __slots__ = ("vc", "version", "origin")

    def __init__(self) -> None:
        self.vc: Dict[int, int] = {}
        self.version = 0
        self.origin: Optional[Tuple[int, int]] = None


class _VarState:
    """Per-location race-detection state (FastTrack-style epochs +
    Eraser lockset machine)."""

    __slots__ = ("write", "reads", "owner", "shared", "written",
                 "lockset", "reported")

    def __init__(self) -> None:
        self.write: Optional[Tuple[int, int, Optional[str]]] = None
        self.reads: Dict[int, Tuple[int, Optional[str]]] = {}
        self.owner: Optional[int] = None      # Eraser: first actor
        self.shared = False
        self.written = False                  # written while shared
        self.lockset: Optional[Set[str]] = None
        self.reported = False


class _Wait:
    """One outstanding blocking wait (actor parked on a resource)."""

    __slots__ = ("actor", "resource")

    def __init__(self, actor: _Actor, resource: str) -> None:
        self.actor = actor
        self.resource = resource


class WaitForGraph:
    """Actor→resource wait edges plus resource→holder edges.

    Generic over the actor token (the live tracker uses int actor ids,
    the runlog replay uses actor names) so one cycle finder serves
    both paths.
    """

    def __init__(self) -> None:
        self.waiting: Dict[Any, str] = {}
        self.holders: Dict[str, List[Any]] = {}

    def block(self, actor: Any, resource: str) -> Optional[List[Tuple]]:
        """Record a blocking wait; returns the cycle it closes, if any."""
        self.waiting[actor] = resource
        return self.find_cycle(actor)

    def grant(self, actor: Any, resource: str,
              exclusive: bool = False) -> None:
        self.waiting.pop(actor, None)
        held = self.holders.setdefault(resource, [])
        if exclusive:
            held.clear()
        held.append(actor)

    def release(self, actor: Any, resource: str) -> None:
        held = self.holders.get(resource)
        if held:
            try:
                held.remove(actor)
            except ValueError:
                # Hand-off release (releaser never granted here): drop
                # the oldest holder so the graph does not go stale.
                held.pop(0)

    def unblock(self, actor: Any) -> None:
        self.waiting.pop(actor, None)

    def find_cycle(self, start: Any) -> Optional[List[Tuple]]:
        """DFS from ``start``: [(actor, resource, holder), ...] closing
        back at ``start``, or None."""

        def walk(actor: Any, visiting: Set[Any]) -> Optional[List[Tuple]]:
            resource = self.waiting.get(actor)
            if resource is None:
                return None
            for holder in self.holders.get(resource, ()):
                if holder == start:
                    return [(actor, resource, holder)]
                if holder in visiting:
                    continue
                tail = walk(holder, visiting | {holder})
                if tail is not None:
                    return [(actor, resource, holder)] + tail
            return None

        return walk(start, {start})


class ConcurrencyTracker:
    """Vector-clock / lockset / wait-for tracker for one engine.

    Reports happens-before races, lockset-discipline violations and
    deadlocks. Hook methods are called by the instrumented runtime
    sources (see :mod:`repro.sim.instrument`); events from other
    engines are ignored, so stale installs cannot corrupt a newer
    context's run.
    """

    def __init__(self, engine, runlog=None, ctx=None) -> None:
        self.engine = engine
        self.runlog = runlog
        self.ctx = ctx
        self.finalized = False
        self._engine_actor = _Actor(_ENGINE_AID, "<engine>")
        self._actors: Dict[int, _Actor] = {}     # id(process) -> actor
        self._names: Dict[int, str] = {_ENGINE_AID: "<engine>"}
        self._next_aid = 1
        self._syncs: Dict[str, _SyncClock] = {}
        self._vars: Dict[str, _VarState] = {}
        self._graph = WaitForGraph()
        self._waits: Dict[int, _Wait] = {}       # aid -> wait
        self._wait_by_event: Dict[int, int] = {}  # id(event) -> aid
        # token -> (sender aid, sender's own value, published clock)
        self._handoffs: Dict[Any, Tuple[int, int, Dict[int, int]]] = {}
        self._sem_keys: Dict[int, str] = {}
        self._keepalive: List[Any] = []          # pin id()-keyed objects
        self._findings: List[Finding] = []
        self._race_seen: Set[Tuple] = set()
        self._deadlocked: Set[int] = set()
        self.accesses = 0
        self.sync_ops = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "ConcurrencyTracker":
        instrument.set_tracker(self)
        return self

    def uninstall(self) -> None:
        instrument.clear_tracker(self)

    # ------------------------------------------------------------------
    # Actors
    # ------------------------------------------------------------------
    def _current(self) -> _Actor:
        proc = self.engine.active_process
        if proc is None:
            # Engine-loop callbacks are serialized by the event loop —
            # modelling them as one actor is a true ordering of this run.
            return self._engine_actor
        actor = self._actors.get(id(proc))
        if actor is None:
            actor = self._new_actor(proc)
        return actor

    def _new_actor(self, proc) -> _Actor:
        aid = self._next_aid
        self._next_aid += 1
        name = f"{getattr(proc, 'name', None) or 'process'}#{aid}"
        actor = _Actor(aid, name, proc)
        self._actors[id(proc)] = actor
        self._names[aid] = name
        return actor

    def process_created(self, process) -> None:
        """Fork edge: the new process starts after its creator's now."""
        if process.engine is not self.engine:
            return
        creator = self._current()
        child = self._new_actor(process)
        child.vc = dict(creator.vc)
        child.vc[child.aid] = 1
        child.clean = False
        _advance(creator)

    # ------------------------------------------------------------------
    # Vector-clock edges
    # ------------------------------------------------------------------
    def _acquire_edge(self, actor: _Actor, key: str) -> None:
        sync = self._syncs.get(key)
        if sync is None:
            return
        if not _dominates(actor, key, sync):
            _absorb(actor, sync.vc)
        actor.seen[key] = sync.version

    def _release_edge(self, actor: _Actor, key: str) -> None:
        sync = self._syncs.get(key)
        if sync is None:
            sync = self._syncs[key] = _SyncClock()
        # An empty or dominated sync clock merges to the actor's clock.
        copy = not sync.version or _dominates(actor, key, sync)
        sync.version += 1
        if copy:
            sync.vc = dict(actor.vc)
            sync.origin = (actor.aid, actor.vc[actor.aid])
            actor.seen[key] = sync.version
        else:
            _join(sync.vc, actor.vc)
            sync.origin = None
        _advance(actor)

    # ------------------------------------------------------------------
    # Lock-shaped resources (device gates, semaphores)
    # ------------------------------------------------------------------
    def on_gate_request(self, gate, request) -> None:
        if gate.engine is not self.engine:
            return
        self._on_lock_request(f"gate:{gate.device_name}", request,
                              exclusive=True, log=True)

    def on_gate_release(self, gate) -> None:
        if gate.engine is not self.engine:
            return
        self._on_lock_release(f"gate:{gate.device_name}", log=True)

    def on_gate_withdraw(self, gate, request) -> None:
        """A queued request was removed without ever being granted."""
        if gate.engine is not self.engine:
            return
        aid = self._wait_by_event.pop(id(request), None)
        if aid is not None:
            self._waits.pop(aid, None)
            self._graph.unblock(aid)

    def on_sem_acquire(self, sem, request, exclusive: bool) -> None:
        if sem.engine is not self.engine:
            return
        # Semaphore traffic (per-op core checkout) is far too hot for
        # the runlog; gates and channels carry the deadlock story.
        self._on_lock_request(self._sem_key(sem), request,
                              exclusive=exclusive, log=False)

    def on_sem_try(self, sem, exclusive: bool) -> None:
        """A successful ``try_acquire`` (no event, immediate grant)."""
        if sem.engine is not self.engine:
            return
        self.sync_ops += 1
        self._grant(self._current(), self._sem_key(sem), exclusive,
                    log=False)

    def on_sem_release(self, sem) -> None:
        if sem.engine is not self.engine:
            return
        self._on_lock_release(self._sem_key(sem), log=False)

    def _sem_key(self, sem) -> str:
        name = getattr(sem, "name", None)
        if name:
            return f"sem:{name}"
        key = self._sem_keys.get(id(sem))
        if key is None:
            key = f"sem:anon{len(self._sem_keys) + 1}"
            self._sem_keys[id(sem)] = key
            self._keepalive.append(sem)
        return key

    def _on_lock_request(self, key: str, request, exclusive: bool,
                         log: bool) -> None:
        if request.engine is not self.engine:
            return
        self.sync_ops += 1
        actor = self._current()
        if request.triggered:
            if request._ok:
                self._grant(actor, key, exclusive, log)
            return
        self._block(actor, key, request, log)
        request.callbacks.append(
            lambda event, a=actor, k=key, x=exclusive, lg=log:
            self._wait_fired(event, a, k, x, lg))

    def _on_lock_release(self, key: str, log: bool) -> None:
        self.sync_ops += 1
        actor = self._current()
        actor.held.discard(key)
        self._graph.release(actor.aid, key)
        self._release_edge(actor, key)
        if log:
            self._emit("cc_release", actor, key)

    def _grant(self, actor: _Actor, key: str, exclusive: bool,
               log: bool) -> None:
        self._acquire_edge(actor, key)
        self._graph.grant(actor.aid, key, exclusive=exclusive)
        if exclusive:
            actor.held.add(key)
        if log:
            self._emit("cc_grant", actor, key)

    def _block(self, actor: _Actor, key: str, event, log: bool) -> None:
        self._waits[actor.aid] = _Wait(actor, key)
        self._wait_by_event[id(event)] = actor.aid
        if log:
            self._emit("cc_block", actor, key)
        cycle = self._graph.block(actor.aid, key)
        if cycle is not None:
            self._deadlock(cycle)

    def _wait_fired(self, event, actor: _Actor, key: str,
                    exclusive: bool, log: bool) -> None:
        self._waits.pop(actor.aid, None)
        self._wait_by_event.pop(id(event), None)
        self._graph.unblock(actor.aid)
        if event._ok:
            self._grant(actor, key, exclusive, log)

    # ------------------------------------------------------------------
    # Rendezvous channels (message edges; no holder)
    # ------------------------------------------------------------------
    def on_channel_send(self, rendezvous, scope: str, key: str) -> None:
        if rendezvous.engine is not self.engine:
            return
        self.sync_ops += 1
        self._release_edge(self._current(), f"chan:{scope}/{key}")

    def on_channel_recv(self, rendezvous, scope: str, key: str,
                        event) -> None:
        if rendezvous.engine is not self.engine:
            return
        self.sync_ops += 1
        ckey = f"chan:{scope}/{key}"
        actor = self._current()
        if event.triggered:
            if event._ok:
                self._acquire_edge(actor, ckey)
            return
        self._block(actor, ckey, event, log=True)
        event.callbacks.append(
            lambda ev, a=actor, k=ckey: self._chan_fired(ev, a, k))

    def _chan_fired(self, event, actor: _Actor, key: str) -> None:
        self._waits.pop(actor.aid, None)
        self._wait_by_event.pop(id(event), None)
        self._graph.unblock(actor.aid)
        if event._ok:
            self._acquire_edge(actor, key)
            self._emit("cc_grant", actor, key)

    # ------------------------------------------------------------------
    # One-shot hand-offs (pool tasks, kernel completion callbacks)
    # ------------------------------------------------------------------
    def handoff_send(self, token: Any) -> None:
        """Publish the current actor's clock under ``token``."""
        actor = self._current()
        self._handoffs[token] = (actor.aid, actor.vc[actor.aid],
                                 dict(actor.vc))
        _advance(actor)

    def handoff_recv(self, token: Any) -> None:
        """Join the clock published under ``token``, if any."""
        sent = self._handoffs.pop(token, None)
        if sent is not None:
            sender, epoch, vc = sent
            actor = self._current()
            if actor.vc.get(sender, 0) < epoch:
                _absorb(actor, vc)

    def on_task_queued(self, pool, task) -> None:
        if pool.engine is not self.engine:
            return
        self.sync_ops += 1
        self.handoff_send(("task", task.task_id))

    def on_task_start(self, pool, task) -> None:
        if pool.engine is not self.engine:
            return
        self.handoff_recv(("task", task.task_id))

    def on_task_cancelled(self, pool, task) -> None:
        """A queued task will never start: drop its published clock."""
        if pool.engine is not self.engine:
            return
        self._handoffs.pop(("task", task.task_id), None)

    # ------------------------------------------------------------------
    # Shared-state accesses
    # ------------------------------------------------------------------
    def access(self, key: str, kind: str = "write",
               where: Optional[str] = None,
               guard: Optional[str] = None) -> None:
        """One instrumented access to shared runtime state.

        ``guard`` names the implicit lock the call site's discipline
        requires (e.g. the per-pool allocation lock a real allocator
        would take): the access joins/advances the guard's clock — so
        consistently guarded accesses are ordered — and carries the
        guard in its lockset. An unguarded access to the same key from
        an unordered actor is exactly what the checkers flag.
        """
        self.accesses += 1
        actor = self._current()
        if guard is not None:
            self._acquire_edge(actor, guard)
        state = self._vars.get(key)
        if state is None:
            state = _VarState()
            self._vars[key] = state
        self._check_hb(state, key, kind, actor, where)
        self._check_lockset(state, key, kind, actor, where, guard)
        if guard is not None:
            self._release_edge(actor, guard)

    def _check_hb(self, state: _VarState, key: str, kind: str,
                  actor: _Actor, where: Optional[str]) -> None:
        own = actor.vc.get(actor.aid, 1)
        prev = state.write
        if prev is not None:
            waid, wclock, wwhere = prev
            if waid != actor.aid and wclock > actor.vc.get(waid, 0):
                self._race(key, kind, actor, where, waid, wwhere, "write")
        if kind == "write":
            for raid, (rclock, rwhere) in state.reads.items():
                if raid != actor.aid and rclock > actor.vc.get(raid, 0):
                    self._race(key, kind, actor, where, raid, rwhere,
                               "read")
            state.write = (actor.aid, own, where)
            state.reads = {}
        else:
            state.reads[actor.aid] = (own, where)

    def _check_lockset(self, state: _VarState, key: str, kind: str,
                       actor: _Actor, where: Optional[str],
                       guard: Optional[str]) -> None:
        if state.owner is None:
            state.owner = actor.aid          # Eraser: virgin → exclusive
        elif actor.aid != state.owner:
            state.shared = True
        if not state.shared:
            return
        held = actor.held if guard is None else (actor.held | {guard})
        if state.lockset is None:
            state.lockset = set(held)
        else:
            state.lockset &= held
        if kind == "write":
            state.written = True
        if state.written and not state.lockset and not state.reported:
            state.reported = True
            self._findings.append(Finding(
                check="concurrency.lockset", severity=Severity.WARNING,
                message=f"shared state {key!r} is written with an empty "
                        f"candidate lockset: accesses are not "
                        f"consistently guarded (latest: "
                        f"{self._names[actor.aid]} at "
                        f"{where or 'unknown site'})",
                where=where or key, t_start=self.engine.now,
                meta={"key": key}))

    def _race(self, key: str, kind: str, actor: _Actor,
              where: Optional[str], other_aid: int,
              other_where: Optional[str], other_kind: str) -> None:
        token = (key, min(actor.aid, other_aid), max(actor.aid, other_aid))
        if token in self._race_seen:
            return
        self._race_seen.add(token)
        finding = Finding(
            check="concurrency.race", severity=Severity.ERROR,
            message=f"{kind} of {key!r} by {self._names[actor.aid]} "
                    f"({where or 'unknown site'}) races with {other_kind} "
                    f"by {self._names[other_aid]} "
                    f"({other_where or 'unknown site'}): no happens-before "
                    f"ordering between them",
            where=where or key, t_start=self.engine.now,
            meta={"key": key, "actors": [self._names[actor.aid],
                                         self._names[other_aid]]})
        self._findings.append(finding)
        self._emit("cc_race", actor, key)

    # ------------------------------------------------------------------
    # Deadlocks
    # ------------------------------------------------------------------
    def _deadlock(self, cycle: List[Tuple]) -> None:
        for aid, _resource, _holder in cycle:
            self._deadlocked.add(aid)
        chain = " -> ".join(
            f"{self._names.get(aid, aid)} waits on {resource} "
            f"held by {self._names.get(holder, holder)}"
            for aid, resource, holder in cycle)
        self._findings.append(Finding(
            check="concurrency.deadlock", severity=Severity.ERROR,
            message=f"wait-for cycle detected: {chain}",
            where=cycle[0][1], t_start=self.engine.now,
            meta={"cycle": [list(edge) for edge in cycle]}))
        actor = self._waits[cycle[0][0]].actor \
            if cycle[0][0] in self._waits else self._engine_actor
        self._emit("cc_deadlock", actor, cycle[0][1])
        if self.ctx is not None:
            # Cold path by definition; keep obs out of the hot imports.
            from repro.obs.audit import dump_flight_record
            dump_flight_record(self.ctx, "deadlock-detected")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def waiting_rows(self) -> List[Dict[str, str]]:
        """Outstanding blocking waits (flight-recorder snapshot)."""
        return [{"actor": wait.actor.name, "resource": wait.resource}
                for wait in self._waits.values()]

    def report(self, label: Optional[str] = None) -> Report:
        """Findings so far plus end-of-run stuck-waiter detection.

        Idempotent: builds a fresh report each call from the recorded
        findings and the *current* wait set, so harness and CLI can
        both render it.
        """
        title = f"concurrency: {label}" if label else "concurrency"
        report = Report(title)
        report.findings.extend(self._findings)
        for aid, wait in self._waits.items():
            if aid in self._deadlocked:
                continue  # already reported as a cycle
            proc = wait.actor.proc
            if proc is not None and not proc.is_alive:
                continue  # interrupted/killed; nobody is stuck
            report.error(
                "concurrency.deadlock",
                f"{wait.actor.name} is still blocked on {wait.resource} "
                f"at end of run (lost wake-up / consumed token — the "
                f"PR 4 rendezvous bug class)",
                where=wait.resource, t_start=self.engine.now)
        report.info(
            "concurrency",
            f"checked {self.accesses} shared-state accesses across "
            f"{self.sync_ops} sync operations and "
            f"{len(self._actors) + 1} actors")
        return report

    def _emit(self, kind: str, actor: _Actor, resource: str) -> None:
        runlog = self.runlog
        if runlog is not None and runlog.enabled:
            runlog.emit(kind, actor=actor.name, resource=resource)


# ---------------------------------------------------------------------------
# Post-hoc deadlock detection from runlog records
# ---------------------------------------------------------------------------
def deadlock_from_runlog(records: Iterable[Dict[str, Any]],
                         title: str = "concurrency: runlog replay"
                         ) -> Report:
    """Replay ``cc_block``/``cc_grant``/``cc_release`` records through
    the wait-for graph; report cycles and never-granted waits."""
    report = Report(title)
    graph = WaitForGraph()
    blocked: Dict[str, str] = {}
    flagged: Set[str] = set()
    replayed = 0
    for record in records:
        kind = record.get("event")
        if kind not in ("cc_block", "cc_grant", "cc_release"):
            continue
        replayed += 1
        actor = record.get("actor", "?")
        resource = record.get("resource", "?")
        if kind == "cc_block":
            blocked[actor] = resource
            cycle = graph.block(actor, resource)
            if cycle is not None:
                chain = " -> ".join(
                    f"{a} waits on {r} held by {h}" for a, r, h in cycle)
                flagged.update(a for a, _r, _h in cycle)
                report.error(
                    "concurrency.deadlock",
                    f"wait-for cycle (runlog replay): {chain}",
                    where=resource, t_start=record.get("t_ms"))
        elif kind == "cc_grant":
            blocked.pop(actor, None)
            graph.grant(actor, resource,
                        exclusive=resource.startswith("gate:"))
        else:
            graph.release(actor, resource)
    for actor, resource in blocked.items():
        if actor in flagged:
            continue
        report.error(
            "concurrency.deadlock",
            f"{actor} blocked on {resource} with no grant before the "
            f"log ends (lost wake-up / consumed token)",
            where=resource)
    report.info("concurrency", f"replayed {replayed} cc_* record(s)")
    return report


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------
def finalize_concurrency(ctx, label: str = "run") -> Optional[Report]:
    """End-of-run bookkeeping for an attached tracker.

    Uninstalls the hooks, appends the rendered report to the run's
    ``concurrency.txt`` (with an ``--out`` directory; inside
    :func:`capture_concurrency_reports` it is collected instead), and —
    unless the sanitizer owns metrics export for this run — publishes
    the ``analysis.*`` counts. Safe to call more than once.
    """
    tracker = getattr(ctx, "concurrency", None)
    if tracker is None or tracker.finalized:
        return None
    tracker.finalized = True
    tracker.uninstall()
    report = tracker.report(label=label)
    if not current_options().sanitize:
        # With --sanitize, analyze_context folds this report in and
        # exports the merged counts; don't double-count findings.
        report.export_metrics(ctx.metrics)
    if current_options().out is not None:
        block = report.render() + "\n\n"
        captured = _CAPTURED_REPORTS.get()
        if captured is None:
            write_concurrency_reports([block])
        else:
            captured.append(block)
    return report


@contextmanager
def capture_concurrency_reports() -> Iterator[List[str]]:
    """Collect the rendered reports finalized in the block, in run order,
    instead of appending them to the run's ``concurrency.txt``.

    A fan-out worker runs its item under this and ships the blocks back,
    so the parent writes every item's reports in input order
    (:func:`write_concurrency_reports`) whichever worker finishes first.
    """
    blocks: List[str] = []
    token = _CAPTURED_REPORTS.set(blocks)
    try:
        yield blocks
    finally:
        _CAPTURED_REPORTS.reset(token)


def write_concurrency_reports(blocks: Sequence[str]) -> None:
    """Append rendered report blocks to the run's ``concurrency.txt``."""
    out = current_options().out
    if out is not None and blocks:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / CONCURRENCY_REPORT_FILE, "a",
                  encoding="utf-8") as handle:
            handle.write("".join(blocks))


# ---------------------------------------------------------------------------
# AST lint rules
# ---------------------------------------------------------------------------
_ACQUIRE_ATTRS = ("request", "acquire")
_RELEASE_ATTRS = ("release", "withdraw")
_BLOCKING_ATTRS = ("recv", "get", "acquire", "request")
_TIMEOUT_HINTS = ("timeout", "any_of")


def _function_nodes(func: ast.AST):
    """Preorder nodes of one function body, nested defs pruned."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(list(ast.iter_child_nodes(node))[::-1])


def _call_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _has_timeout(node: ast.AST) -> bool:
    """True when the yield expression races the wait against a clock."""
    for child in ast.walk(node):
        attr = _call_attr(child)
        if attr in _TIMEOUT_HINTS:
            return True
    return False


class _ConcurrencyVisitor(ast.NodeVisitor):
    """Per-function lint for lock/rendezvous usage hazards."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, check: str, severity: Severity,
              message: str) -> None:
        self.findings.append(Finding(
            check=check, severity=severity, message=message,
            where=f"{self.path}:{node.lineno}",
            meta={"line": node.lineno}))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_function(self, func: ast.AST) -> None:
        acquires: List[ast.Call] = []       # .request()/.acquire() calls
        gate_acquires: List[ast.Call] = []  # .request() specifically
        releases: List[ast.Call] = []
        finally_releases: List[ast.Call] = []
        blocking_yields: List[ast.expr] = []
        finally_bodies: List[ast.AST] = []
        for node in _function_nodes(func):
            if isinstance(node, ast.Try) and node.finalbody:
                for stmt in node.finalbody:
                    finally_bodies.extend(ast.walk(stmt))
        in_finally = {id(node) for node in finally_bodies}
        for node in _function_nodes(func):
            attr = _call_attr(node)
            if attr in _ACQUIRE_ATTRS:
                acquires.append(node)
                if attr == "request":
                    gate_acquires.append(node)
            elif attr in _RELEASE_ATTRS:
                releases.append(node)
                if id(node) in in_finally:
                    finally_releases.append(node)
            if isinstance(node, ast.Yield) and node.value is not None \
                    and _call_attr(node.value) in _BLOCKING_ATTRS \
                    and not _has_timeout(node):
                blocking_yields.append(node)
            if isinstance(node, ast.Expr) \
                    and isinstance(node.value, ast.Yield) \
                    and node.value.value is not None \
                    and _call_attr(node.value.value) == "recv":
                self._flag(
                    node, "concurrency.token-drop", Severity.ERROR,
                    "rendezvous token received and discarded: a consumed "
                    "token that never completes its RECV path hangs the "
                    "resumed run (the PR 4 deadlock); bind the value and "
                    "re-send it on every abort path")
        # acquire-no-release: the function pairs an acquire with a
        # release, but no release is exception-safe (inside a finally).
        # Cross-function protocols (acquire here, release elsewhere)
        # are out of scope — we cannot see the pairing.
        if acquires and releases and not finally_releases:
            self._flag(
                acquires[0], "concurrency.acquire-no-release",
                Severity.ERROR,
                "acquire and release are paired in this function but no "
                "release sits in a try/finally: an exception between "
                "them leaks the lock/permit forever")
        # hold-wait: blocking on something else while holding a device
        # gate, with no timeout bounding the wait.
        if gate_acquires:
            first = min(call.lineno for call in gate_acquires)
            later_releases = [call.lineno for call in releases
                              if call.lineno > first]
            bound = min(later_releases) if later_releases \
                else float("inf")
            acquire_ids = {id(call) for call in gate_acquires}
            for node in blocking_yields:
                if id(node.value) in acquire_ids:
                    continue  # the gate acquisition itself
                if first < node.lineno < bound:
                    self._flag(
                        node, "concurrency.hold-wait", Severity.WARNING,
                        "blocking wait while holding a device gate with "
                        "no timeout: a stalled producer wedges the whole "
                        "device; race the wait against engine.timeout() "
                        "or release first")


def lint_concurrency_source(source: str,
                            path: str = "<string>") -> List[Finding]:
    """Concurrency-lint one module's source; pragma lines are waived."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            check="syntax", severity=Severity.ERROR,
            message=f"cannot parse: {exc.msg}",
            where=f"{path}:{exc.lineno or 0}")]
    visitor = _ConcurrencyVisitor(path)
    visitor.visit(tree)
    lines = source.splitlines()
    kept: List[Finding] = []
    for finding in visitor.findings:
        line_no = finding.meta.get("line", 0)
        line = lines[line_no - 1] if 0 < line_no <= len(lines) else ""
        if PRAGMA in line:
            continue
        kept.append(finding)
    return kept


def lint_concurrency_paths(paths: Sequence[Union[str, os.PathLike]],
                           title: str = "concurrency lint") -> Report:
    """Concurrency-lint every ``.py`` file under ``paths``."""
    report = Report(title)
    files = iter_python_files(list(paths))
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        report.findings.extend(
            lint_concurrency_source(source, str(file_path)))
    report.info("concurrency", f"scanned {len(files)} file(s)")
    return report
