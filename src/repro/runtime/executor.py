"""Executor: runs one subgraph on one device via a thread pool.

Follows the paper's Figure 1 semantics: ready nodes are dispatched
breadth-first onto worker local queues; when a node finishes, its newly
ready successors either go back through the pool (expensive ops) or run
inline on the same worker (inexpensive ops); idle workers steal.

An executor is bound to a *device version*: SwitchFlow replicates
executors across devices so a subgraph can migrate (Section 3.2). Runs
can be aborted mid-flight — queued nodes are revoked, in-flight kernels
drain — and later *resumed* with the completed-node set carried over,
so no work is lost (Section 3.3).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.graph.cost_model import (
    EXPENSIVE_THRESHOLD_MS,
    cpu_op_cost_ms,
    gpu_kernel_cost,
)
from repro.graph.graph import Graph, Node
from repro.graph.ops import CPU_OP_PARALLELISM, OpKind
from repro.hw.gpu import GpuDevice
from repro.hw.kernels import KernelLaunch
from repro.sim import instrument
from repro.sim.events import Event
from repro.runtime.rendezvous import Rendezvous
from repro.runtime.threadpool import Task, ThreadPool, Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.topology import Cluster

# Host-side bookkeeping per node (TF executor overhead: dependency
# resolution, kernel argument setup, stream work submission).
EXECUTOR_DISPATCH_MS = 0.06
# Ops inside a tf.while_loop (unrolled RNN decode steps) pay the
# dynamic-control-flow tax on every step: frame bookkeeping, feed of the
# previous step's output, beam-search pruning on the host.
RECURRENT_DISPATCH_MS = 0.5
# Relative execution-time jitter applied to every op (lognormal sigma).
EXECUTION_JITTER_SIGMA = 0.03

class ExecutorRun:
    """Mutable state of one in-flight executor invocation.

    Dependency state is seeded from the executor's precomputed in-degree
    map: a fresh run is a dict copy, and a *resumed* run (``completed``
    carried over from an aborted invocation) subtracts the edges leaving
    completed nodes instead of rescanning every predecessor list in the
    subgraph.
    """

    # The last three slots belong to the session layer, which annotates
    # runs with the device/pool/memory context they execute under.
    __slots__ = ("executor", "scope", "done", "aborted", "completed",
                 "active", "_quiesced", "in_deg", "remaining", "cc_keys",
                 "transient_allocation", "device_name", "pool")

    def __init__(self, executor: "Executor", scope: str,
                 completed: Optional[Set[int]] = None) -> None:
        self.executor = executor
        self.scope = scope
        self.done: Event = executor.engine.event()
        self.aborted = False
        self.completed: Set[int] = set(completed or ())
        self.active = 0
        self._quiesced: Optional[Event] = None
        self.in_deg: Dict[int, int] = dict(executor._base_in_deg)
        if self.completed:
            for node_id in self.completed:
                self.in_deg.pop(node_id, None)
            for node_id in self.completed:
                for successor, _expensive in executor._succ.get(node_id, ()):
                    sid = successor.node_id
                    if sid in self.in_deg:
                        self.in_deg[sid] -= 1
        self.remaining = len(self.in_deg)
        # (state key, guard key) for the concurrency tracker, formatted
        # on the run's first tracked completion.
        self.cc_keys: Optional[Tuple[str, str]] = None

    @property
    def status(self) -> str:
        if not self.done.triggered:
            return "running"
        return self.done.value

    def initially_ready(self):
        if not self.completed:
            return list(self.executor._initial_ready)
        node_by_id = self.executor._node_by_id
        return [node_by_id[node_id]
                for node_id, degree in self.in_deg.items() if degree == 0]


class Executor:
    """A subgraph bound to one device, runnable many times."""

    def __init__(self, name: str, job: str, subgraph: Graph,
                 device, machine: "Cluster",
                 rendezvous: Rendezvous, rng=None) -> None:
        self.name = name
        self.job = job
        self.subgraph = subgraph
        self.device = device
        self.machine = machine
        self.rendezvous = rendezvous
        self.engine = machine.engine
        self.is_gpu = isinstance(device, GpuDevice)
        # Per-node immutable state, computed once per executor so run
        # construction and successor scheduling never rescan the graph:
        # memoized costs, the expensive/inexpensive classification, the
        # host dispatch cost of GPU nodes, successor adjacency, base
        # in-degrees, and the initial frontier.
        self._costs: Dict[int, object] = {}
        self._expensive: Dict[int, bool] = {}
        self._dispatch_ms: Dict[int, float] = {}
        self._node_by_id: Dict[int, Node] = {}
        self._base_in_deg: Dict[int, int] = {}
        for node in subgraph:
            node_id = node.node_id
            self._node_by_id[node_id] = node
            self._base_in_deg[node_id] = sum(
                1 for _pred in subgraph.predecessors(node))
            if node.kind in (OpKind.SEND, OpKind.RECV):
                self._expensive[node_id] = False
                continue
            if self.is_gpu:
                cost = gpu_kernel_cost(node.op, device.spec)
                self._expensive[node_id] = cost.expensive
                self._dispatch_ms[node_id] = (
                    RECURRENT_DISPATCH_MS if node.op.attrs.get("recurrent")
                    else EXECUTOR_DISPATCH_MS)
            else:
                cost = cpu_op_cost_ms(node.op, machine.cpu.spec)
                self._expensive[node_id] = cost >= EXPENSIVE_THRESHOLD_MS
            self._costs[node_id] = cost
        self._succ: Dict[int, list] = {
            node_id: [(successor, self._expensive[successor.node_id])
                      for successor in subgraph.successors(node)]
            for node_id, node in self._node_by_id.items()}
        # Task display names, formatted once: an f-string per dispatched
        # node is measurable at executor rates.
        self._task_names: Dict[int, str] = {
            node_id: f"{name}/{node.name}"
            for node_id, node in self._node_by_id.items()}
        # Likewise the host-dispatch span label of each GPU node, which
        # every such span then shares instead of holding its own copy.
        self._dispatch_labels: Dict[int, str] = {
            node_id: f"dispatch/{node.name}"
            for node_id, node in self._node_by_id.items()
        } if self.is_gpu else {}
        # Tracker access sites per node, filled only by tracked runs.
        self._cc_where: Dict[int, str] = {}
        self._initial_ready = [
            node for node in subgraph if self._base_in_deg[node.node_id] == 0]
        # Jitter streams are keyed by the node's position in the
        # subgraph, not node_id: ids come from a process-global counter
        # and would make two identical runs draw different noise.
        if rng is not None:
            streams = rng.jitter_streams(
                f"executor:{name}", range(len(self._costs)),
                EXECUTION_JITTER_SIGMA)
            self._node_jitter = {
                node_id: streams[index]
                for index, node_id in enumerate(self._costs)}
        else:
            self._node_jitter = {}

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def node_cost_ms(self, node_id: int) -> float:
        """Jitter-free expected execution cost of one node, in ms.

        GPU nodes include the host-side dispatch overhead; SEND pays
        its host bookkeeping; RECV is dynamic (rendezvous wait + PCIe)
        and contributes zero statically.
        """
        cost = self._costs.get(node_id)
        if cost is None:
            node = self._node_by_id[node_id]
            return 0.005 if node.kind is OpKind.SEND else 0.0
        if self.is_gpu:
            return cost.work_ms + self._dispatch_ms[node_id]
        return float(cost)

    def critical_path_ms(self) -> float:
        """Longest cost-weighted path through the subgraph, in ms.

        The dependency-structure lower bound on one run of this
        executor with unlimited parallelism — the quantity the
        critical-path profiler compares observed iteration time
        against ("It's the Critical Path!", PAPERS.md).
        """
        finish: Dict[int, float] = {}
        in_deg = dict(self._base_in_deg)
        frontier = [n.node_id for n in self._initial_ready]
        longest = 0.0
        while frontier:
            node_id = frontier.pop()
            done_at = finish.get(node_id, 0.0) + self.node_cost_ms(node_id)
            longest = max(longest, done_at)
            for successor, _expensive in self._succ[node_id]:
                sid = successor.node_id
                finish[sid] = max(finish.get(sid, 0.0), done_at)
                in_deg[sid] -= 1
                if in_deg[sid] == 0:
                    frontier.append(sid)
        return longest

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def start(self, pool: ThreadPool, scope: str,
              completed: Optional[Set[int]] = None) -> ExecutorRun:
        """Begin executing the subgraph; returns the run handle.

        ``completed`` carries node ids finished by an earlier, aborted
        run of the same subgraph (possibly on another device version).
        """
        run = ExecutorRun(self, scope, completed)
        ready = run.initially_ready()
        if run.remaining == 0:
            run.done.succeed("completed")
            return run
        pool.submit_many(
            [self._make_task(run, pool, node) for node in ready])
        return run

    def abort(self, run: ExecutorRun, pool: ThreadPool):
        """Process generator: revoke queued work, wait in-flight drain.

        Matches Section 3.3 task suspension: nodes in ready/local queues
        are aborted; kernels already dispatched to the GPU finish.
        """
        if run.done.triggered:
            return
        run.aborted = True
        pool.cancel(lambda task: getattr(task, "run_ref", None) is run)
        if self.is_gpu:
            self.device.cancel_queued(self.job)
        if run.active > 0:
            run._quiesced = self.engine.event()
            yield run._quiesced
        if not run.done.triggered:
            run.done.succeed("aborted")

    # ------------------------------------------------------------------
    # Node execution
    # ------------------------------------------------------------------
    def _make_task(self, run: ExecutorRun, pool: ThreadPool,
                   node: Node) -> Task:
        task = Task(
            name=self._task_names[node.node_id], job=self.job,
            body=partial(self._node_body, run, pool, node))
        task.run_ref = run
        return task

    def _node_body(self, run: ExecutorRun, pool: ThreadPool, node: Node,
                   worker: Worker):
        """Run one node in one generator frame.

        ``run.active`` counts the node from its first phase until it
        finishes, so :meth:`abort` waits for it. A GPU node returns as
        soon as its kernel is in the stream, leaving ``active`` raised:
        :meth:`_on_kernel_done` finishes it, as TF's executor frees its
        thread at launch.
        """
        node_id = node.node_id
        if run.aborted or node_id in run.completed:
            self._maybe_quiesce(run)
            return
        op = node.op
        kind = op.kind
        cpu = self.machine.cpu
        run.active += 1
        try:
            if kind is OpKind.SEND:
                # Deposit the tensor host-side; the receiver pays the
                # copy to wherever it lives *now* (supports migration).
                yield from cpu.execute(0.005, label=op.name,
                                       context=self.job)
                yield self.rendezvous.send(
                    run.scope, op.attrs["channel"], op.attrs["nbytes"])
            elif kind is OpKind.RECV:
                channel = op.attrs["channel"]
                token = yield self.rendezvous.recv(run.scope, channel)
                if self.device.name != cpu.name:
                    # Route-aware HtoD: one PCIe hop on a single machine,
                    # host -> network -> remote PCIe when the executor
                    # version lives on another node.
                    nbytes = token if isinstance(token, int) \
                        else op.attrs.get("nbytes", 1)
                    route = self.machine.route(cpu.name, self.device.name)
                    yield route.transfer(nbytes, n_tensors=1,
                                         label=f"HtoD/{self.job}")
                if run.aborted:
                    # The node will not be marked completed: put the
                    # tensor back so the resumed run's RECV finds it
                    # instead of blocking on an empty channel forever.
                    self.rendezvous.send(run.scope, channel, token)
            elif self.is_gpu:
                # Host-side dispatch: dependency resolution + kernel setup.
                yield from cpu.execute(self._dispatch_ms[node_id],
                                       label=self._dispatch_labels[node_id],
                                       context=self.job)
                if not run.aborted:
                    cost = self._costs[node_id]
                    work_ms = self._jittered(cost.work_ms, node_id)
                    injector = self.machine.faults
                    if injector is not None:
                        fault = injector.kernel_fault(self.job,
                                                      self.device.name)
                        if fault is not None:
                            stall_ms, factor = fault
                            work_ms = work_ms * factor + stall_ms
                    done = self.device.launch(KernelLaunch(
                        name=node.name, context=self.job, work_ms=work_ms,
                        occupancy=cost.occupancy, stream=0))
                    tracker = instrument.TRACKER
                    if tracker is not None:
                        tracker.handoff_send(("kernel", id(done)))
                    # A partial, not a lambda: a closure would turn the
                    # body's locals into cells for every node.
                    done.callbacks.append(
                        partial(self._on_kernel_done, run, pool, node))
                    return
            else:
                cost_ms = self._jittered(self._costs[node_id], node_id)
                if op.flops > 0 and not op.is_pipeline_op:
                    # MKL intra-op parallelism: the cost model assumes
                    # CPU_OP_PARALLELISM threads; a smaller pool
                    # (SwitchFlow's temporary pool) runs the op
                    # proportionally slower — the Section 3.3
                    # isolation-vs-performance tradeoff.
                    threads = max(1, min(CPU_OP_PARALLELISM,
                                         len(worker.pool.workers)))
                    cost_ms *= CPU_OP_PARALLELISM / threads
                yield from cpu.execute(cost_ms, label=node.name,
                                       context=self.job,
                                       data=op.is_pipeline_op)
        except BaseException:
            run.active -= 1
            self._maybe_quiesce(run)
            raise
        run.active -= 1
        self._maybe_quiesce(run)
        if not run.aborted:
            self._complete_node(run, pool, node, worker)

    def _complete_node(self, run: ExecutorRun, pool: ThreadPool,
                       node: Node, worker: Optional[Worker]) -> None:
        tracker = instrument.TRACKER
        if tracker is not None:
            self._track_completion(tracker, run, node)
        run.completed.add(node.node_id)
        run.remaining -= 1
        if run.remaining == 0:
            if not run.done.triggered:
                run.done.succeed("completed")
            return
        self._schedule_successors(run, pool, node, worker)

    def _track_completion(self, tracker, run: ExecutorRun,
                          node: Node) -> None:
        # The run's completion/in-degree state is mutated from worker
        # processes and kernel callbacks alike; the engine's cooperative
        # scheduling is the implicit guard.
        keys = run.cc_keys
        if keys is None:
            keys = run.cc_keys = (f"run:{self.name}:{run.scope}",
                                  f"lock:run:{self.name}:{run.scope}")
        where = self._cc_where.get(node.node_id)
        if where is None:
            where = self._cc_where[node.node_id] = \
                f"{self.name}/complete/{node.name}"
        tracker.access(keys[0], "write", where=where, guard=keys[1])

    def _on_kernel_done(self, run: ExecutorRun, pool: ThreadPool,
                        node: Node, event: Event) -> None:
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.handoff_recv(("kernel", id(event)))
        run.active -= 1
        self._maybe_quiesce(run)
        if not event._ok:
            event.defused()   # cancelled by preemption
            return
        if run.aborted:
            return
        self._complete_node(run, pool, node, worker=None)

    def _schedule_successors(self, run: ExecutorRun, pool: ThreadPool,
                             node: Node, worker: Optional[Worker]) -> None:
        """Dispatch every successor made ready by one node's completion.

        In-degree decrements accumulate first, then the newly ready
        frontier goes out as (at most) two batches — inexpensive
        successors stacked onto the parent's worker, expensive ones
        through the pool — so the per-push bookkeeping is paid once per
        completion wave rather than once per node.
        """
        in_deg = run.in_deg
        completed = run.completed
        ready_local = None
        ready_pool = None
        for successor, expensive in self._succ[node.node_id]:
            sid = successor.node_id
            if sid in completed:
                continue
            remaining = in_deg[sid] - 1
            in_deg[sid] = remaining
            if remaining > 0:
                continue
            task = self._make_task(run, pool, successor)
            if worker is not None and not expensive:
                # Inexpensive successors run on the parent's worker
                # (Figure 1's local-queue fast path).
                if ready_local is None:
                    ready_local = [task]
                else:
                    ready_local.append(task)
            elif ready_pool is None:
                ready_pool = [task]
            else:
                ready_pool.append(task)
        if ready_local is not None:
            worker.push_front(ready_local)
        if ready_pool is not None:
            pool.submit(ready_pool)

    def _maybe_quiesce(self, run: ExecutorRun) -> None:
        if (run.aborted and run.active == 0
                and run._quiesced is not None
                and not run._quiesced.triggered):
            run._quiesced.succeed()

    def _jittered(self, value: float, node_id: int) -> float:
        if value <= 0:
            return value
        stream = self._node_jitter.get(node_id)
        if stream is None:
            return value
        return value * stream.next()
