"""Runtime reconfiguration schedulers on the simulated engine.

Each scheduler issues controller actions for a reconfiguration request at
time ``t`` and defines how the reconfiguration delay is measured. Fries,
EBR, savepoint and NaiveFCM share one runtime, :func:`start_plan`: one
epoch marker per component, sent by FCM to every worker of the component's
head operators and from there along the worker channels of the component's
logical edges. They share one delay measure, :meth:`PlanScheduler.result`,
and differ only in the plan:

* :class:`FriesScheduler` — Algorithms 2/3/4 planned on the *logical* DAG
  with §7.2's broadcast adjustment: markers only inside MCS components.
* :class:`EpochScheduler` — the EBR baseline (Chi): ``plan_epoch``, one
  component spanning the whole dataflow with every source a head.
* :class:`SavepointScheduler` — Flink stop-and-restart: the EBR plan with
  the sinks added to the reconfiguration set, plus a fixed stop/restart
  overhead.
* :class:`NaiveFCMScheduler` — ``plan_naive``: every reconfiguration
  operator a singleton component and its own head, so FCMs go straight to
  its workers and no marker travels; low delay but not
  conflict-serializable (§4.1).
* :class:`MultiVersionScheduler` — the FCM multi-version scheduler (§4.1):
  consistent, but old-version in-flight tuples still processed under the
  old configuration, and double state.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from repro.core.dag import DAG
from repro.core.fries import ReconfigPlan, plan_epoch, plan_general, plan_naive
from repro.core.parallel import broadcast_adjusted
from repro.core.transactions import UPDATE_TXN

from .messages import EpochMarker
from .simulator import Simulator
from .workload import WorkflowSpec

STOP_RESTART_COST = 10.0  # seconds the savepoint scheduler adds for stop + restart


def effective_logical_dag(spec: WorkflowSpec) -> DAG:
    """The logical DAG Fries plans on: ``spec.dag`` with each operator's
    planner flags derived from its :class:`OpSpec`, then §7.2's broadcast
    adjustment (:func:`repro.core.parallel.broadcast_adjusted`).

    A ``join`` with ``fanout > 1`` is one-to-many (Def 5.2). A
    ``replicate`` is one-to-many and edge-wise one-to-one (§6.3). A
    ``selfjoin`` is unique per transaction (§6.3) where at most ``arity``
    copies of one transaction can reach it (:func:`max_copies`): it emits
    once per ``arity`` copies, so more copies give more outputs."""
    dag, ops = spec.dag, spec.ops
    copies = max_copies(spec)
    flagged = DAG()
    for v in dag.vertices:
        op = ops[v]
        flagged.add_operator(replace(
            dag.op(v),
            one_to_many=op.kind == "replicate" or (op.kind == "join" and op.fanout > 1),
            edgewise_one_to_one=op.kind == "replicate",
            unique_per_txn=op.kind == "selfjoin" and copies[v] <= op.arity,
        ))
    for e in dag.edges:
        flagged.add_edge(*e)
    return broadcast_adjusted(flagged, spec.strategies())


def max_copies(spec: WorkflowSpec) -> dict[str, int]:
    """An upper bound on the copies of one transaction that reach each
    operator, over all its workers. Counted per source in topological
    order: a ``join`` multiplies the count by ``fanout``, a broadcast edge
    by its destination's parallelism, a ``selfjoin`` passes on
    ``max(1, n // arity)``, and every other kind passes ``n`` on each
    out-edge."""
    dag, ops, edges = spec.dag, spec.ops, spec.edges
    order = dag.topological_order()
    most = dict.fromkeys(order, 0)
    for s in order:
        if ops[s].kind != "source":
            continue
        n = dict.fromkeys(order, 0)
        n[s] = 1
        for v in order:
            if not n[v]:
                continue
            op = ops[v]
            if op.kind == "join":
                out = n[v] * op.fanout
            elif op.kind == "selfjoin":
                out = max(1, n[v] // op.arity)
            else:
                out = n[v]
            for w in dag.out_edges(v):
                fan = ops[w].parallelism if edges[(v, w)].strategy == "broadcast" else 1
                n[w] += out * fan
        for v in order:
            most[v] = max(most[v], n[v])
    return most


@dataclass
class ReconfigResult:
    """Delay measurement for one reconfiguration request."""

    apply_times: dict[str, float] = field(default_factory=dict)
    delay: float = math.inf
    completed: bool = False


def start_plan(sim: Simulator, plan: ReconfigPlan, t: float) -> None:
    """Run ``plan`` from time ``t``: one marker per component, delivered as
    an FCM to every worker of the component's head operators (§5.3, §7.2).
    Each head applies the reconfiguration if targeted and sends the marker
    on all channels of the component's edges (§8.1)."""
    for comp, heads in zip(plan.component_list, plan.heads):
        marker = EpochMarker(comp.edges, plan.reconfig_ops & comp.vertices)
        for op in heads:
            for w in sim.by_op[op]:
                sim.send_fcm(w.name, marker, at=t + sim.spec.fcm_latency)


class PlanScheduler:
    """A scheduler whose ``request`` sets :attr:`plan` and runs it with
    :func:`start_plan`. The delay is measured to the last apply among the
    workers of the plan's reconfiguration operators. Every subclass defines
    its own ``request``."""

    plan: ReconfigPlan | None = None

    def result(self, sim: Simulator, t: float) -> ReconfigResult:
        workers = sim.reconfig_workers(self.plan.reconfig_ops)
        times = {w: sim.apply_times[w] for w in workers if w in sim.apply_times}
        done = len(times) == len(workers)
        return ReconfigResult(
            apply_times=times,
            delay=(max(times.values()) - t) if done else math.inf,
            completed=done,
        )


class FriesScheduler(PlanScheduler):
    """Fries runtime (§5.3/§6.2/§6.3/§7.2).

    The plan (MCS, components, heads) is computed on the *logical* DAG with
    the broadcast adjustment — the §6.3 pruning rules are defined on
    logical edges (a hash edge's p² channels implement one logical edge) —
    and run by :func:`start_plan`, exactly as the paper's Flink
    implementation (§8.1).
    """

    def __init__(self, *, prune: bool = True) -> None:
        self.prune = prune

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        self.plan = plan_general(effective_logical_dag(sim.spec), reconfig_ops, prune=self.prune)
        start_plan(sim, self.plan, t)


class EpochScheduler(PlanScheduler):
    """EBR baseline: a new epoch at every source, global alignment, the
    reconfiguration piggybacked on the markers."""

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        self.plan = plan_epoch(sim.spec.dag, reconfig_ops)
        start_plan(sim, self.plan, t)


class SavepointScheduler(EpochScheduler):
    """Flink savepoint + stop-and-restart: EBR delay at the *sinks* (the
    whole old epoch must drain) plus :data:`STOP_RESTART_COST`."""

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        # The savepoint must cover every operator, so the marker also
        # targets the sinks: their apply time marks epoch completion.
        self.plan = plan_epoch(sim.spec.dag, set(reconfig_ops) | set(sim.spec.dag.sinks()))
        start_plan(sim, self.plan, t)

    def result(self, sim: Simulator, t: float) -> ReconfigResult:
        r = super().result(sim, t)
        if r.completed:
            r.delay += STOP_RESTART_COST
        return r


class NaiveFCMScheduler(PlanScheduler):
    """§4.1 naive scheduler: FCM directly to each reconfiguration worker."""

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        self.plan = plan_naive(sim.spec.dag, reconfig_ops)
        start_plan(sim, self.plan, t)


class MultiVersionScheduler:
    """§4.1 FCM multi-version scheduler.

    All workers get a "register" FCM (they will honour per-tuple version
    tags); after an ack round-trip the sources bump their version and tag
    subsequent tuples v2. The reconfiguration is complete when no
    reconfiguration worker will ever process a v1 tuple again — measured
    post-hoc as the last v1 data operation on a reconfiguration worker.
    That is certain once every reconfiguration worker has processed a v2
    tuple, or once the run has drained (:attr:`Simulator.drained`): then
    no tuple reaches any worker any more, so a worker that gets no data
    after the request does not keep it incomplete. The measurement reads
    ``op_log``'s columns from the request time on, so the simulator must
    record.
    """

    def __init__(self) -> None:
        self._workers: frozenset[str] = frozenset()

    def request(self, sim: Simulator, reconfig_ops: set[str], t: float) -> None:
        if sim.record == "none":
            raise ValueError("MultiVersionScheduler measures from op_log: use record='all'")
        workers = sim.reconfig_workers(reconfig_ops)
        self._workers = workers
        for w in sim.workers:
            sim.send_fcm(w, "register", at=t + sim.spec.fcm_latency)
        # Version bump after every registration acked (one more RTT).
        t_bump = t + 3 * sim.spec.fcm_latency
        for op in sim.spec.dag.sources():
            for w in sim.by_op[op]:
                sim.send_fcm(w.name, "bump_version", at=t_bump)

    def result(self, sim: Simulator, t: float) -> ReconfigResult:
        log = sim.op_log
        last_v1 = {sim.workers[w].id: t for w in self._workers}
        seen_v2: set[int] = set()
        # op_log is in time order: read its rows from t on, the latest last.
        lo = bisect_left(log.t, t)
        for wid, txn, version, when in zip(
            log.worker[lo:], log.txn[lo:], log.version[lo:], log.t[lo:]
        ):
            if wid in last_v1 and txn != UPDATE_TXN:
                if version <= 1:
                    last_v1[wid] = when
                else:
                    seen_v2.add(wid)
        done = len(seen_v2) == len(last_v1) or sim.drained
        delay = (max(last_v1.values()) - t) if done else math.inf
        return ReconfigResult(
            apply_times={log.names[i]: when for i, when in last_v1.items()} if done else {},
            delay=delay,
            completed=done,
        )


def run_reconfig_experiment(
    sim: Simulator,
    scheduler,
    reconfig_ops: set[str],
    *,
    t_request: float,
    t_end: float,
) -> ReconfigResult:
    """Warm the engine up to ``t_request``, then :func:`request_and_run`."""
    sim.start()
    sim.run(until=t_request)
    return request_and_run(sim, scheduler, reconfig_ops, t_request=t_request, t_end=t_end)


def request_and_run(sim: Simulator, scheduler, reconfig_ops: set[str], *,
                    t_request: float, t_end: float) -> ReconfigResult:
    """Issue the reconfiguration at ``t_request`` on an engine run up to
    it, run on, and return the measured delay.

    A simulator that records nothing stops right after the apply that
    completes the reconfiguration, so nothing past the answer is
    simulated. A recording one runs to ``t_end`` (or drains): a schedule
    cut short at completion could hide a later violation."""
    scheduler.request(sim, reconfig_ops, t_request)
    done = lambda: scheduler.result(sim, t_request).completed  # noqa: E731
    sim.run(until=t_end, halt_on_apply=done if sim.record == "none" else None)
    return scheduler.result(sim, t_request)
