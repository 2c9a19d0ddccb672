"""Engine substrate tests: channels, workers, routing and backpressure,
and the event loop's order, against one plain reference engine that has
none of the loop's optimisations."""
import functools
import heapq
import importlib.util
import math
import pathlib
import random
import sys
from array import array
from collections import deque

import pytest

from repro import experiments
from repro.core import check
from repro.core.dag import DAG
from repro.core.transactions import UPDATE_TXN, Schedule, UpdateOp
from repro.engine import (
    Channel,
    DataMsg,
    EpochScheduler,
    FriesScheduler,
    KeyDist,
    MultiVersionScheduler,
    OpSpec,
    Simulator,
    Worker,
    WorkflowSpec,
)
from repro.engine import simulator as simulator_module
from repro.engine.workload import EdgeSpec
from repro.workflows import defs

from .test_engine_golden import chain_run, finish_chain, warmed_chain
from .test_engine_schedulers import _random_chain_spec, branching_spec, fig8_spec, random_branching
from .test_experiments import HALT_CASES


def chain_spec(**src_kw) -> WorkflowSpec:
    dag = DAG.from_edges([("src", "A"), ("A", "B"), ("B", "sink")])
    ops = {
        "src": OpSpec("src", kind="source", rate=1000, n_tuples=50,
                      key_dist=KeyDist.uniform(10), **src_kw),
        "A": OpSpec("A", kind="map", cost={1: 0.0001}),
        "B": OpSpec("B", kind="map", cost={1: 0.0001}),
        "sink": OpSpec("sink", kind="sink"),
    }
    return WorkflowSpec(dag=dag, ops=ops)


class TestBasicFlow:
    def test_all_tuples_reach_sink(self):
        sim = Simulator(chain_spec())
        sim.start()
        sim.run()
        assert len(sim.sink_log) == 50

    def test_deterministic(self):
        def run():
            sim = Simulator(chain_spec())
            sim.start()
            sim.run()
            return list(sim.sink_log)

        assert run() == run()

    def test_latency_positive_and_ordered(self):
        sim = Simulator(chain_spec())
        sim.start()
        sim.run()
        for arrival, created, _ in sim.sink_log:
            assert arrival > created

    def test_source_rate_respected(self):
        sim = Simulator(chain_spec())
        sim.start()
        sim.run()
        last_arrival = max(t for t, _, _ in sim.sink_log)
        # 50 tuples at 1000/s -> last emitted ~0.05s; plus channel latency.
        assert 0.04 < last_arrival < 0.2

    def test_txn_ids_unique(self):
        sim = Simulator(chain_spec())
        sim.start()
        sim.run()
        txns = [t for _, _, t in sim.sink_log]
        assert len(set(txns)) == 50


class TestOperatorKinds:
    def _run(self, mid_spec: OpSpec, out_edges=None, n=100):
        edges = out_edges or [("src", "M"), ("M", "sink")]
        dag = DAG.from_edges(edges)
        ops = {"src": OpSpec("src", kind="source", rate=10000, n_tuples=n,
                             key_dist=KeyDist.uniform(10)),
               "M": mid_spec}
        for v in dag.vertices:
            if v.startswith("sink"):
                ops[v] = OpSpec(v, kind="sink")
        spec = WorkflowSpec(dag=dag, ops=ops)
        sim = Simulator(spec)
        sim.start()
        sim.run()
        return sim

    def test_filter_selectivity(self):
        sim = self._run(OpSpec("M", kind="filter", selectivity=0.5), n=400)
        assert 100 < len(sim.sink_log) < 300

    def test_filter_selectivity_one(self):
        sim = self._run(OpSpec("M", kind="filter", selectivity=1.0), n=100)
        assert len(sim.sink_log) == 100

    def test_join_fanout(self):
        sim = self._run(OpSpec("M", kind="join", fanout=3), n=100)
        assert len(sim.sink_log) == 300

    def test_join_rekey(self):
        sim = self._run(
            OpSpec("M", kind="join", fanout=1, out_key=KeyDist.uniform(5)), n=50
        )
        assert len(sim.sink_log) == 50

    def test_replicate_emits_per_edge(self):
        sim = self._run(
            OpSpec("M", kind="replicate"),
            out_edges=[("src", "M"), ("M", "sink1"), ("M", "sink2")],
            n=80,
        )
        assert len(sim.sink_log) == 160

    def test_split_routes_to_one_edge(self):
        sim = self._run(
            OpSpec("M", kind="split"),
            out_edges=[("src", "M"), ("M", "sink1"), ("M", "sink2")],
            n=80,
        )
        assert len(sim.sink_log) == 80

    def test_union_passthrough(self):
        sim = self._run(OpSpec("M", kind="union"), n=60)
        assert len(sim.sink_log) == 60


class TestSelfJoin:
    def test_selfjoin_combines_replicas(self):
        dag = DAG.from_edges(
            [("src", "RE"), ("RE", "A"), ("RE", "B"), ("A", "SJ"), ("B", "SJ"),
             ("SJ", "sink")]
        )
        ops = {
            "src": OpSpec("src", kind="source", rate=5000, n_tuples=100,
                          key_dist=KeyDist.uniform(10)),
            "RE": OpSpec("RE", kind="replicate"),
            "A": OpSpec("A", kind="map"),
            "B": OpSpec("B", kind="map"),
            "SJ": OpSpec("SJ", kind="selfjoin", arity=2),
            "sink": OpSpec("sink", kind="sink"),
        }
        sim = Simulator(WorkflowSpec(dag=dag, ops=ops))
        sim.start()
        sim.run()
        # Exactly one combined tuple per transaction.
        assert len(sim.sink_log) == 100
        assert len({t for _, _, t in sim.sink_log}) == 100

    def test_selfjoin_parallel_workers_keyed_routing(self):
        dag = DAG.from_edges(
            [("src", "RE"), ("RE", "A"), ("RE", "B"), ("A", "SJ"), ("B", "SJ"),
             ("SJ", "sink")]
        )
        ops = {
            "src": OpSpec("src", kind="source", rate=5000, n_tuples=100,
                          key_dist=KeyDist.uniform(50)),
            "RE": OpSpec("RE", kind="replicate", parallelism=3),
            "A": OpSpec("A", kind="map", parallelism=3),
            "B": OpSpec("B", kind="map", parallelism=3),
            "SJ": OpSpec("SJ", kind="selfjoin", arity=2, parallelism=3),
            "sink": OpSpec("sink", kind="sink"),
        }
        sim = Simulator(WorkflowSpec(dag=dag, ops=ops))
        sim.start()
        sim.run()
        # Hash routing sends both replicas of a key to the same SJ worker.
        assert len(sim.sink_log) == 100


class TestBackpressure:
    def make(self, capacity: int):
        dag = DAG.from_edges([("src", "slow"), ("slow", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=1000, n_tuples=200,
                          key_dist=KeyDist.uniform(4)),
            "slow": OpSpec("slow", kind="map", cost={1: 0.01}),  # 100/s max
            "sink": OpSpec("sink", kind="sink"),
        }
        edges = {("src", "slow"): EdgeSpec("hash", capacity=capacity),
                 ("slow", "sink"): EdgeSpec("hash", capacity=capacity)}
        return WorkflowSpec(dag=dag, ops=ops, edges=edges)

    def test_capacity_respected(self):
        sim = Simulator(self.make(capacity=10))
        sim.start()
        sim.run(until=0.1)
        for ch in sim.channels:
            assert ch.data_load() <= 10

    def test_backpressure_slows_source_not_loses_tuples(self):
        sim = Simulator(self.make(capacity=5))
        sim.start()
        sim.run()
        assert len(sim.sink_log) == 200
        # Completion takes ~200/100 = 2s, far beyond the source's 0.2s.
        assert max(t for t, _, _ in sim.sink_log) > 1.5

    def test_large_capacity_buffers_inflight(self):
        sim = Simulator(self.make(capacity=10_000))
        sim.start()
        sim.run(until=0.2)
        total = sum(ch.data_load() for ch in sim.channels)
        assert total > 100  # backlog accumulated in the channel


class TestBatchCapacity:
    """A join's fanout copies can hash onto one channel: the batch fits
    only if all of them do."""

    def make(self, fanout: int, capacity: int = 4) -> WorkflowSpec:
        dag = DAG.from_edges([("src", "J"), ("J", "slow"), ("slow", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=1000, n_tuples=100,
                          key_dist=KeyDist.uniform(10)),
            "J": OpSpec("J", kind="join", fanout=fanout),
            "slow": OpSpec("slow", kind="map", cost={1: 0.01}),
            "sink": OpSpec("sink", kind="sink"),
        }
        edges = {("J", "slow"): EdgeSpec("hash", capacity=capacity)}
        return WorkflowSpec(dag=dag, ops=ops, edges=edges)

    def test_fanout_batch_never_exceeds_capacity(self, monkeypatch):
        loads: list[int] = []
        send = Channel.send

        def recorded(ch, msg):
            send(ch, msg)
            if ch.src.op.name == "J":
                loads.append(ch.data_load())

        monkeypatch.setattr(Channel, "send", recorded)
        sim = Simulator(self.make(fanout=3))
        sim.start()
        sim.run()
        assert len(sim.sink_log) == 300
        assert max(loads) == 4  # the channel fills up, and no further

    def test_fanout_above_capacity_rejected(self):
        with pytest.raises(ValueError, match="fanout 5"):
            Simulator(self.make(fanout=5))
        Simulator(self.make(fanout=4))


class TestParallelRouting:
    def test_hash_partitioning_groups_keys(self):
        dag = DAG.from_edges([("src", "A"), ("A", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=10000, n_tuples=300,
                          key_dist=KeyDist.uniform(16)),
            "A": OpSpec("A", kind="map", parallelism=4),
            "sink": OpSpec("sink", kind="sink"),
        }
        sim = Simulator(WorkflowSpec(dag=dag, ops=ops))
        sim.start()
        sim.run()
        assert len(sim.sink_log) == 300
        processed = {w.name: w.processed for op in ["A"] for w in sim.by_op[op]}
        assert sum(processed.values()) == 300
        assert all(v > 0 for v in processed.values())

    def test_forward_requires_equal_parallelism(self):
        """The simulator's own channel wiring rejects a forward edge with
        unequal parallelism, an unknown partitioning and parallelism 0."""
        dag = DAG.from_edges([("src", "A"), ("A", "sink")])
        for strategy, p_a, match in (
            ("forward", 3, "forward"),
            ("bogus", 2, "unknown partitioning"),
            ("hash", 0, "parallelism"),
        ):
            ops = {
                "src": OpSpec("src", kind="source", parallelism=2, rate=100, n_tuples=4),
                "A": OpSpec("A", kind="map", parallelism=p_a),
                "sink": OpSpec("sink", kind="sink"),
            }
            edges = {("src", "A"): EdgeSpec(strategy)}
            with pytest.raises(ValueError, match=match):
                Simulator(WorkflowSpec(dag=dag, ops=ops, edges=edges))

    def test_broadcast_reaches_all_workers(self):
        dag = DAG.from_edges([("src", "A"), ("A", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=10000, n_tuples=50,
                          key_dist=KeyDist.uniform(8)),
            "A": OpSpec("A", kind="map", parallelism=4),
            "sink": OpSpec("sink", kind="sink"),
        }
        edges = {("src", "A"): EdgeSpec("broadcast"), ("A", "sink"): EdgeSpec("hash")}
        sim = Simulator(WorkflowSpec(dag=dag, ops=ops, edges=edges))
        sim.start()
        sim.run()
        assert len(sim.sink_log) == 200  # each tuple processed by all 4 workers


class TestReadyHeap:
    def test_next_channel_is_brute_force_minimum(self, monkeypatch):
        """Every dispatch picks, from the worker's ready heap, exactly the
        input a scan would: the non-blocked channel with the smallest
        arrived head key. Random specs run Fries, EBR and checkpoint
        markers, so channels block and unblock with data queued."""
        next_channel = Worker._next_channel
        seen = {"dispatches": 0, "queued_behind_block": 0}

        def checked(worker):
            now = worker.sim.now
            ready = [c for c in worker.inputs
                     if not c.blocked and c.msgs and c.ts[c.head] <= now]
            expected = min(ready, key=lambda c: (c.ts[c.head], c.seqs[c.head]), default=None)
            seen["dispatches"] += 1
            seen["queued_behind_block"] += any(c.blocked and c.msgs for c in worker.inputs)
            chosen = next_channel(worker)
            assert chosen is expected, (worker.name, chosen, expected)
            return chosen

        monkeypatch.setattr(Worker, "_next_channel", checked)
        for seed in range(12):
            for marker in ("fries", "ebr", "checkpoint"):
                chain_run(marker, seed)
        assert seen["dispatches"] > 10_000
        assert seen["queued_behind_block"] > 0


class DeliveryChannel(Channel):
    """Reference delivery path: every message, data or marker, is queued by
    a delivery event at its arrival, which notifies the destination; a
    data message in flight counts against capacity; every data pop sends
    the sender a freed notice."""

    __slots__ = ("in_transit",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.in_transit = 0

    def data_load(self):
        return self.in_transit + len(self.msgs) - self.head

    def send(self, msg):
        if type(msg) is DataMsg:
            self.in_transit += 1
        self.sim.schedule(self.sim.now + self.latency, self._deliver, msg)

    def _deliver(self, msg):
        sim = self.sim
        if type(msg) is DataMsg:
            self.in_transit -= 1
        sim.delivered += 1  # delivery order: the ready heap's key
        if not self.msgs:
            self.msgs, self.ts, self.seqs = [], array("d"), array("q")
            if not self.blocked:
                heapq.heappush(self.dst.ready, (sim.now, sim.delivered, self.index))
        self.msgs.append(msg)
        self.ts.append(sim.now)
        self.seqs.append(sim.delivered)
        self.dst.notify()

    def pop(self):
        msg = self.msgs[self.head]
        self.head += 1
        if self.head == len(self.msgs):
            self.msgs = self.ts = self.seqs = ()
            self.head = 0
            heapq.heappop(self.dst.ready)
        else:
            heapq.heapreplace(self.dst.ready, (self.ts[self.head], self.seqs[self.head], self.index))
        if type(msg) is DataMsg:
            self.sim.schedule(self.sim.now, self.src.on_channel_freed)
        return msg


class SchedulingWorker(Worker):
    """Reference worker: a ``notify`` that ends an event always schedules
    the dispatch, even when it would run next."""

    __slots__ = ()

    def _resume(self):
        self.notify()


class ReferenceSimulator(Simulator):
    """The simulator with the event loop's three optimisations off: every
    event goes through the heap and runs in ``(t, scheduling order)``, with
    no same-time lane; every message has a delivery event
    (:class:`DeliveryChannel`), so the workers never arm a wake; and every
    dispatch is a scheduled event (:class:`SchedulingWorker`)."""

    def __init__(self, spec, **kwargs):
        self.delivered = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator_module, "Channel", DeliveryChannel)
            mp.setattr(simulator_module, "Worker", SchedulingWorker)
            super().__init__(spec, **kwargs)

    def schedule(self, t, fn, *args):
        self._evseq += 1
        heapq.heappush(self._heap, (t, self._evseq, fn, args))

    def run(self, until=None, *, halt_on_apply=None):
        until = math.inf if until is None else until
        heap = self._heap
        self._halt_on_apply, self._halted = halt_on_apply, False
        while heap and not self._halted:
            t, _, fn, args = heap[0]
            if t > until:
                self.now = until
                return
            heapq.heappop(heap)
            self.now = t
            fn(*args)
            self._events += 1


def _observed(sim: Simulator):
    return (
        sim.apply_times,
        list(sim.op_log),
        sim.snapshots,
        list(sim.sink_log),
        {name: w.processed for name, w in sim.workers.items()},
        sim.now,
    )


def _assert_matches(sim: Simulator, ref: ReferenceSimulator, case) -> None:
    """Every observable log of ``sim`` equals the reference's, in strictly
    fewer loop events. ``_evseq`` is not compared: the reference takes a
    key for every delivery. The golden fingerprints check it."""
    assert _observed(sim) == _observed(ref), case
    assert not ref._lane and sim.events < ref.events, case


def _halt_case_run(cls, wf: str, make, halted: bool, monkeypatch) -> tuple[Simulator, float]:
    """W2/W4 at p=2: halted through ``run_delay``, or a recorded plain run
    to ``t_max``."""
    build, ops, warmup, t_max = HALT_CASES[wf]
    if halted:
        sims = []

        class Recorded(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr(experiments, "Simulator", Recorded)
        delay = experiments.run_delay(build, make(), ops, warmup=warmup, t_max=t_max)
        return sims[-1], delay
    scheduler = make()
    sim = cls(build())
    sim.start()
    sim.run(until=warmup)
    scheduler.request(sim, ops, warmup)
    sim.run(until=t_max)
    return sim, scheduler.result(sim, warmup).delay


def _warmed(cls, spec: WorkflowSpec, ops: set[str], t: float) -> tuple[Simulator, set[str], float]:
    sim = cls(spec)
    sim.start()
    sim.run(until=t)
    return sim, ops, t


def _warmed_stress(seed: int, cls=Simulator) -> tuple[Simulator, set[str], float]:
    """A random pipeline plus a second source feeding its last middle
    operator, whose inputs thus may differ in latency. About half the
    middle operators cost nothing, so a sender finishes in the same instant
    as the pop that frees its room; channels have latency 0.001 or 0.003
    and capacity 3 or 100. Run up to a random request time."""
    rng = random.Random(seed)
    chain, names = _random_chain_spec(rng)
    ops = dict(chain.ops, src2=OpSpec("src2", kind="source", rate=rng.choice([200, 500]),
                                      n_tuples=150, key_dist=KeyDist.uniform(30)))
    dag = DAG.from_edges(chain.dag.edges + [("src2", names[-1])])
    spec = WorkflowSpec(dag=dag, ops=ops, edges=dict(chain.edges), seed=chain.seed)
    for name in names:
        if rng.random() < 0.5:
            ops[name].cost = {1: 0.0}
    for edge in spec.edges.values():
        edge.latency = rng.choice([0.001, 0.003])
        edge.capacity = rng.choice([3, 100])
    reconfig_ops = set(rng.sample(names, rng.randint(1, 2)))
    return _warmed(cls, spec, reconfig_ops, rng.uniform(0.05, 0.3))


def _warmed_branching(seed: int, cls=Simulator) -> tuple[Simulator, set[str], float]:
    """A random branching DAG (replicate and self-join, split and union, a
    second source, broadcast edges) run up to its request time."""
    case = random_branching(random.Random(seed))
    return _warmed(cls, branching_spec(case), set(case.targets), case.t)


# Spec families: how to build and warm up seed i, and how many seeds.
FAMILIES = {"chain": (warmed_chain, 12), "branching": (_warmed_branching, 12),
            "stress": (_warmed_stress, 40)}
ACTIONS = ("fries", "ebr", "checkpoint", "naive")


def _family_run(family: str, seed: int, action: str, cls=Simulator) -> Simulator:
    """Seed ``seed`` of ``family``, warmed by ``cls``, with ``action`` at its
    request time, run to the end."""
    sim, ops, t = FAMILIES[family][0](seed, cls)
    return finish_chain(sim, action, ops, t)


@functools.cache
def _family_matches_reference(family: str, seed: int, action: str) -> None:
    """Seed ``seed`` of ``family`` under ``action`` matches the reference.
    Cached, so a case that several tests name runs once; a failure is not
    cached and fails every test that names it."""
    ref = _family_run(family, seed, action, ReferenceSimulator)
    sim = _family_run(family, seed, action)
    _assert_matches(sim, ref, (family, seed, action))


def _check_family(family: str, action: str) -> None:
    for seed in range(FAMILIES[family][1]):
        _family_matches_reference(family, seed, action)


@functools.cache
def _check_workflow(case: str) -> None:
    """A W2/W4 halt case under Fries and EBR matches the reference, with
    equal finite delays. Cached like :func:`_family_matches_reference`."""
    wf, end = case.split("-")
    for make in (FriesScheduler, EpochScheduler):
        with pytest.MonkeyPatch.context() as mp:
            ref, ref_delay = _halt_case_run(ReferenceSimulator, wf, make, end == "run_delay", mp)
            sim, delay = _halt_case_run(Simulator, wf, make, end == "run_delay", mp)
        assert delay == ref_delay and math.isfinite(delay)
        _assert_matches(sim, ref, make)


# The reference has all three optimisations off, so the differential tests
# of each check the same runs; a case named by several of them runs once.
WORKFLOW_CASES = [f"{wf}-{end}" for end in ("run_delay", "t_max") for wf in sorted(HALT_CASES)]


class TestReferenceEngine:
    """Random branching DAGs (replicate and self-join, split and union, a
    second source, broadcast edges) under each action match
    :class:`ReferenceSimulator`."""

    @pytest.mark.parametrize("action", ACTIONS)
    def test_branching_specs_match_reference(self, action):
        _check_family("branching", action)


class TestSameTimeLane:
    """Zero-delay events through the lane run in the same order as through
    the reference's heap-only loop; and the lane's accounting and guards."""

    @pytest.mark.parametrize("action", ACTIONS)
    def test_random_specs_match_heap_only_loop(self, action):
        _check_family("chain", action)

    @pytest.mark.parametrize("case", WORKFLOW_CASES)
    def test_workflows_match_heap_only_loop(self, case):
        _check_workflow(case)

    def test_event_accounting(self, monkeypatch):
        """``events`` is the number of callbacks the loop executed, on a
        drained run and on a halted one, over every call of ``run``."""
        executed = [0]

        def counted(fn):
            def run(*a):
                executed[0] += 1
                fn(*a)

            return run

        class Counted(Simulator):
            def schedule(self, t, fn, *args):
                super().schedule(t, counted(fn), *args)

            def schedule_keyed(self, t, seq, fn, *args):
                super().schedule_keyed(t, seq, counted(fn), *args)

        sim = Counted(chain_spec())
        sim.start()
        sim.run(until=0.02)
        sim.run()
        assert not sim._heap and not sim._lane
        assert sim.events == executed[0] > 0

        executed[0] = 0
        sim, _ = _halt_case_run(Counted, "W2", FriesScheduler, True, monkeypatch)
        assert sim._heap and sim._lane  # halted with events of both kinds queued
        assert sim.events == executed[0] > 0

    def test_max_events_counts_lane_events(self):
        sim = Simulator(chain_spec())
        calls = [0]

        def again():
            calls[0] += 1
            sim.schedule(sim.now, again)

        sim.schedule(0.0, again)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=1000)
        assert calls[0] == 1000 and sim.now == 0.0

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator(chain_spec())
        sim.start()
        sim.run(until=0.02)
        with pytest.raises(ValueError, match="before now"):
            sim.schedule(sim.now - 1e-9, lambda: None)
        with pytest.raises(ValueError, match="before now"):
            sim.run(until=0.01)
        sim.run()
        assert sim.now > 0.02


class TestArrivalsWithoutEvents:
    """Data messages have no delivery event, only an idle worker gets a
    wake, and only a sender that is or may soon be waiting gets a freed
    notice; every run matches the reference's delivery events. Arrival
    keys are exact only if nothing sent at ``now`` arrives at ``now``."""

    @pytest.mark.parametrize("action", ACTIONS)
    def test_random_specs_match_delivery_path(self, action):
        _check_family("chain", action)

    @pytest.mark.parametrize("action", ["fries", "ebr"])
    def test_stress_specs_match_delivery_path(self, action):
        _check_family("stress", action)

    @pytest.mark.parametrize("case", WORKFLOW_CASES)
    def test_workflows_match_delivery_path(self, case):
        _check_workflow(case)

    @pytest.mark.parametrize("latency", [0.0, -0.001, math.nan])
    def test_nonpositive_latency_rejected(self, latency):
        """A message must arrive after the instant it is sent."""
        spec = chain_spec()
        spec.edges[("A", "B")] = EdgeSpec("hash", latency=latency)
        with pytest.raises(ValueError, match="latency"):
            Simulator(spec)


class TestInPlaceDispatch:
    """A dispatch certain to run next runs in place; every run matches the
    reference, which schedules every dispatch. The goldens check
    ``_evseq``."""

    @pytest.mark.parametrize("action", ACTIONS)
    def test_random_specs_match_scheduled_dispatch(self, action):
        _check_family("chain", action)

    @pytest.mark.parametrize("action", ["fries", "ebr"])
    def test_stress_specs_match_scheduled_dispatch(self, action):
        _check_family("stress", action)

    @pytest.mark.parametrize("case", WORKFLOW_CASES)
    def test_workflows_match_scheduled_dispatch(self, case):
        _check_workflow(case)

    def test_zero_cost_backlog(self):
        """A zero-cost sink drains a 10 000-tuple backlog, one finish event
        per tuple with the next dispatch in place, without recursing."""
        n = 10_000
        dag = DAG.from_edges([("src", "J"), ("J", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=100, n_tuples=1),
            "J": OpSpec("J", kind="join", cost={1: 0.001}, fanout=n),
            "sink": OpSpec("sink", kind="sink"),
        }
        edges = {("J", "sink"): EdgeSpec("hash", capacity=n)}
        runs = []
        for cls in (ReferenceSimulator, Simulator):
            sim = cls(WorkflowSpec(dag=dag, ops=ops, edges=edges))
            sim.start()
            sim.run()
            runs.append(sim)
        ref, sim = runs
        assert len(sim.sink_log) == n
        assert _observed(sim) == _observed(ref)
        assert sim.events <= ref.events - n


def _fields(msg: DataMsg) -> tuple:
    return (msg.txn, msg.key, msg.created, msg.version_tag)


class SnapshotChannel(Channel):
    """A channel that keeps each data message it sends with a snapshot of
    its fields, and checks the fields against it when the message is
    popped."""

    __slots__ = ("sent", "popped", "tagged")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = deque()  # (message, its fields at send), unpopped
        self.popped = self.tagged = 0

    def send(self, msg):
        if type(msg) is DataMsg:
            self.sent.append((msg, _fields(msg)))
        super().send(msg)

    def pop(self):
        msg = super().pop()
        if type(msg) is DataMsg:
            sent, fields = self.sent.popleft()
            assert sent is msg and _fields(msg) == fields, (self.src.name, self.dst.name, fields, msg)
            self.popped += 1
            self.tagged += msg.version_tag is not None
        return msg


class TestSentMessagesUnwritten:
    """A worker whose output keeps the key sends the message it holds, not
    a copy, so one message may be queued on several channels. That is safe
    only while no message is written after ``Channel.send``, including a
    source's multi-version tag."""

    def _counts(self, sim: Simulator) -> tuple[int, int]:
        """Check the messages still queued too; return the data messages
        popped and how many of them carried a version tag."""
        for ch in sim.channels:
            for msg, fields in ch.sent:
                assert _fields(msg) == fields, (ch.src.name, ch.dst.name, fields, msg)
        return sum(ch.popped for ch in sim.channels), sum(ch.tagged for ch in sim.channels)

    @pytest.mark.parametrize("action", ["fries", "ebr", "multiversion"])
    def test_random_specs(self, action, monkeypatch):
        monkeypatch.setattr(simulator_module, "Channel", SnapshotChannel)
        popped = tagged = 0
        for seed in range(12):
            p, t = self._counts(chain_run(action, seed))
            popped, tagged = popped + p, tagged + t
        assert popped > 10_000
        assert (tagged > 0) == (action == "multiversion")

    @pytest.mark.parametrize("action", ["fries", "ebr", "multiversion"])
    def test_stress_specs(self, action, monkeypatch):
        monkeypatch.setattr(simulator_module, "Channel", SnapshotChannel)
        popped = tagged = 0
        for seed in range(40):
            p, t = self._counts(_family_run("stress", seed, action))
            popped, tagged = popped + p, tagged + t
        assert popped > 10_000
        assert (tagged > 0) == (action == "multiversion")

    @pytest.mark.parametrize("make", [FriesScheduler, MultiVersionScheduler], ids=["fries", "multiversion"])
    def test_workflows(self, make, monkeypatch):
        """Figure 8's split and union, W4's filter and fanout-12 join, and
        W5's replicate and self-join at p=2."""
        monkeypatch.setattr(simulator_module, "Channel", SnapshotChannel)
        cases = [
            (fig8_spec, {"FMX"}, 0.3, 5.0),
            (lambda: defs.w4(parallelism=2), {"FD1"}, 5.0, 15.0),
            (lambda: defs.w5(parallelism=2), {"FD4"}, 2.0, 6.0),
        ]
        for build, ops, t, t_end in cases:
            sim = Simulator(build())
            sim.start()
            sim.run(until=t)
            make().request(sim, ops, t)
            sim.run(until=t_end)
            popped, tagged = self._counts(sim)
            assert popped > 1_000
            assert (tagged > 0) == (make is MultiVersionScheduler)


def _perfbench_flows(monkeypatch) -> dict:
    """``FLOWS`` of the benchmark's ``perfbench/workloads.py``, which is a
    script directory rather than a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.FLOWS


class TestRecording:
    def test_record_takes_none_or_all(self):
        for record in ("none", "all"):
            assert Simulator(chain_spec(), record=record).record == record
        for record in ("watched", "ALL", ""):
            with pytest.raises(ValueError, match="record"):
                Simulator(chain_spec(), record=record)

    def test_none_logs_only_apply_times(self, monkeypatch):
        """``run_delay`` records nothing but the apply times it measures."""
        sim, delay = _halt_case_run(Simulator, "W2", FriesScheduler, True, monkeypatch)
        _, ops, _, _ = HALT_CASES["W2"]
        assert sim.record == "none" and math.isfinite(delay)
        assert len(sim.op_log) == 0 and len(sim.schedule_log) == 0 and len(sim.sink_log) == 0
        assert set(sim.apply_times) == sim.reconfig_workers(ops)

    def test_all_logs_every_operation(self):
        """One entry per data operation, one per update (under
        ``UPDATE_TXN``), one sink arrival per tuple reaching the sink."""
        sim = Simulator(chain_spec())
        sim.start()
        sim.run(until=0.02)
        FriesScheduler().request(sim, {"A"}, sim.now)
        sim.run()
        assert len(sim.op_log) == sum(w.processed for w in sim.workers.values()) + 1
        assert [(w, v) for _, w, txn, v in sim.op_log if txn == UPDATE_TXN] == [("A#0", 2)]
        assert len(sim.sink_log) == 50
        times = [t for t, _, _, _ in sim.op_log]
        assert times == sorted(times)

    def test_perfbench_flows_accepted(self, monkeypatch):
        """The benchmark builds simulators with its flows' ``record`` values
        and reads ``schedule_log`` with ``len`` and the checker."""
        flows = _perfbench_flows(monkeypatch)
        assert {flow.record for flow in flows.values()} <= {"none", "all"}
        for flow in flows.values():
            Simulator(chain_spec(), record=flow.record)
        build, ops, _, t_max = HALT_CASES["W4"]
        sim = Simulator(build(), record=flows["W4"].record)
        scheduler = FriesScheduler()
        sim.start()
        sim.run(until=2.0)
        scheduler.request(sim, ops, 2.0)
        sim.run(until=t_max, halt_on_apply=lambda: scheduler.result(sim, 2.0).completed)
        schedule = sim.schedule_log
        assert isinstance(schedule, Schedule)
        assert len(schedule) == len(sim.op_log) > 0
        assert sum(isinstance(op, UpdateOp) for op in schedule) == len(sim.reconfig_workers(ops))
        assert check(schedule).serializable
