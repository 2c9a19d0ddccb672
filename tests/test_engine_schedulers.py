"""Scheduler tests on the simulated engine: consistency (conflict-
serializability of recorded schedules) and delay ordering for all five
runtime schedulers."""
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core import check
from repro.core.dag import DAG
from repro.core.transactions import UPDATE_TXN
from repro.engine import (
    EdgeSpec,
    EpochScheduler,
    FriesScheduler,
    KeyDist,
    MultiVersionScheduler,
    NaiveFCMScheduler,
    OpSpec,
    SavepointScheduler,
    Simulator,
    Worker,
    WorkflowSpec,
    run_reconfig_experiment,
)
from repro.engine.schedulers import STOP_RESTART_COST, effective_logical_dag


def fig2_spec(fm_cost=0.02) -> WorkflowSpec:
    """The running-example pipeline src → FC → FM → MC → sink with an
    expensive FM (so in-flight tuples exist at reconfiguration time)."""
    dag = DAG.from_edges([("src", "FC"), ("FC", "FM"), ("FM", "MC"), ("MC", "sink")])
    ops = {
        "src": OpSpec("src", kind="source", rate=500, n_tuples=400,
                      key_dist=KeyDist.uniform(100)),
        "FC": OpSpec("FC", kind="map", cost={1: 0.001}),
        "FM": OpSpec("FM", kind="map", cost={1: fm_cost, 2: 0.002}),
        "MC": OpSpec("MC", kind="map", cost={1: 0.001}),
        "sink": OpSpec("sink", kind="sink"),
    }
    return WorkflowSpec(dag=dag, ops=ops)


def fig8_spec() -> WorkflowSpec:
    """One-to-many join J fanning out to FMX via split SP (Figure 8)."""
    dag = DAG.from_edges(
        [("src", "FC"), ("FC", "J"), ("J", "SP"), ("SP", "FMX"), ("SP", "FMY"),
         ("FMX", "U"), ("FMY", "U"), ("U", "sink")]
    )
    ops = {
        "src": OpSpec("src", kind="source", rate=300, n_tuples=200,
                      key_dist=KeyDist.uniform(50)),
        "FC": OpSpec("FC", kind="map", cost={1: 0.0005}),
        "J": OpSpec("J", kind="join", fanout=3, cost={1: 0.0005},
                    out_key=KeyDist.uniform(50)),
        "SP": OpSpec("SP", kind="split", cost={1: 0.0002}),
        "FMX": OpSpec("FMX", kind="map", cost={1: 0.01, 2: 0.001}),
        "FMY": OpSpec("FMY", kind="map", cost={1: 0.01, 2: 0.001}),
        "U": OpSpec("U", kind="union", cost={1: 0.0002}),
        "sink": OpSpec("sink", kind="sink"),
    }
    return WorkflowSpec(dag=dag, ops=ops)


# W5 at p=2, NaiveFCM on four operators: many same-time FCM deliveries.
NAIVE_W5_OP_LOG = """
from repro.engine import NaiveFCMScheduler, Simulator
from repro.workflows import defs
sim = Simulator(defs.w5(parallelism=2))
sim.start()
sim.run(until=1.0)
NaiveFCMScheduler().request(sim, {"FD3", "FD4", "SJ", "E1"}, 1.0)
sim.run(until=1.1)
print(list(sim.op_log))
"""


def run(spec, scheduler, ops, *, t_req=0.3, t_end=200.0):
    sim = Simulator(spec)
    res = run_reconfig_experiment(sim, scheduler, set(ops), t_request=t_req, t_end=t_end)
    return sim, res


def versions_by_txn(sim: Simulator, ops) -> dict[int, set[int]]:
    """The versions each transaction's data operations use on the workers
    of ``ops``. A multi-version run logs no μ, so the serializability
    checker sees no update in it: its consistency is that each of these
    sets has one version."""
    workers = sim.reconfig_workers(ops)
    seen: dict[int, set[int]] = {}
    for _, w, txn, v in sim.op_log:
        if w in workers and txn != UPDATE_TXN:
            seen.setdefault(txn, set()).add(v)
    return seen


class TestNaiveScheduler:
    def test_fig2_anomaly(self):
        """The §4.1 motivating example: naive FCMs to FM and MC produce a
        non-conflict-serializable schedule (S3)."""
        sim, res = run(fig2_spec(), NaiveFCMScheduler(), {"FM", "MC"})
        assert res.completed
        assert not check(sim.schedule_log).serializable

    def test_fast_delay(self):
        sim, res = run(fig2_spec(), NaiveFCMScheduler(), {"FM", "MC"})
        assert res.delay < 0.1

    def test_op_log_independent_of_hash_seed(self):
        """FCMs go out in plan order, not in the iteration order of a set of
        worker names, so the run does not depend on ``PYTHONHASHSEED``."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        logs = [
            subprocess.run(
                [sys.executable, "-c", NAIVE_W5_OP_LOG],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert logs[0].count(", -1, 2)") == 8  # every FD3/FD4/SJ/E1 worker updated
        assert logs[0] == logs[1]

    def test_safe_on_split_paths(self):
        """Example 5.3 / Figure 6: reconfiguring C and D on disjoint paths
        is safe even for the naive scheduler."""
        dag = DAG.from_edges([("src", "X"), ("X", "C"), ("X", "D"),
                              ("C", "sink"), ("D", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=500, n_tuples=300,
                          key_dist=KeyDist.uniform(40)),
            "X": OpSpec("X", kind="split", cost={1: 0.002}),
            "C": OpSpec("C", kind="map", cost={1: 0.004}),
            "D": OpSpec("D", kind="map", cost={1: 0.004}),
            "sink": OpSpec("sink", kind="sink"),
        }
        sim, res = run(WorkflowSpec(dag=dag, ops=ops), NaiveFCMScheduler(), {"C", "D"})
        assert res.completed
        assert check(sim.schedule_log).serializable

    def test_fig8_single_op_anomaly(self):
        """§6.1: naive FCM to FMX alone *can* split a fanned-out
        transaction (schedule S5). The anomaly is timing-dependent, so we
        probe several request times and require it to occur at least once —
        while Fries at the same times never produces it (see
        TestFriesScheduler)."""
        violated = 0
        for t_req in (0.3, 0.35, 0.45, 0.5):
            sim, res = run(fig8_spec(), NaiveFCMScheduler(), {"FMX"}, t_req=t_req)
            assert res.completed
            if not check(sim.schedule_log).serializable:
                violated += 1
        assert violated > 0


class TestFriesScheduler:
    def test_fig2_serializable(self):
        sim, res = run(fig2_spec(), FriesScheduler(), {"FM", "MC"})
        assert res.completed
        assert check(sim.schedule_log).serializable

    def test_fig8_serializable_with_alg3(self):
        sim, res = run(fig8_spec(), FriesScheduler(), {"FMX"}, t_req=0.4)
        assert res.completed
        assert check(sim.schedule_log).serializable

    def test_fig8_plan_includes_join(self):
        _, res = run(fig8_spec(), sched := FriesScheduler(), {"FMX"}, t_req=0.4)
        assert set(sched.plan.component_list[0].vertices) == {"J", "SP", "FMX"}

    def test_faster_than_epoch(self):
        _, rf = run(fig2_spec(), FriesScheduler(), {"FM", "MC"})
        _, re_ = run(fig2_spec(), EpochScheduler(), {"FM", "MC"})
        assert rf.completed and re_.completed
        assert rf.delay < re_.delay

    def test_singleton_component_near_fcm_latency(self):
        spec = fig2_spec()
        _, res = run(spec, FriesScheduler(), {"FM"})
        # FCM latency + at most one in-process tuple.
        assert res.delay < spec.fcm_latency + 0.05

    def test_parallel_workers_serializable(self):
        spec = fig2_spec()
        for name in ("FC", "FM", "MC"):
            spec.ops[name].parallelism = 3
        sim, res = run(spec, FriesScheduler(), {"FM", "MC"})
        assert res.completed
        assert check(sim.schedule_log).serializable
        assert len(res.apply_times) == 6  # 3 FM + 3 MC workers

    def test_second_request_raises(self):
        """A worker applies one reconfiguration; a second request on the
        same simulator raises instead of being dropped."""
        sim, res = run(fig2_spec(), FriesScheduler(), {"FM"})
        assert res.completed
        FriesScheduler().request(sim, {"FM"}, sim.now)
        with pytest.raises(RuntimeError, match="already applied"):
            sim.run()


class TestBroadcastPlanning:
    def broadcast_spec(self) -> WorkflowSpec:
        """src(p=1) -broadcast-> op0(p=2) -hash-> op1(p=2) -> sink: both
        copies of a transaction reach the same op1 worker, one per op0
        worker."""
        dag = DAG.from_edges([("src", "op0"), ("op0", "op1"), ("op1", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=200, n_tuples=200,
                          key_dist=KeyDist.uniform(30)),
            "op0": OpSpec("op0", kind="map", parallelism=2, cost={1: 0.005}),
            "op1": OpSpec("op1", kind="map", parallelism=2, cost={1: 0.005, 2: 0.001}),
            "sink": OpSpec("sink", kind="sink"),
        }
        return WorkflowSpec(dag=dag, ops=ops, edges={("src", "op0"): EdgeSpec("broadcast")})

    def test_broadcaster_not_pruned(self):
        """At the logical level a broadcaster sends p copies along one edge,
        so it is one-to-many but not edge-wise one-to-one: Algorithm 4 must
        keep it, and both copies of a transaction meet op1 on the same side
        of the update."""
        sched = FriesScheduler()
        sim, res = run(self.broadcast_spec(), sched, {"op1"})
        assert sched.plan.heads == (("src",),)
        assert res.completed
        assert check(sim.schedule_log).serializable


class TestEpochScheduler:
    def test_reconfigure_source(self):
        """A source in the reconfiguration set applies it when it opens the
        epoch."""
        dag = DAG.from_edges([("src", "A"), ("A", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=200, n_tuples=100,
                          key_dist=KeyDist.uniform(10)),
            "A": OpSpec("A", kind="map", cost={1: 0.002}),
            "sink": OpSpec("sink", kind="sink"),
        }
        spec = WorkflowSpec(dag=dag, ops=ops)
        for scheduler in (EpochScheduler(), SavepointScheduler()):
            _, res = run(spec, scheduler, {"src"}, t_req=0.1)
            assert res.completed
            assert res.apply_times["src#0"] == pytest.approx(0.1 + spec.fcm_latency)

    def test_serializable(self):
        sim, res = run(fig2_spec(), EpochScheduler(), {"FM", "MC"})
        assert res.completed
        assert check(sim.schedule_log).serializable

    def test_fig8_serializable(self):
        sim, res = run(fig8_spec(), EpochScheduler(), {"FMX"}, t_req=0.4)
        assert res.completed
        assert check(sim.schedule_log).serializable

    def test_delay_grows_with_inflight(self):
        _, r1 = run(fig2_spec(fm_cost=0.01), EpochScheduler(), {"FM"})
        _, r2 = run(fig2_spec(fm_cost=0.04), EpochScheduler(), {"FM"})
        assert r1.completed and r2.completed
        assert r2.delay > r1.delay


class TestSavepointScheduler:
    def test_worse_than_epoch(self):
        """§8.1: the savepoint scheduler always has a larger delay than the
        epoch scheduler (alignment to the sinks + stop/restart)."""
        _, r_ep = run(fig2_spec(), EpochScheduler(), {"FM"})
        _, r_sv = run(fig2_spec(), SavepointScheduler(), {"FM"})
        assert r_sv.completed
        assert r_sv.delay > r_ep.delay + STOP_RESTART_COST - 0.1


class TestMultiVersionScheduler:
    def test_serializable(self):
        """§4.1: every transaction runs at one version on FM and MC, and
        both versions run. ``check`` would pass any multi-version run,
        which logs no μ."""
        sim, res = run(fig2_spec(), MultiVersionScheduler(), {"FM", "MC"})
        assert res.completed
        seen = versions_by_txn(sim, {"FM", "MC"})
        assert all(len(v) == 1 for v in seen.values())
        assert set().union(*seen.values()) == {1, 2}

    def test_delay_comparable_to_epoch(self):
        """§4.1: in-flight old-version tuples still processed with the old
        configuration — the delay stays epoch-like, not FCM-like."""
        _, r_mv = run(fig2_spec(), MultiVersionScheduler(), {"FM", "MC"})
        _, r_fr = run(fig2_spec(), FriesScheduler(), {"FM", "MC"})
        assert r_mv.completed and r_fr.completed
        assert r_mv.delay > 10 * r_fr.delay

    def test_blocked_source_tags_at_send(self, monkeypatch):
        """A source blocked on a full channel when its version bump arrives
        sends that tuple tagged v2: the bump retags the tuple that waits
        for room. Every worker then processes every txn at the version the
        source logged for it."""
        self._check_blocked_source("hash", 1, monkeypatch)

    def test_blocked_source_retags_batch(self, monkeypatch):
        """The same through a broadcast into two workers: the bump retags
        the pending batch of copies that ``_try_emit`` sends."""
        self._check_blocked_source("broadcast", 2, monkeypatch)

    def _check_blocked_source(self, strategy, p, monkeypatch):
        dag = DAG.from_edges([("src", "A"), ("A", "B"), ("B", "sink")])
        ops = {
            "src": OpSpec("src", kind="source", rate=1000, n_tuples=100,
                          key_dist=KeyDist.uniform(10)),
            "A": OpSpec("A", kind="map", parallelism=p, cost={1: 0.005}),
            "B": OpSpec("B", kind="map", cost={1: 0.001}),
            "sink": OpSpec("sink", kind="sink"),
        }
        edges = {("src", "A"): EdgeSpec(strategy, capacity=2)}
        at_bump = []
        on_fcm = Worker.on_fcm

        def recorded(w, fcm):
            if fcm == "bump_version":
                at_bump.append((w.state, w._txn))
            on_fcm(w, fcm)

        monkeypatch.setattr(Worker, "on_fcm", recorded)
        sim, res = run(WorkflowSpec(dag=dag, ops=ops, edges=edges),
                       MultiVersionScheduler(), {"A"}, t_req=0.1)
        assert res.completed
        [(state, blocked_txn)] = at_bump
        assert state == "blocked"
        versions: dict[int, dict[str, int]] = {}
        for _, w, txn, v in sim.op_log:
            if txn != UPDATE_TXN:
                versions.setdefault(txn, {})[w] = v
        assert versions[blocked_txn]["src#0"] == 2
        for txn, by_worker in versions.items():
            assert set(by_worker) == {"src#0", *(f"A#{i}" for i in range(p)), "B#0", "sink#0"}
            assert set(by_worker.values()) == {by_worker["src#0"]}, txn
        assert {v["src#0"] for v in versions.values()} == {1, 2}

    def test_requires_recording(self):
        """Completion is read from the operation log, which ``record="none"``
        leaves empty: the request raises rather than never completing."""
        sim = Simulator(fig2_spec(), record="none")
        sim.start()
        with pytest.raises(ValueError, match="record"):
            MultiVersionScheduler().request(sim, {"FM", "MC"}, 0.0)


def _random_chain_spec(rng: random.Random):
    """A random pipeline with optional fanout operator, random costs and
    random partitioning: each edge is hash, broadcast or (between equal
    parallelisms) forward."""
    n_mid = rng.randint(2, 4)
    names = [f"op{i}" for i in range(n_mid)]
    edges = [("src", names[0])] + list(zip(names, names[1:])) + [(names[-1], "sink")]
    joins = [names[1]] if rng.random() < 0.5 else []
    dag = DAG.from_edges(edges)
    ops = {
        "src": OpSpec("src", kind="source", rate=rng.choice([200, 500]),
                      n_tuples=150, key_dist=KeyDist.uniform(30)),
        "sink": OpSpec("sink", kind="sink"),
    }
    for nm in names:
        if nm in joins:
            ops[nm] = OpSpec(nm, kind="join", fanout=rng.randint(2, 3),
                             cost={1: rng.choice([0.001, 0.005])},
                             out_key=KeyDist.uniform(30))
        else:
            ops[nm] = OpSpec(nm, kind="map",
                             cost={1: rng.choice([0.001, 0.008])},
                             parallelism=rng.choice([1, 2]))
    strategies = {}
    for a, b in edges:
        choices = ["hash", "broadcast"]
        if ops[a].parallelism == ops[b].parallelism:
            choices.append("forward")
        strategies[(a, b)] = EdgeSpec(rng.choice(choices))
    return WorkflowSpec(dag=dag, ops=ops, edges=strategies, seed=rng.randint(0, 999)), names


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fries_always_serializable_random(seed):
    """Theorems 5.8/6.4 as a property test: random pipelines, random
    reconfiguration sets, random request times — Fries schedules are always
    conflict-serializable."""
    rng = random.Random(seed)
    spec, names = _random_chain_spec(rng)
    k = rng.randint(1, min(2, len(names)))
    ops = set(rng.sample(names, k))
    sim = Simulator(spec)
    res = run_reconfig_experiment(
        sim, FriesScheduler(), ops,
        t_request=rng.uniform(0.05, 0.5), t_end=500.0,
    )
    assert res.completed
    assert check(sim.schedule_log).serializable


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_epoch_always_serializable_random(seed):
    """Lemma 4.11 as a property test."""
    rng = random.Random(seed)
    spec, names = _random_chain_spec(rng)
    ops = set(rng.sample(names, 1))
    sim = Simulator(spec)
    res = run_reconfig_experiment(
        sim, EpochScheduler(), ops,
        t_request=rng.uniform(0.05, 0.5), t_end=500.0,
    )
    assert res.completed
    assert check(sim.schedule_log).serializable


# Motifs of a branching DAG, each chained after the last operator of the
# one before: a map, a filter, a fan-out join, replicate → two maps →
# selfjoin, split → two maps → union, and a second source merged by a union.
MOTIFS = ("map", "filter", "fanout", "diamond", "split", "merge")
SLOW, CHEAP = {1: 0.004, 2: 0.001}, {1: 0.0005}


@dataclass
class Branching:
    """A branching spec and a request on it. The operators of the i-th
    motif carry the suffix i (see :func:`branching_spec`). Unlisted
    operators have one worker and unlisted edges are hash edges."""

    motifs: tuple[str, ...]
    targets: tuple[str, ...]
    t: float
    parallelism: dict[str, int] = field(default_factory=dict)
    strategies: dict[tuple[str, str], str] = field(default_factory=dict)
    capacity: int = 50


def branching_spec(case: Branching) -> WorkflowSpec:
    """``src`` → ``case.motifs`` → ``sink``. A map or filter is M/F, a
    fan-out join J (fanout 2, keeps the key), a diamond RE → {A, B} → SJ
    (arity 2), a split SP → {X, Y} → U, and a merge S → U."""
    ops: dict[str, OpSpec] = {}
    edges: list[tuple[str, str]] = []

    def add(name, kind, *inputs, **kw):
        ops[name] = OpSpec(name, kind=kind, parallelism=case.parallelism.get(name, 1), **kw)
        edges.extend((u, name) for u in inputs)
        return name

    tail = add("src", "source", rate=300, n_tuples=150, key_dist=KeyDist.uniform(30))
    for i, motif in enumerate(case.motifs):
        if motif == "map":
            tail = add(f"M{i}", "map", tail, cost=SLOW)
        elif motif == "filter":
            tail = add(f"F{i}", "filter", tail, cost=SLOW, selectivity=0.7)
        elif motif == "fanout":
            tail = add(f"J{i}", "join", tail, cost=CHEAP, fanout=2)
        elif motif == "diamond":
            re = add(f"RE{i}", "replicate", tail, cost=CHEAP)
            a, b = add(f"A{i}", "map", re, cost=SLOW), add(f"B{i}", "map", re, cost=CHEAP)
            tail = add(f"SJ{i}", "selfjoin", a, b, cost=CHEAP, arity=2)
        elif motif == "split":
            sp = add(f"SP{i}", "split", tail, cost=CHEAP)
            x, y = add(f"X{i}", "map", sp, cost=SLOW), add(f"Y{i}", "map", sp, cost=CHEAP)
            tail = add(f"U{i}", "union", x, y, cost=CHEAP)
        else:
            s = add(f"S{i}", "source", rate=200, n_tuples=100, key_dist=KeyDist.uniform(30))
            tail = add(f"U{i}", "union", tail, s, cost=CHEAP)
    add("sink", "sink", tail)
    return WorkflowSpec(
        dag=DAG.from_edges(edges),
        ops=ops,
        edges={e: EdgeSpec(case.strategies.get(e, "hash"), capacity=case.capacity)
               for e in edges},
    )


def random_branching(rng: random.Random) -> Branching:
    """2–4 motifs; p ∈ {1, 2} per operator; hash, broadcast or (between
    equal parallelisms) forward edges; capacity 5 or 50; 1–3 targets; a
    request at 0.05–0.3 s."""
    motifs = tuple(rng.choices(MOTIFS, k=rng.randint(2, 4)))
    skeleton = branching_spec(Branching(motifs, (), 0.0))
    inner = [v for v, op in skeleton.ops.items() if op.kind not in ("source", "sink")]
    parallelism = {v: rng.choice([1, 2]) for v in inner}
    strategies = {}
    for a, b in skeleton.dag.edges:
        choices = ["hash", "broadcast"]
        if parallelism.get(a, 1) == parallelism.get(b, 1):
            choices.append("forward")
        strategies[(a, b)] = rng.choice(choices)
    return Branching(
        motifs,
        targets=tuple(rng.sample(inner, rng.randint(1, min(3, len(inner))))),
        t=rng.uniform(0.05, 0.3),
        parallelism=parallelism,
        strategies=strategies,
        capacity=rng.choice([5, 50]),
    )


def branchings() -> st.SearchStrategy[Branching]:
    """:func:`random_branching` with hypothesis drawing (and shrinking)
    every choice."""
    return st.builds(random_branching, st.randoms(use_true_random=False))


def run_case(case: Branching, scheduler):
    return run(branching_spec(case), scheduler, set(case.targets), t_req=case.t, t_end=500.0)


def fanout_diamond(p: int, t: float) -> Branching:
    """src → J (fanout 2) → RE → {A, B} → SJ → M → sink, p workers each:
    four copies of each transaction reach SJ, which emits twice."""
    ops = ("J0", "RE1", "A1", "B1", "SJ1", "M2")
    return Branching(("fanout", "diamond", "map"), ("M2",), t,
                     parallelism=dict.fromkeys(ops, p))


def broadcast_diamond(p: int, t: float) -> Branching:
    """src →broadcast→ M0 (p workers) → RE → {A, B} → SJ → M → sink: 2p
    copies of each transaction reach SJ."""
    return Branching(("map", "diamond", "map"), ("M2",), t, parallelism={"M0": p},
                     strategies={("src", "M0"): "broadcast"})


class TestPlannerFlags:
    """The planner's flags come from each operator's kind, in
    ``effective_logical_dag``; a spec's DAG carries none."""

    @pytest.mark.parametrize(
        "op,flags",
        [
            (OpSpec("X", kind="map"), (False, False, False)),
            (OpSpec("X", kind="filter"), (False, False, False)),
            (OpSpec("X", kind="split"), (False, False, False)),
            (OpSpec("X", kind="union"), (False, False, False)),
            (OpSpec("X", kind="join", fanout=1), (False, False, False)),
            (OpSpec("X", kind="join", fanout=3), (True, False, False)),
            (OpSpec("X", kind="replicate"), (True, True, False)),
            (OpSpec("X", kind="selfjoin", arity=2), (False, False, True)),
        ],
        ids=lambda x: f"{x.kind}-{x.fanout}" if isinstance(x, OpSpec) else None,
    )
    def test_kind_to_flags(self, op, flags):
        ops = {"src": OpSpec("src", kind="source"), "X": op, "sink": OpSpec("sink", kind="sink")}
        spec = WorkflowSpec(dag=DAG.from_edges([("src", "X"), ("X", "sink")]), ops=ops)
        o = effective_logical_dag(spec).op("X")
        assert (o.one_to_many, o.edgewise_one_to_one, o.unique_per_txn) == flags

    def test_flagged_dag_rejected(self):
        dag = DAG.from_edges([("src", "J"), ("J", "sink")], one_to_many=["J"])
        ops = {"src": OpSpec("src", kind="source"), "J": OpSpec("J", kind="join", fanout=2),
               "sink": OpSpec("sink", kind="sink")}
        with pytest.raises(ValueError, match="planner flags"):
            WorkflowSpec(dag=dag, ops=ops)

    @pytest.mark.parametrize("case,unique", [
        (fanout_diamond(1, 0.1), False),
        (broadcast_diamond(2, 0.1), False),
        (broadcast_diamond(1, 0.1), True),
        (Branching(("diamond", "diamond"), ("M1",), 0.1), True),
    ], ids=["fanout", "broadcast-p2", "broadcast-p1", "two-diamonds"])
    def test_selfjoin_unique_only_up_to_arity(self, case, unique):
        """A selfjoin emits once per ``arity`` copies of a transaction at
        one worker: it is unique per txn only where at most ``arity``
        copies can reach it."""
        d = effective_logical_dag(branching_spec(case))
        sj = [v for v in d.vertices if v.startswith("SJ")][-1]
        assert d.op(sj).unique_per_txn == unique


class TestSelfJoinCopies:
    """Pruned Fries on a selfjoin that more than ``arity`` copies of a
    transaction reach: the uniqueness rule must not drop the fan-out
    point, or the selfjoin's outputs of one transaction straddle the
    update."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.15, 0.2, 0.3])
    def test_fanout_before_selfjoin(self, p, t):
        sim, res = run_case(fanout_diamond(p, t), sched := FriesScheduler())
        assert sched.plan.m == {"J0", "M2"}
        assert res.completed
        assert check(sim.schedule_log).serializable

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("t", [0.05, 0.1, 0.15, 0.2, 0.3])
    def test_broadcast_before_selfjoin(self, p, t):
        sim, res = run_case(broadcast_diamond(p, t), sched := FriesScheduler())
        assert sched.plan.m == {"src", "M2"}
        assert res.completed
        assert check(sim.schedule_log).serializable


@settings(max_examples=40, deadline=None)
@given(case=branchings())
@example(case=fanout_diamond(2, 0.1))
@example(case=broadcast_diamond(2, 0.1))
def test_branching_serializable(case):
    """Theorems 5.8/6.4 and Lemma 4.11 on branching DAGs: pruned Fries,
    unpruned Fries and EBR schedules are all conflict-serializable, and
    the multi-version scheduler runs each transaction at one version on
    the reconfiguration workers, where both versions run. A multi-version
    request on a run that drains completes, even where a worker gets no
    v2 tuple before the sources stop."""
    for scheduler in (FriesScheduler(), FriesScheduler(prune=False), EpochScheduler()):
        sim, res = run_case(case, scheduler)
        assert res.completed
        assert check(sim.schedule_log).serializable, scheduler
    sim, res = run_case(case, MultiVersionScheduler())
    assert res.completed or not sim.drained
    seen = versions_by_txn(sim, case.targets)
    assert all(len(v) == 1 for v in seen.values())
    assert set().union(*seen.values()) == {1, 2}


# X1#1 gets no tuple: split SP1 sends a key to branch ``key % 2``, and the
# hash edge into X1 picks worker ``key % 2`` again.
UNREACHED_WORKER = Branching(
    ("filter", "split"), ("X1", "SP1"), 0.17247696313949662,
    parallelism={"F0": 2, "SP1": 1, "X1": 2, "Y1": 1, "U1": 2},
    strategies={("src", "F0"): "hash", ("F0", "SP1"): "hash", ("SP1", "X1"): "hash",
                ("SP1", "Y1"): "broadcast", ("X1", "U1"): "forward",
                ("Y1", "U1"): "broadcast", ("U1", "sink"): "hash"},
    capacity=5,
)


class TestMultiVersionUnreachedWorker:
    """A reconfiguration worker that gets no data after the request runs
    no v2 operation. Once the run drains, no v1 tuple can reach any worker
    any more, so the request completes at the last v1 operation on a
    reconfiguration worker; before that, it stays incomplete."""

    def test_drained_run_completes(self):
        sim, res = run_case(UNREACHED_WORKER, MultiVersionScheduler())
        assert sim.drained
        workers = sim.reconfig_workers(UNREACHED_WORKER.targets)
        t = UNREACHED_WORKER.t
        ops = [(when, w, v) for when, w, txn, v in sim.op_log
               if w in workers and txn != UPDATE_TXN and when >= t]
        assert not [op for op in ops if op[1] == "X1#1"]
        assert {w for _, w, v in ops if v == 2} == workers - {"X1#1"}
        last_v1 = max(when for when, _, v in ops if v == 1)
        assert res.completed and res.delay == last_v1 - t
        assert res.apply_times["X1#1"] == t

    def test_running_run_is_incomplete(self):
        case = UNREACHED_WORKER
        sim = Simulator(branching_spec(case))
        scheduler = MultiVersionScheduler()
        sim.start()
        sim.run(until=case.t)
        scheduler.request(sim, set(case.targets), case.t)
        sim.run(until=case.t + 0.2)
        assert not sim.drained
        assert {w for _, w, txn, v in sim.op_log if v == 2 and txn != UPDATE_TXN} >= \
            sim.reconfig_workers(case.targets) - {"X1#1"}
        res = scheduler.result(sim, case.t)
        assert not res.completed and res.delay == math.inf and res.apply_times == {}
