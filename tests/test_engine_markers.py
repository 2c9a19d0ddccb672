"""Marker-protocol tests: FIFO ordering behind data, epoch alignment,
scope filtering, FCM bypass, concurrent rounds, and multi-version
tagging."""
import pytest

from repro.core import check
from repro.core.dag import DAG
from repro.core.transactions import UPDATE_TXN, DataOp, Schedule, UpdateOp
from repro.engine import (
    EpochMarker,
    EpochScheduler,
    FriesScheduler,
    KeyDist,
    MultiVersionScheduler,
    NaiveFCMScheduler,
    OpSpec,
    Simulator,
    WorkflowSpec,
    run_reconfig_experiment,
)


def slow_chain(cost=0.02, n=200) -> WorkflowSpec:
    dag = DAG.from_edges([("src", "A"), ("A", "B"), ("B", "sink")])
    ops = {
        "src": OpSpec("src", kind="source", rate=500, n_tuples=n,
                      key_dist=KeyDist.uniform(16)),
        "A": OpSpec("A", kind="map", cost={1: cost, 2: 0.001}),
        "B": OpSpec("B", kind="map", cost={1: 0.001, 2: 0.001}),
        "sink": OpSpec("sink", kind="sink"),
    }
    return WorkflowSpec(dag=dag, ops=ops)


class TestMarkerFIFO:
    def test_marker_waits_behind_inflight_data(self):
        """The epoch marker cannot overtake buffered tuples: A's apply time
        grows with A's backlog (the §3.2 delay source)."""
        delays = []
        for cost in (0.005, 0.02):
            sim = Simulator(slow_chain(cost=cost), record="none")
            res = run_reconfig_experiment(
                sim, EpochScheduler(), {"A"}, t_request=0.3, t_end=100.0
            )
            assert res.completed, cost
            delays.append(res.delay)
        assert delays[1] > 2 * delays[0]

    def test_fcm_bypasses_data(self):
        """Def 4.1: the FCM reaches a backlogged operator in ~latency time."""
        spec = slow_chain(cost=0.05)
        sim = Simulator(spec, record="none")
        res = run_reconfig_experiment(
            sim, FriesScheduler(), {"A"}, t_request=0.3, t_end=100.0
        )
        assert res.delay < spec.fcm_latency + 0.06  # + one in-flight tuple

    def test_data_behind_marker_processed_with_new_config(self):
        """After the swap, A's remaining backlog is processed at the new
        (cheap) cost, so the run finishes much earlier than without swap."""
        sim1 = Simulator(slow_chain())
        run_reconfig_experiment(sim1, FriesScheduler(), {"A"}, t_request=0.1, t_end=10_000)
        sim1.run()
        end_with_swap = max(t for t, _, _ in sim1.sink_log)
        sim2 = Simulator(slow_chain())
        sim2.start()
        sim2.run()
        end_without = max(t for t, _, _ in sim2.sink_log)
        assert end_with_swap < end_without


class TestAlignment:
    def two_path_spec(self) -> WorkflowSpec:
        # src -> {fast, slow} -> join-point M -> sink; M must align markers
        # from both branches.
        dag = DAG.from_edges(
            [("src", "RE"), ("RE", "fast"), ("RE", "slow"), ("fast", "M"),
             ("slow", "M"), ("M", "sink")]
        )
        ops = {
            "src": OpSpec("src", kind="source", rate=200, n_tuples=150,
                          key_dist=KeyDist.uniform(16)),
            "RE": OpSpec("RE", kind="replicate"),
            "fast": OpSpec("fast", kind="map", cost={1: 0.0005}),
            "slow": OpSpec("slow", kind="map", cost={1: 0.02}),
            "M": OpSpec("M", kind="selfjoin", arity=2),
            "sink": OpSpec("sink", kind="sink"),
        }
        return WorkflowSpec(dag=dag, ops=ops)

    def test_alignment_waits_for_slowest_branch(self):
        """M applies only after the marker traverses the *slow* branch —
        the straggler effect of §8.3."""
        sim = Simulator(self.two_path_spec(), record="none")
        sched = FriesScheduler(prune=False)
        res = run_reconfig_experiment(sim, sched, {"M"}, t_request=0.4, t_end=200.0)
        assert res.completed
        # Far more than the fast branch would need (~ms): the slow branch
        # backlog (~0.4s × 200/s × 20ms = seconds) dominates.
        assert res.delay > 0.5

    def test_pruned_plan_skips_alignment(self):
        # M is a selfjoin, unique per txn, but the uniqueness rule never
        # counts the reconfiguration operator itself, and both RE edges
        # reach M: pruning must NOT fire. Verify that.
        sim = Simulator(self.two_path_spec(), record="none")
        sched = FriesScheduler(prune=True)
        res = run_reconfig_experiment(sim, sched, {"M"}, t_request=0.4, t_end=200.0)
        assert set(sched.plan.component_list[0].vertices) == {"RE", "fast", "slow", "M"}
        assert res.completed
        assert res.delay > 0.5

    def test_consistency_under_alignment(self):
        from repro.core import check

        sim = Simulator(self.two_path_spec())
        res = run_reconfig_experiment(
            sim, FriesScheduler(prune=False), {"M"}, t_request=0.4, t_end=200.0
        )
        assert res.completed
        assert check(sim.schedule_log).serializable


def two_source_spec(p: int) -> WorkflowSpec:
    """S1 → X → Z and S2 → Y → Z, then Z (union) → T → sink; X, Y, Z and T
    run ``p`` workers each."""
    dag = DAG.from_edges(
        [("S1", "X"), ("S2", "Y"), ("X", "Z"), ("Y", "Z"), ("Z", "T"), ("T", "sink")]
    )
    ops = {
        "S1": OpSpec("S1", kind="source", rate=400, n_tuples=300,
                     key_dist=KeyDist.uniform(32)),
        "S2": OpSpec("S2", kind="source", rate=400, n_tuples=300,
                     key_dist=KeyDist.uniform(32)),
        "X": OpSpec("X", cost={1: 0.004, 2: 0.001}, parallelism=p),
        "Y": OpSpec("Y", cost={1: 0.004, 2: 0.001}, parallelism=p),
        "Z": OpSpec("Z", kind="union", cost={1: 0.002}, parallelism=p),
        "T": OpSpec("T", cost={1: 0.003}, parallelism=p),
        "sink": OpSpec("sink", kind="sink"),
    }
    return WorkflowSpec(dag=dag, ops=ops)


class TestConcurrentRounds:
    """Two requests made at the same time run two rounds. Under Fries the
    {X, Z} round and the {Y, T} round (component {Y, Z, T}) both align at
    Z, and each marker must count only its own arrivals there."""

    REQUESTS = ({"X", "Z"}, {"Y", "T"})

    def test_equal_markers_are_two_rounds(self):
        """Workers align on the marker object: two rounds with the same
        scope and targets stay apart."""
        a, b = (EpochMarker(frozenset({("X", "Z")}), frozenset({"Z"})) for _ in range(2))
        assert a != b and len({a, b}) == 2

    def verdicts(self, make, p: int, t: float) -> list[bool]:
        """Run both requests at ``t``; per request, whether the ``op_log``
        rows of its own reconfiguration workers are conflict-serializable."""
        sim = Simulator(two_source_spec(p))
        schedulers = [make() for _ in self.REQUESTS]
        sim.start()
        sim.run(until=t)
        for scheduler, ops in zip(schedulers, self.REQUESTS):
            scheduler.request(sim, ops, t)
        sim.run(until=100.0)
        out = []
        for scheduler, ops in zip(schedulers, self.REQUESTS):
            assert scheduler.result(sim, t).completed
            workers = sim.reconfig_workers(ops)
            schedule = Schedule([
                UpdateOp(w) if txn == UPDATE_TXN else DataOp(txn, w)
                for _, w, txn, _ in sim.op_log if w in workers
            ])
            out.append(check(schedule).serializable)
        return out

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize(
        "make", [FriesScheduler, EpochScheduler, NaiveFCMScheduler],
        ids=["fries", "ebr", "naive"],
    )
    def test_each_request_serializable_on_its_workers(self, make, p):
        for t in (0.1, 0.2, 0.3, 0.4):
            verdicts = self.verdicts(make, p, t)
            # NaiveFCM must be flagged, or the per-request check could
            # pass vacuously.
            assert all(verdicts) == (make is not NaiveFCMScheduler), (t, verdicts)


class TestMultiVersionTagging:
    def test_tuples_tagged_after_bump(self):
        spec = slow_chain(n=300)
        sim = Simulator(spec)
        res = run_reconfig_experiment(
            sim, MultiVersionScheduler(), {"A", "B"}, t_request=0.3, t_end=100.0
        )
        assert res.completed
        versions = {v for _, _, _, v in sim.op_log}
        assert versions == {1, 2}

    def test_old_tagged_tuples_use_old_config(self):
        """Tuples in flight at bump time keep version 1 end to end."""
        spec = slow_chain(n=300)
        sim = Simulator(spec)
        run_reconfig_experiment(
            sim, MultiVersionScheduler(), {"A", "B"}, t_request=0.3, t_end=100.0
        )
        # Per transaction: the set of versions used across all operators is a
        # singleton (that is the point of multi-version scheduling).
        by_txn: dict[int, set[int]] = {}
        for _, _, txn, v in sim.op_log:
            by_txn.setdefault(txn, set()).add(v)
        assert all(len(vs) == 1 for vs in by_txn.values())
