"""Marker-protocol tests: FIFO ordering behind data, epoch alignment,
scope filtering, FCM bypass, and multi-version tagging."""
from repro.core.dag import DAG
from repro.engine import (
    EpochScheduler,
    FriesScheduler,
    KeyDist,
    MultiVersionScheduler,
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
             ("slow", "M"), ("M", "sink")],
            edgewise_one_to_one=["RE"],
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
        # With pruning M is NOT synchronized with RE... M is a selfjoin
        # without unique flag? It has arity 2 (receives both replicas), so
        # pruning must NOT fire (both RE edges reach M). Verify that.
        sim = Simulator(self.two_path_spec(), record="none")
        sched = FriesScheduler(prune=True)
        res = run_reconfig_experiment(sim, sched, {"M"}, t_request=0.4, t_end=200.0)
        assert set(sched.plan.component_list[0].vertices) == {"RE", "fast", "slow", "M"}
        assert res.delay > 0.5

    def test_consistency_under_alignment(self):
        from repro.core import check

        sim = Simulator(self.two_path_spec())
        res = run_reconfig_experiment(
            sim, FriesScheduler(prune=False), {"M"}, t_request=0.4, t_end=200.0
        )
        assert res.completed
        assert check(sim.schedule_log).serializable


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
