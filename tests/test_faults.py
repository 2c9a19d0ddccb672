"""§7.3 fault-tolerance tests: inconsistent checkpoints under the naive
policy, the Fries cancel-and-block fix, and recovery."""
from repro.core.dag import DAG
from repro.engine import (
    CheckpointCoordinator,
    FriesScheduler,
    KeyDist,
    OpSpec,
    Simulator,
    WorkflowSpec,
    recover,
    snapshot_consistent,
)


def fig7_spec() -> WorkflowSpec:
    """The Figure 7 dataflow: A→C→{D,E}→F→H, B→G→H, with slow D/E so the
    component marker to F lags behind checkpoint markers elsewhere."""
    dag = DAG.from_edges(
        [("A", "C"), ("B", "G"), ("C", "D"), ("C", "E"), ("D", "F"), ("E", "F"),
         ("F", "H"), ("G", "H")]
    )
    ops = {
        "A": OpSpec("A", kind="source", rate=400, n_tuples=300, key_dist=KeyDist.uniform(20)),
        "B": OpSpec("B", kind="source", rate=400, n_tuples=300, key_dist=KeyDist.uniform(20)),
        "C": OpSpec("C", kind="split", cost={1: 0.0005}),
        "D": OpSpec("D", kind="map", cost={1: 0.02}),
        "E": OpSpec("E", kind="map", cost={1: 0.02}),
        "F": OpSpec("F", kind="map", cost={1: 0.0005}),
        "G": OpSpec("G", kind="map", cost={1: 0.0005}),
        "H": OpSpec("H", kind="sink"),
    }
    # A slow scan edge A→C: C's checkpoint marker arrives well after the
    # reconfiguration FCMs, while B→G is fast — reproducing the §7.3 race
    # (G snapshots old, C/F snapshot new).
    from repro.engine.workload import EdgeSpec

    edges = {("A", "C"): EdgeSpec("hash", latency=0.05)}
    return WorkflowSpec(dag=dag, ops=ops, edges=edges)


RECONFIG = {"C", "F", "G"}


def run_scenario(policy: str):
    """Checkpoint starts just before a Fries reconfiguration of {C, F, G}.

    With slow D/E the component epoch marker reaches F long after G applied
    via FCM — the in-flight checkpoint snapshots G new but F old."""
    sim = Simulator(fig7_spec(), record="none")
    coord = CheckpointCoordinator(sim, policy=policy)
    sched = FriesScheduler()
    sim.start()
    sim.run(until=0.3)
    cid = coord.start_checkpoint(0.3)
    sim.run(until=0.301)
    t_req = 0.301
    coord.on_reconfig_request(t_req, t_req + sim.spec.fcm_latency)
    sched.request(sim, RECONFIG, t_req)
    sim.run(until=120.0)
    workers = set(sim.reconfig_workers(RECONFIG))
    return sim, coord, cid, workers


class TestInconsistentCheckpoint:
    def test_naive_policy_captures_mixed_configuration(self):
        sim, coord, cid, workers = run_scenario("naive")
        snap = sim.snapshots[cid]
        assert len(snap) == len(sim.workers)  # checkpoint completed
        assert not snapshot_consistent(snap, workers)
        # G snapshotted old (marker arrived pre-FCM), F snapshotted new or
        # vice versa — either way versions differ among reconfig workers.
        versions = {snap[w] for w in workers}
        assert versions == {1, 2}

    def test_naive_snapshot_still_listed_as_valid(self):
        _, coord, cid, _ = run_scenario("naive")
        assert cid in coord.valid_snapshots()  # the danger: it looks usable


class TestFriesSafePolicy:
    def test_inflight_checkpoint_cancelled(self):
        sim, coord, cid, workers = run_scenario("fries_safe")
        assert coord.records[cid].cancelled
        assert cid not in coord.valid_snapshots()

    def test_post_reconfig_checkpoint_consistent(self):
        sim, coord, cid, workers = run_scenario("fries_safe")
        cid2 = coord.start_checkpoint(sim.now)
        sim.run(until=sim.now + 120.0)
        snap = sim.snapshots[cid2]
        assert len(snap) == len(sim.workers)
        assert snapshot_consistent(snap, workers)
        assert all(snap[w] == 2 for w in workers)

    def test_blocked_until_fcm_delivery(self):
        sim = Simulator(fig7_spec(), record="none")
        coord = CheckpointCoordinator(sim, policy="fries_safe")
        coord.on_reconfig_request(1.0, 1.5)
        cid = coord.start_checkpoint(1.2)
        assert coord.records[cid].start_time == 1.5  # deferred past FCMs


class TestRecovery:
    def test_recover_restores_versions(self):
        sim, coord, cid, workers = run_scenario("fries_safe")
        cid2 = coord.start_checkpoint(sim.now)
        sim.run(until=sim.now + 120.0)
        snap = sim.snapshots[cid2]
        sim2 = recover(fig7_spec(), snap)
        for w in workers:
            assert sim2.workers[w].version == 2
            assert sim2.workers[w].applied
        # Non-reconfig workers stay at version 1.
        assert sim2.workers["D#0"].version == 1

    def test_recovered_engine_runs(self):
        sim, coord, cid, workers = run_scenario("fries_safe")
        cid2 = coord.start_checkpoint(sim.now)
        sim.run(until=sim.now + 120.0)
        sim2 = recover(fig7_spec(), sim.snapshots[cid2])
        sim2.start()
        sim2.run()
        assert len(sim2.sink_log) > 0

    def test_snapshot_consistency_helper(self):
        assert snapshot_consistent({"a#0": 1, "b#0": 1}, {"a#0", "b#0"})
        assert not snapshot_consistent({"a#0": 1, "b#0": 2}, {"a#0", "b#0"})
        assert snapshot_consistent({}, set())
