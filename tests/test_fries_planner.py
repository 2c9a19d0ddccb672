"""Tests for Algorithms 2/3/4 (the Fries planner) against every worked
example and evaluation-table MCS column in the paper."""
import pytest

from repro.core.dag import DAG
from repro.core.fries import plan_epoch, plan_general, plan_naive, plan_one_to_one
from repro.engine import NaiveFCMScheduler, Simulator
from repro.engine.schedulers import effective_logical_dag
from repro.workflows import defs

from .test_engine_schedulers import fig2_spec


def fig5_dag() -> DAG:
    return DAG.from_edges(
        [("A", "C"), ("B", "G"), ("C", "D"), ("C", "E"), ("D", "F"), ("E", "F"),
         ("F", "H"), ("G", "H")]
    )


def fig8_dag() -> DAG:
    # FC -> J(one-to-many join) -> SP(split) -> {FMX, FMY} -> U
    return DAG.from_edges(
        [("FC", "J"), ("J", "SP"), ("SP", "FMX"), ("SP", "FMY"),
         ("FMX", "U"), ("FMY", "U")],
        one_to_many=["J"],
    )


def comps_of(plan):
    return sorted(sorted(c.vertices) for c in plan.component_list)


def marker_edges(plan):
    """The edges epoch markers travel on: every component's edges."""
    return {e for c in plan.component_list for e in c.edges}


class TestAlgorithm2:
    def test_fig7_plan(self):
        plan = plan_one_to_one(fig5_dag(), {"C", "F", "G"})
        assert comps_of(plan) == [["C", "D", "E", "F"], ["G"]]
        assert set(map(tuple, plan.heads)) == {("C",), ("G",)}
        assert plan.longest_path == 2

    def test_singleton_no_marker_edges(self):
        plan = plan_one_to_one(fig5_dag(), {"D"})
        assert comps_of(plan) == [["D"]]
        assert not marker_edges(plan)

    def test_fig6_separate_paths(self):
        # X splits to C and D (one-to-one split): two singleton components,
        # which is why the naive FCM scheduler is safe there (Example 5.3).
        d = DAG.from_edges([("s", "X"), ("X", "C"), ("X", "D")])
        plan = plan_one_to_one(d, {"C", "D"})
        assert comps_of(plan) == [["C"], ["D"]]

    def test_rejects_one_to_many_ancestors(self):
        with pytest.raises(ValueError, match="one-to-many ancestors"):
            plan_one_to_one(fig8_dag(), {"FMX"})

    def test_marker_edges_are_component_edges(self):
        plan = plan_one_to_one(fig5_dag(), {"C", "F"})
        assert marker_edges(plan) == {("C", "D"), ("C", "E"), ("D", "F"), ("E", "F")}


class TestAlgorithm3:
    def test_fig8_reconfigure_fmx(self):
        """§6.2: reconfiguring FMX must include the Join: MCS = {J, SP, FMX}."""
        plan = plan_general(fig8_dag(), {"FMX"}, prune=False)
        assert comps_of(plan) == [["FMX", "J", "SP"]]
        assert plan.heads == (("J",),)

    def test_fig8_naive_alg2_set_would_be_wrong(self):
        # Without the one-to-many extension the MCS would be {FMX} alone —
        # exactly the broken schedule S5 of §6.1.
        from repro.core.mcs import find_mcs

        assert set(find_mcs(fig8_dag(), {"FMX"}).vertices) == {"FMX"}

    def test_no_one_to_many_equals_alg2(self):
        d = fig5_dag()
        a2 = plan_one_to_one(d, {"C", "F"})
        a3 = plan_general(d, {"C", "F"}, prune=False)
        assert a2.mcs.vertices == a3.mcs.vertices
        assert comps_of(a2) == comps_of(a3)

    def test_reconfig_op_is_the_one_to_many(self):
        plan = plan_general(fig8_dag(), {"J"}, prune=False)
        assert comps_of(plan) == [["J"]]

    def test_chained_one_to_many_starts_from_earliest(self):
        d = DAG.from_edges(
            [("s", "J1"), ("J1", "m"), ("m", "J2"), ("J2", "o")],
            one_to_many=["J1", "J2"],
        )
        plan = plan_general(d, {"o"}, prune=False)
        assert comps_of(plan) == [["J1", "J2", "m", "o"]]
        assert plan.heads == (("J1",),)


class TestAlgorithm4PaperTables:
    """The MCS columns of Tables 4, 5, 6 are algorithm outputs — they must
    match the paper verbatim."""

    @pytest.mark.parametrize(
        "ops,comps,heads,longest",
        [
            ({"J1"}, [["J1"]], {("J1",)}, 0),
            ({"J2"}, [["J2"]], {("J2",)}, 0),
            ({"J1", "J3"}, [["J1", "J2", "J3"]], {("J1",)}, 2),
            ({"J1", "J4"}, [["J1", "J2", "J3", "J4"]], {("J1",)}, 3),
            ({"J3", "J4"}, [["J3", "J4"]], {("J3",)}, 1),
        ],
    )
    def test_table4_w2(self, ops, comps, heads, longest):
        plan = plan_general(effective_logical_dag(defs.w2(parallelism=2)), ops)
        assert comps_of(plan) == comps
        assert set(map(tuple, plan.heads)) == heads
        assert plan.longest_path == longest

    @pytest.mark.parametrize(
        "ops,comps,heads",
        [
            ({"J5"}, [["J5"]], {("J5",)}),
            ({"J5", "J6"}, [["J5"], ["J6"]], {("J5",), ("J6",)}),
            (
                {"J5", "J6", "J7", "J8"},
                [["J5", "J6", "J7", "J8", "U1"]],
                {("J5", "J6", "J7")},
            ),
            (
                {"J5", "J6", "J7", "J9"},
                [["J5", "J6", "J7", "J8", "J9", "U1"]],
                {("J5", "J6", "J7")},
            ),
            ({"J7", "J8", "J9"}, [["J7", "J8", "J9", "U1"]], {("J7",)}),
        ],
    )
    def test_table4_w3(self, ops, comps, heads):
        plan = plan_general(effective_logical_dag(defs.w3(parallelism=2)), ops)
        assert comps_of(plan) == comps
        assert set(map(tuple, plan.heads)) == heads

    @pytest.mark.parametrize(
        "ops,comps,heads",
        [
            ({"F1", "U2"}, [["F1", "U2"]], {("F1",)}),
            ({"FD1"}, [["FD1", "U2"]], {("U2",)}),
            ({"F2"}, [["F2", "FD1", "FD2", "U2"]], {("U2",)}),
        ],
    )
    def test_table5_w4(self, ops, comps, heads):
        plan = plan_general(effective_logical_dag(defs.w4(parallelism=2)), ops)
        assert comps_of(plan) == comps
        assert set(map(tuple, plan.heads)) == heads

    @pytest.mark.parametrize(
        "ops,pruned,unpruned",
        [
            ({"FD4"}, [["FD4"]], [["F4", "FD4", "RE"]]),
            ({"F3"}, [["F3"]], [["F3", "FD3", "RE", "S1"]]),
            ({"F4"}, [["F4"]], [["F4", "RE"]]),
            (
                {"FD3", "FD4"},
                [["F4", "FD3", "FD4", "RE"]],
                [["F4", "FD3", "FD4", "RE"]],
            ),
            (
                {"E1"},
                [["E1"]],
                [["E1", "F3", "F4", "FD3", "FD4", "RE", "S1", "SJ"]],
            ),
        ],
    )
    def test_table6_w5_pruning(self, ops, pruned, unpruned):
        d = effective_logical_dag(defs.w5(parallelism=2))
        assert comps_of(plan_general(d, ops, prune=True)) == pruned
        assert comps_of(plan_general(d, ops, prune=False)) == unpruned

    def test_table6_unpruned_heads_are_re(self):
        d = effective_logical_dag(defs.w5(parallelism=2))
        for ops in ({"FD4"}, {"F3"}, {"F4"}, {"FD3", "FD4"}, {"E1"}):
            plan = plan_general(d, ops, prune=False)
            assert plan.heads == (("RE",),)


class TestEpochPlan:
    def test_epoch_plan_covers_whole_dag(self):
        d = fig5_dag()
        plan = plan_epoch(d, {"F"})
        assert set(plan.mcs.vertices) == set(d.vertices)
        assert plan.heads == (("A", "B"),)
        assert marker_edges(plan) == set(d.edges)


class TestNaivePlan:
    def test_connected_ops_are_separate_singletons(self):
        """§4.1: FCMs straight to FM and MC, although FM→MC is an edge —
        one singleton component per operator, in topological order, no
        markers."""
        spec = fig2_spec()
        plan = plan_naive(spec.dag, {"MC", "FM"})
        assert [sorted(c.vertices) for c in plan.component_list] == [["FM"], ["MC"]]
        assert plan.heads == (("FM",), ("MC",))
        assert not marker_edges(plan)
        assert plan.longest_path == 0

    def test_scheduler_keeps_its_plan(self):
        sim = Simulator(fig2_spec(), record="none")
        sched = NaiveFCMScheduler()
        sched.request(sim, {"FM", "MC"}, 0.0)
        assert sched.plan == plan_naive(sim.spec.dag, {"FM", "MC"})
