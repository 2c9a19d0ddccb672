"""Tests for §7.2 worker-level expansion and Table 7 channel counting."""
import pytest

from repro.core.dag import DAG
from repro.core.fries import plan_general
from repro.core.parallel import broadcast_adjusted, channel_counts, expand, n_channels, worker_name
from repro.engine import EdgeSpec, OpSpec, Simulator, WorkflowSpec
from repro.engine.schedulers import effective_logical_dag
from repro.workflows import defs


def w2_logical():
    return DAG.from_edges(
        [("src", "J1"), ("J1", "J2"), ("J2", "J3"), ("J3", "J4"), ("J4", "sink")]
    )


def map_reconfig(pdf, reconfig_ops) -> frozenset[str]:
    """𝓡 → 𝓡*: a function update on o maps to updates on all its workers."""
    return frozenset(w for o in reconfig_ops for w in pdf.workers(o))


W2_STRATEGIES = {
    ("src", "J1"): "hash",
    ("J1", "J2"): "hash",
    ("J2", "J3"): "hash",
    ("J3", "J4"): "hash",
    ("J4", "sink"): "forward",
}


class TestExpand:
    def test_vertex_count(self):
        d = w2_logical()
        pdf = expand(d, {o: 3 for o in d.vertices}, W2_STRATEGIES)
        assert len(pdf.dag.vertices) == 18

    def test_worker_names(self):
        d = w2_logical()
        pdf = expand(d, {o: 2 for o in d.vertices}, W2_STRATEGIES)
        assert worker_name("J1", 0) in pdf.dag.vertices
        assert pdf.workers("J1") == ["J1#0", "J1#1"]

    def test_hash_edge_full_bipartite(self):
        d = w2_logical()
        pdf = expand(d, {o: 2 for o in d.vertices}, W2_STRATEGIES)
        assert set(pdf.dag.out_edges("J1#0")) == {"J2#0", "J2#1"}

    def test_forward_edge_index_aligned(self):
        d = w2_logical()
        pdf = expand(d, {o: 2 for o in d.vertices}, W2_STRATEGIES)
        assert pdf.dag.out_edges("J4#0") == ["sink#0"]
        assert pdf.dag.out_edges("J4#1") == ["sink#1"]

    def test_forward_unequal_parallelism_rejected(self):
        d = w2_logical()
        p = {o: 2 for o in d.vertices}
        p["sink"] = 3
        with pytest.raises(ValueError, match="forward"):
            expand(d, p, W2_STRATEGIES)

    def test_invalid_strategy_rejected(self):
        d = w2_logical()
        with pytest.raises(ValueError, match="unknown partitioning"):
            expand(d, {o: 1 for o in d.vertices}, {("src", "J1"): "bogus"})

    def test_zero_parallelism_rejected(self):
        d = w2_logical()
        with pytest.raises(ValueError, match="parallelism"):
            expand(d, {"src": 0}, W2_STRATEGIES)

    def test_broadcast_marks_upstream_one_to_many(self):
        """§7.2: a broadcast edge makes the upstream worker behave like a
        Replicate operator (one-to-many, edge-wise one-to-one). At the
        logical level all copies travel along one edge, so there the
        operator is one-to-many only, even if it was a Replicate."""
        d = DAG.from_edges([("a", "b"), ("b", "c")], edgewise_one_to_one=["b"])
        strategies = {("a", "b"): "broadcast", ("b", "c"): "broadcast"}
        pdf = expand(d, {v: 2 for v in d.vertices}, strategies)
        logical = broadcast_adjusted(d, strategies)
        for v in ("a", "b"):
            w = pdf.dag.op(f"{v}#0")
            assert w.one_to_many and w.edgewise_one_to_one
            assert logical.op(v).one_to_many and not logical.op(v).edgewise_one_to_one
        assert not logical.op("c").one_to_many

    def test_properties_preserved(self):
        d = DAG.from_edges([("a", "b"), ("b", "c")], one_to_many=["b"],
                           unique_per_txn=["c"])
        pdf = expand(d, {v: 2 for v in d.vertices}, {e: "hash" for e in d.edges})
        assert pdf.dag.op("b#1").one_to_many
        assert pdf.dag.op("c#0").unique_per_txn

    def test_map_reconfig(self):
        d = w2_logical()
        pdf = expand(d, {o: 2 for o in d.vertices}, W2_STRATEGIES)
        assert map_reconfig(pdf, {"J1"}) == frozenset({"J1#0", "J1#1"})
        # G*'s worker names are the engine's: 𝓡* is what it reconfigures.
        spec = defs.w2(parallelism=3)
        pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
        sim = Simulator(spec, record="none")
        assert map_reconfig(pdf, {"J1", "J4"}) == sim.reconfig_workers({"J1", "J4"})


def forward_broadcast_spec(*, parallelism: int) -> WorkflowSpec:
    d = DAG.from_edges([("src", "a"), ("a", "b"), ("b", "sink")])
    ops = {
        "src": OpSpec("src", kind="source", parallelism=parallelism, rate=100, n_tuples=4),
        "a": OpSpec("a", parallelism=parallelism),
        "b": OpSpec("b", parallelism=parallelism + 1),
        "sink": OpSpec("sink", kind="sink"),
    }
    edges = {("src", "a"): EdgeSpec("forward"), ("a", "b"): EdgeSpec("broadcast")}
    return WorkflowSpec(dag=d, ops=ops, edges=edges)


@pytest.mark.parametrize(
    "build",
    [defs.w2, defs.w3, defs.w4, defs.w5, forward_broadcast_spec],
    ids=["W2", "W3", "W4", "W5", "forward+broadcast"],
)
@pytest.mark.parametrize("p", [1, 3])
def test_simulator_channels_are_expand_edges(build, p):
    """One description of the worker topology: the simulator's channels
    are G*'s edges, in the same order."""
    spec = build(parallelism=p)
    sim = Simulator(spec, record="none")
    pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
    assert [(ch.src.name, ch.dst.name) for ch in sim.channels] == pdf.dag.edges


class TestChannelCounts:
    def test_n_channels_hash(self):
        d = w2_logical()
        pdf = expand(d, {o: 4 for o in d.vertices}, W2_STRATEGIES)
        assert n_channels(pdf, ("src", "J1")) == 16

    def test_n_channels_forward(self):
        d = w2_logical()
        pdf = expand(d, {o: 4 for o in d.vertices}, W2_STRATEGIES)
        assert n_channels(pdf, ("J4", "sink")) == 4

    @pytest.mark.parametrize(
        "p,total,mcs",
        [(1, 5, 3), (4, 68, 48), (12, 588, 432), (20, 1620, 1200), (40, 6440, 4800)],
    )
    def test_table7_exact(self, p, total, mcs):
        """Table 7 must match the paper exactly — it is a pure graph
        computation."""
        spec = defs.w2(parallelism=p)
        plan = plan_general(effective_logical_dag(spec), {"J1", "J4"})
        pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
        assert channel_counts(pdf, plan) == (total, mcs)

    def test_mcs_channels_leq_total(self):
        for p in (2, 5):
            spec = defs.w3(parallelism=p)
            plan = plan_general(effective_logical_dag(spec), {"J7", "J8"})
            pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
            total, mcs = channel_counts(pdf, plan)
            assert 0 < mcs < total


class TestWorkerLevelPlanning:
    def test_alg4_runs_directly_on_worker_dag(self):
        """§7.2: the Fries scheduler can run on G* with 𝓡* directly."""
        spec = defs.w2(parallelism=3)
        pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
        plan = plan_general(pdf.dag, map_reconfig(pdf, {"J1", "J4"}))
        assert len(plan.component_list) == 1
        comp_ops = {v.rsplit("#", 1)[0] for v in plan.component_list[0].vertices}
        assert comp_ops == {"J1", "J2", "J3", "J4"}

    def test_worker_plan_heads_are_j1_workers(self):
        spec = defs.w2(parallelism=3)
        pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
        plan = plan_general(pdf.dag, map_reconfig(pdf, {"J1", "J4"}))
        assert set(plan.heads[0]) == {"J1#0", "J1#1", "J1#2"}
