"""Tests for the W1–W5 engine specs (topology, flags, parameters)."""
import hashlib

import pytest

from repro.engine import Simulator
from repro.engine.schedulers import effective_logical_dag
from repro.workflows import defs


class TestW1:
    def test_topology(self):
        s = defs.w1(parallelism=2)
        assert set(s.dag.edges) == {("src", "FD"), ("FD", "sink")}

    def test_model_swap_costs_decrease(self):
        s = defs.w1()
        fd = s.ops["FD"]
        assert fd.cost[1] > fd.cost[2] > fd.cost[3]

    def test_rate_schedule(self):
        s = defs.w1(rate=1000, rate_schedule=[(0, 1000), (100, 2000)])
        assert s.ops["src"].rate_at(50) == 1000
        assert s.ops["src"].rate_at(150) == 2000


class TestW2:
    def test_pipelined_edge_structure(self):
        """4 shuffle edges + 1 chained edge — pinned by Table 7."""
        s = defs.w2(parallelism=2)
        strategies = s.strategies()
        assert sum(1 for v in strategies.values() if v == "hash") == 4
        assert strategies[("J4", "sink")] == "forward"

    def test_total_rate_split_across_workers(self):
        s = defs.w2(parallelism=4, rate=8000)
        assert s.ops["src"].rate == pytest.approx(2000)

    def test_joins_one_to_one(self):
        s = defs.w2()
        for j in ("J1", "J2", "J3", "J4"):
            assert not effective_logical_dag(s).op(j).one_to_many
            assert s.ops[j].fanout == 1

    def test_source_buffer_deeper_than_interior(self):
        s = defs.w2()
        assert s.edge_spec(("src", "J1")).capacity > s.edge_spec(("J1", "J2")).capacity

    def test_builds_simulator(self):
        Simulator(defs.w2(parallelism=2, n_tuples=10))


class TestW3:
    def test_three_channels_union(self):
        s = defs.w3(parallelism=2)
        assert set(s.dag.in_edges("U1")) == {"J5", "J6", "J7"}
        assert s.dag.out_edges("U1") == ["J8"]

    def test_store_channel_fastest(self):
        s = defs.w3(parallelism=2, rate=4000)
        assert s.ops["src_ss"].rate > s.ops["src_cs"].rate > s.ops["src_ws"].rate

    def test_builds_simulator(self):
        Simulator(defs.w3(parallelism=2, n_tuples=10))


class TestW4:
    def test_unnest_is_one_to_many(self):
        s = defs.w4()
        assert effective_logical_dag(s).op("U2").one_to_many
        assert s.ops["U2"].fanout > 1

    def test_chain_order(self):
        s = defs.w4()
        assert s.dag.topological_order() == ["src", "F1", "U2", "FD1", "FD2", "F2", "sink"]

    def test_inference_channels_deep(self):
        s = defs.w4()
        assert s.edge_spec(("U2", "FD1")).capacity > s.edge_spec(("F1", "U2")).capacity

    def test_fd2_heavier_than_fd1(self):
        s = defs.w4()
        assert s.ops["FD2"].cost[1] > s.ops["FD1"].cost[1]

    def test_builds_simulator(self):
        Simulator(defs.w4(parallelism=2, n_tuples=10))


class TestW5:
    def test_replicate_flags(self):
        s = defs.w5()
        re = effective_logical_dag(s).op("RE")
        assert re.one_to_many and re.edgewise_one_to_one

    def test_selfjoin_flags(self):
        s = defs.w5()
        assert effective_logical_dag(s).op("SJ").unique_per_txn
        assert s.ops["SJ"].kind == "selfjoin" and s.ops["SJ"].arity == 2

    def test_two_branches_into_sj(self):
        s = defs.w5()
        assert set(s.dag.in_edges("SJ")) == {"F3", "FD4"}

    def test_fd4_has_straggler(self):
        s = defs.w5()
        assert s.ops["FD4"].straggler.get(0, 1.0) > 1.0

    def test_builds_simulator(self):
        Simulator(defs.w5(parallelism=2, n_tuples=10))


# sha1 of each spec's full repr, so any change to a calibrated value shows.
# The first five are the builders' defaults; the rest are the specs that
# perfbench and the Table 4-7 runners build.
SPEC_FINGERPRINTS = {
    "w1": (defs.w1, {}, "57ac9075fdfac868f5cfb288bb0c64cb504ec01e"),
    "w2": (defs.w2, {}, "6e756ee7b9150e70f65fce292e2ed5b22e3f3be6"),
    "w3": (defs.w3, {}, "bc586104ea86add00d615223ff35ebb2ac94183c"),
    "w4": (defs.w4, {}, "46b1a060a70c40ff15aa1d2f35b11422060775c8"),
    "w5": (defs.w5, {}, "fca938ac2303e4928c1aea9d7795b48ab6e1d31f"),
    "w2-p4": (defs.w2, dict(parallelism=4, rate=8000.0),
              "6e756ee7b9150e70f65fce292e2ed5b22e3f3be6"),
    "w3-p4": (defs.w3, dict(parallelism=4, rate=6000.0),
              "bc586104ea86add00d615223ff35ebb2ac94183c"),
    "w2-p40": (defs.w2, dict(parallelism=40, rate=8000.0),
               "df99ddf6459f24f31f3a6c44207d614cdbc5be9e"),
    "w4-p4": (defs.w4, dict(parallelism=4, rate=40.0, fanout=12),
              "46b1a060a70c40ff15aa1d2f35b11422060775c8"),
    "w5-p4": (defs.w5, dict(parallelism=4, rate=300.0),
              "fca938ac2303e4928c1aea9d7795b48ab6e1d31f"),
}


@pytest.mark.parametrize("name", SPEC_FINGERPRINTS)
def test_spec_fingerprint(name):
    build, kwargs, sha1 = SPEC_FINGERPRINTS[name]
    spec = build(**kwargs)
    dag = effective_logical_dag(spec)
    state = (dag.edges, [dag.op(v) for v in spec.dag.vertices], spec.ops, spec.edges,
             spec.fcm_latency, spec.seed)
    assert hashlib.sha1(repr(state).encode()).hexdigest() == sha1


class TestOpSpecBehaviour:
    def test_cost_fallback_to_lower_version(self):
        from repro.engine.workload import OpSpec

        op = OpSpec("x", cost={1: 0.5})
        assert op.cost_at(2, 0) == 0.5  # version 2 falls back to v1 cost

    def test_straggler_multiplier(self):
        from repro.engine.workload import OpSpec

        op = OpSpec("x", cost={1: 0.5}, straggler={1: 2.0})
        assert op.cost_at(1, 1) == 1.0
        assert op.cost_at(1, 0) == 0.5

    def test_unknown_kind_rejected(self):
        from repro.engine.workload import OpSpec

        with pytest.raises(ValueError):
            OpSpec("x", kind="teleport")

    def test_missing_opspec_rejected(self):
        from repro.core.dag import DAG
        from repro.engine.workload import WorkflowSpec

        with pytest.raises(ValueError, match="no OpSpec"):
            WorkflowSpec(dag=DAG.from_edges([("a", "b")]), ops={})

    def test_opspec_name_must_match_key(self):
        from repro.core.dag import DAG
        from repro.engine.workload import OpSpec, WorkflowSpec

        ops = {"src": OpSpec("src", kind="source"), "A": OpSpec("X")}
        with pytest.raises(ValueError, match="keyed as 'A'"):
            WorkflowSpec(dag=DAG.from_edges([("src", "A")]), ops=ops)

    def test_edgespec_off_the_dag_rejected(self):
        from repro.core.dag import DAG
        from repro.engine.workload import EdgeSpec, OpSpec, WorkflowSpec

        dag = DAG.from_edges([("src", "A"), ("A", "B")])
        ops = {"src": OpSpec("src", kind="source"), "A": OpSpec("A"), "B": OpSpec("B")}
        with pytest.raises(ValueError, match="not DAG edges"):
            WorkflowSpec(dag=dag, ops=ops, edges={("src", "B"): EdgeSpec(capacity=5)})

    def test_keydist_zipf_skewed(self):
        import random

        from repro.engine.workload import KeyDist

        d = KeyDist.zipf(100, alpha=1.2)
        rng = random.Random(0)
        samples = [d.sample(rng) for _ in range(2000)]
        top = sum(1 for s in samples if s == 0)
        assert top > 200  # rank-1 key dominates
