"""Unit tests for repro.core.dag — the operator DAG model."""
import pytest

from repro.core.dag import DAG, Operator, SubDAG


def fig5_dag() -> DAG:
    # Figure 5/7: A->C->{D,E}->F->H, B->G->H.
    return DAG.from_edges(
        [("A", "C"), ("B", "G"), ("C", "D"), ("C", "E"), ("D", "F"), ("E", "F"),
         ("F", "H"), ("G", "H")]
    )


class TestConstruction:
    def test_add_operator_and_edge(self):
        d = DAG()
        d.add_operator("a")
        d.add_operator("b")
        d.add_edge("a", "b")
        assert d.vertices == ["a", "b"]
        assert d.edges == [("a", "b")]

    def test_duplicate_operator_rejected(self):
        d = DAG()
        d.add_operator("a")
        with pytest.raises(ValueError, match="duplicate operator"):
            d.add_operator("a")

    def test_duplicate_edge_rejected(self):
        d = DAG()
        d.add_operator("a")
        d.add_operator("b")
        d.add_edge("a", "b")
        with pytest.raises(ValueError, match="duplicate edge"):
            d.add_edge("a", "b")

    def test_edge_to_unknown_vertex_rejected(self):
        d = DAG()
        d.add_operator("a")
        with pytest.raises(KeyError):
            d.add_edge("a", "zz")

    def test_from_edges_flags(self):
        d = DAG.from_edges(
            [("s", "j"), ("j", "k")],
            one_to_many=["j"],
            unique_per_txn=["k"],
        )
        assert d.op("j").one_to_many
        assert d.op("k").unique_per_txn
        assert not d.op("s").one_to_many

    def test_edgewise_one_to_one_implies_one_to_many(self):
        d = DAG.from_edges([("s", "re"), ("re", "a")], edgewise_one_to_one=["re"])
        assert d.op("re").one_to_many
        assert d.op("re").edgewise_one_to_one

    def test_sources_default_to_no_in_edges(self):
        d = fig5_dag()
        assert set(d.sources()) == {"A", "B"}

    def test_sinks(self):
        d = fig5_dag()
        assert set(d.sinks()) == {"H"}

    def test_contains(self):
        d = fig5_dag()
        assert "A" in d and "Z" not in d


class TestAlgorithms:
    def test_topological_order_valid(self):
        d = fig5_dag()
        order = d.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for a, b in d.edges:
            assert pos[a] < pos[b]

    def test_cycle_detection(self):
        d = DAG()
        for v in "abc":
            d.add_operator(v)
        d.add_edge("a", "b")
        d.add_edge("b", "c")
        d.add_edge("c", "a")
        with pytest.raises(ValueError, match="cycle"):
            d.topological_order()

    def test_ancestors(self):
        d = fig5_dag()
        assert d.ancestors("F") == {"A", "C", "D", "E"}
        assert d.ancestors("A") == set()
        assert d.ancestors("H") == {"A", "B", "C", "D", "E", "F", "G"}

    def test_descendants(self):
        d = fig5_dag()
        assert d.descendants("C") == {"D", "E", "F", "H"}
        assert d.descendants("H") == set()

    def test_has_path(self):
        d = fig5_dag()
        assert d.has_path("A", "H")
        assert d.has_path("C", "C")
        assert not d.has_path("G", "F")

    def test_paths_enumeration(self):
        d = fig5_dag()
        paths = d.paths("C", "F")
        assert sorted(paths) == [["C", "D", "F"], ["C", "E", "F"]]
        assert d.paths("G", "F") == []

    def test_longest_path_edges_whole_dag(self):
        d = fig5_dag()
        # A->C->D->F->H has 4 edges.
        assert d.longest_path_edges() == 4

    def test_longest_path_edges_subset(self):
        d = fig5_dag()
        assert d.longest_path_edges({"C", "D", "F"}) == 2
        assert d.longest_path_edges({"C", "G"}) == 0
        assert d.longest_path_edges(set()) == 0

    def test_induced_edges(self):
        d = fig5_dag()
        assert set(d.induced_edges({"C", "D", "F"})) == {("C", "D"), ("D", "F")}

    def test_subdag_induced(self):
        d = fig5_dag()
        s = SubDAG.induced(d, ["C", "D", "E", "F"])
        assert s.vertices == frozenset({"C", "D", "E", "F"})
        assert ("C", "D") in s.edges and ("A", "C") not in s.edges
        assert "C" in s and "A" not in s
