"""Tests for the §4.2 transactional model (scope, transactions, conflicts)."""
from repro.core.transactions import (
    DataOp,
    Schedule,
    UpdateOp,
    conflicting,
    data_transaction,
    function_update_transaction,
    scope,
)


class TestScope:
    def test_linear_scope(self):
        # t -> t1 -> t2 (FC -> FM -> MC processing chain).
        emissions = {"t": ["t1"], "t1": ["t2"], "t2": []}
        s, order = scope(emissions, "t")
        assert s == {"t", "t1", "t2"}
        assert order == {("t", "t1"), ("t1", "t2")}

    def test_fanout_scope(self):
        # Figure 8: t1 joins into t2, t3, t4.
        emissions = {"t1": ["t2", "t3", "t4"]}
        s, order = scope(emissions, "t1")
        assert s == {"t1", "t2", "t3", "t4"}
        assert order == {("t1", "t2"), ("t1", "t3"), ("t1", "t4")}

    def test_source_only(self):
        s, order = scope({}, "t")
        assert s == {"t"} and order == set()


class TestDataTransaction:
    def test_paper_t1(self):
        """§4.2: T1 = [φ(t,FC), φ(t',FM), φ(t'',MC)] for the chain."""
        emissions = {"t": ["t1"], "t1": ["t2"], "t2": []}
        receiver = {"t": "FC", "t1": "FM", "t2": "MC"}
        ops = data_transaction(emissions, receiver, "t", txn=1)
        assert [o.operator for o in ops] == ["FC", "FM", "MC"]
        assert all(o.txn == 1 for o in ops)

    def test_fanout_transaction_contains_all(self):
        emissions = {"t": ["a", "b"]}
        receiver = {"t": "J", "a": "X", "b": "Y"}
        ops = data_transaction(emissions, receiver, "t", txn=7)
        assert {o.operator for o in ops} == {"J", "X", "Y"}
        assert ops[0].operator == "J"  # topological: parent first

    def test_function_update_transaction(self):
        u = function_update_transaction({"FM", "MC"})
        assert u == {UpdateOp("FM"), UpdateOp("MC")}


class TestConflicts:
    def test_conflicting_same_operator(self):
        assert conflicting(DataOp(1, "FM"), UpdateOp("FM"))
        assert conflicting(UpdateOp("FM"), DataOp(1, "FM"))

    def test_not_conflicting_different_operator(self):
        assert not conflicting(DataOp(1, "FC"), UpdateOp("FM"))

    def test_data_data_never_conflict(self):
        assert not conflicting(DataOp(1, "FM"), DataOp(2, "FM"))

    def test_update_update_never_conflict(self):
        assert not conflicting(UpdateOp("FM"), UpdateOp("FM"))


class TestSchedule:
    def test_record_and_group(self):
        s = Schedule()
        s.record_data(1, "FC")
        s.record_update("FM")
        s.record_data(1, "FM")
        txns = s.transactions()
        assert len(txns[1]) == 2
        assert len(txns[-1]) == 1
        assert len(s) == 3

    def test_iteration_order(self):
        s = Schedule()
        s.record_data(1, "a")
        s.record_update("b")
        kinds = [type(o).__name__ for o in s]
        assert kinds == ["DataOp", "UpdateOp"]
