"""§4.2 — the transactional model of a reconfiguration.

* A **data operation** φ(t, o) is the processing of tuple ``t`` by operator
  (or worker) ``o`` (Def 4.3). All tuples derived from one source tuple
  share the source tuple's transaction id: the set of their data operations
  is the **data transaction** of that source tuple (Defs 4.2/4.4).
* A **function-update operation** μ(o) is operator ``o`` switching to its
  new configuration; the set of all μ's of one reconfiguration is the
  **function-update transaction** (Def 4.5).
* φ(t, o) and μ(o′) conflict iff o == o′ (Def 4.6).

A :class:`Schedule` records the (total) order in which a run performed
these operations (a :class:`ColumnSchedule` reads it from recorded
columns); :mod:`repro.core.serializability` checks conflict-serializability
of a recorded schedule.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union


@dataclass(frozen=True)
class DataOp:
    """φ(tuple, operator) belonging to data transaction ``txn``."""

    txn: int
    operator: str
    tuple_id: str = ""


@dataclass(frozen=True)
class UpdateOp:
    """μ(operator) — part of the single function-update transaction."""

    operator: str


Operation = Union[DataOp, UpdateOp]

UPDATE_TXN = -1  # sentinel transaction id for the function-update transaction


def txn_of(op: Operation) -> int:
    return UPDATE_TXN if isinstance(op, UpdateOp) else op.txn


def conflicting(a: Operation, b: Operation) -> bool:
    """Def 4.6 — a data op and an update op conflict iff same operator.
    Two data ops never conflict; two update ops never conflict."""
    if isinstance(a, DataOp) == isinstance(b, DataOp):
        return False
    return a.operator == b.operator


class Schedule:
    """An ordered record of operations, as produced by a run.

    The checker reads it through :meth:`columns`; :class:`ColumnSchedule`
    holds a run's recorded columns and serves them as they are."""

    def __init__(self, ops: Iterable[Operation] = ()) -> None:
        self.ops: list[Operation] = list(ops)

    def record_data(self, txn: int, operator: str) -> None:
        self.ops.append(DataOp(txn, operator))

    def record_update(self, operator: str) -> None:
        self.ops.append(UpdateOp(operator))

    def columns(self) -> tuple[Sequence[str], Sequence[int], Sequence[int]]:
        """The schedule as :class:`ColumnSchedule`'s ``(names, operators,
        txns)``: each operator name once, in order of first appearance,
        then per operation the index of its name (an ``array('H')``) and
        its txn (an ``array('q')``, ``UPDATE_TXN`` for a μ)."""
        ids: dict[str, int] = {}
        operators = array("H", (ids.setdefault(op.operator, len(ids)) for op in self.ops))
        return list(ids), operators, array("q", map(txn_of, self.ops))

    def transactions(self) -> dict[int, list[Operation]]:
        """Group operations by transaction, preserving schedule order."""
        out: dict[int, list[Operation]] = {}
        for op in self:
            out.setdefault(txn_of(op), []).append(op)
        return out

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)


class ColumnSchedule(Schedule):
    """A read-only schedule stored as two columns: the i-th operation runs
    on operator ``names[operators[i]]`` in transaction ``txns[i]``
    (``UPDATE_TXN`` for a μ). :meth:`columns` returns the columns
    themselves; iterating builds each operation only as it is reached."""

    def __init__(self, names: Sequence[str], operators: Sequence[int], txns: Sequence[int]) -> None:
        self.names, self.operators, self.txns = names, operators, txns

    def columns(self) -> tuple[Sequence[str], Sequence[int], Sequence[int]]:
        return self.names, self.operators, self.txns

    def __len__(self) -> int:
        return len(self.txns)

    def __iter__(self) -> Iterator[Operation]:
        for operator, txn in zip(map(self.names.__getitem__, self.operators), self.txns):
            yield UpdateOp(operator) if txn == UPDATE_TXN else DataOp(txn, operator)


def scope(
    emissions: dict[str, list[str]],
    source_tuple: str,
) -> tuple[set[str], set[tuple[str, str]]]:
    """Def 4.2 — the scope (S, ≤_S) of a source tuple.

    ``emissions[t]`` lists the tuples produced when ``t`` was processed.
    Returns the tuple set S and the covering relation of ≤_S (parent-child
    pairs); the partial order is its transitive closure.
    """
    s: set[str] = {source_tuple}
    order: set[tuple[str, str]] = set()
    stack = [source_tuple]
    while stack:
        t = stack.pop()
        for child in emissions.get(t, []):
            order.add((t, child))
            if child not in s:
                s.add(child)
                stack.append(child)
    return s, order


def data_transaction(
    emissions: dict[str, list[str]],
    receiver: dict[str, str],
    source_tuple: str,
    txn: int,
) -> list[DataOp]:
    """Def 4.4 — the data operations of the scope of ``source_tuple``,
    listed in a topological order of ≤_S. ``receiver[t]`` names the
    operator that processes tuple ``t``."""
    s, order = scope(emissions, source_tuple)
    children: dict[str, list[str]] = {}
    indeg = {t: 0 for t in s}
    for a, b in order:
        children.setdefault(a, []).append(b)
        indeg[b] += 1
    out: list[DataOp] = []
    stack = [t for t in s if indeg[t] == 0]
    while stack:
        t = stack.pop()
        if t in receiver:
            out.append(DataOp(txn, receiver[t], t))
        for c in children.get(t, []):
            indeg[c] -= 1
            if indeg[c] == 0:
                stack.append(c)
    return out


def function_update_transaction(reconfig_ops: Iterable[str]) -> set[UpdateOp]:
    """Def 4.5 — one μ per reconfiguration operator (order irrelevant)."""
    return {UpdateOp(o) for o in reconfig_ops}
