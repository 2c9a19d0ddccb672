"""Conflict-serializability checking of recorded schedules (Defs 4.7–4.9).

The schedules this paper considers contain exactly one function-update
transaction plus many data transactions, and the only conflicts are
between a data operation φ(t, o) and an update operation μ(o) on the same
operator (Def 4.6). The precedence graph is therefore a star around the
update transaction U: a cycle exists iff some data transaction T has a
conflicting operation *before* one of U's μ's and another *after* — i.e.
the transaction observed both old and new configurations on reconfigured
operators. ``check`` exploits this in one pass over the schedule's
``(operator id, txn)`` columns (:meth:`Schedule.columns`; a recorded
:class:`ColumnSchedule` is read in place). Its only per-transaction state is
two ``array('H')`` indexed by txn, each holding the id + 1 of the first
reconfigured operator the txn touched before (after) that operator's μ:
about 4 bytes per transaction, where dicts and a set of Python objects cost
about 59. Txn ids outside ``[0, len(schedule))`` (sparse, large or negative
ids) are renumbered first, so no state is sized by a large id.
``check_brute_force`` is the permutation-based reference used in tests
(Def 4.9 applied literally).
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, permutations
from typing import Iterator, Sequence

from .transactions import (
    UPDATE_TXN,
    DataOp,
    Schedule,
    conflicting,
    txn_of,
)


@dataclass(frozen=True)
class Verdict:
    """Result of a serializability check.

    ``violations`` lists (txn, operator_before, operator_after): data
    transaction ``txn`` hit operator ``operator_before`` pre-update and
    operator ``operator_after`` post-update.
    """

    serializable: bool
    violations: tuple[tuple[int, str, str], ...] = ()


def check(schedule: Schedule) -> Verdict:
    """Linear-time conflict-serializability check for one update txn.

    A violation ``(txn, before, after)`` is reported at the operation that
    gives ``txn`` both a reconfigured operator it touched before that
    operator's μ and one it touched after; ``before`` and ``after`` are the
    first such operators in schedule order."""
    names, operators, txns = schedule.columns()
    updated_ops = {operators[i] for i in _positions(txns, UPDATE_TXN)}
    if not updated_ops:
        return Verdict(serializable=True)
    violations = _first_mixed(names, operators, txns, updated_ops)
    if violations is None:
        ids: dict[int, int] = {}
        dense = array("q", (t if t == UPDATE_TXN else ids.setdefault(t, len(ids)) for t in txns))
        txn_ids = list(ids)
        violations = [(txn_ids[t], b, a) for t, b, a in _first_mixed(names, operators, dense, updated_ops)]
    return Verdict(serializable=not violations, violations=tuple(violations))


def _positions(column: Sequence[int], value: int) -> Iterator[int]:
    """The indices at which ``column`` holds ``value``, each found by a
    scan in C."""
    i = -1
    while True:
        try:
            i = column.index(value, i + 1)
        except ValueError:
            return
        yield i


def _first_mixed(names: Sequence[str], operators: Sequence[int], txns: Sequence[int],
                 updated_ops: set[int]) -> list[tuple[int, str, str]] | None:
    """``check``'s violations over columns whose data txn ids lie in
    ``[0, len(txns))``; ``None`` if one does not. Only operations on
    ``updated_ops`` reach the loop body. ``before[t]`` (``after[t]``) is
    the id + 1 of the first operator ``t`` touched before (after) its μ,
    0 for none; both arrays grow by doubling up to the highest txn id."""
    selected = bytearray(len(names))
    for o in updated_ops:
        selected[o] = 1
    updated = bytearray(len(names))  # operators whose μ has appeared so far
    before, after = array("H"), array("H")
    size, limit = 0, len(txns)
    violations: list[tuple[int, str, str]] = []
    for o, t in compress(zip(operators, txns), map(selected.__getitem__, operators)):
        if t == UPDATE_TXN:
            updated[o] = 1
            continue
        if not 0 <= t < size:
            if not 0 <= t < limit:
                return None
            zeros = array("H", [0]) * (min(max(t + 1, 2 * size), limit) - size)
            before.extend(zeros)
            after.extend(zeros)
            size = len(before)
        if updated[o]:
            if not after[t]:
                after[t] = o + 1
                if before[t]:
                    violations.append((t, names[before[t] - 1], names[o]))
        elif not before[t]:
            before[t] = o + 1
            if after[t]:
                violations.append((t, names[o], names[after[t] - 1]))
    return violations


def check_brute_force(schedule: Schedule) -> bool:
    """Def 4.9 literally: try every serial order of the transactions and
    test conflict-equivalence (Def 4.8). Exponential — tests only."""
    txns = list(schedule.transactions())
    ops = list(schedule)
    # Pairwise conflict orders observed in the schedule.
    observed: set[tuple[int, int, str]] = set()
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if conflicting(a, b):
                observed.add((txn_of(a), txn_of(b), a.operator if isinstance(a, DataOp) else b.operator))
    for perm in permutations(txns):
        pos = {t: i for i, t in enumerate(perm)}
        if all(pos[ta] < pos[tb] for ta, tb, _ in observed):
            return True
    return False


def mixed_version_transactions(schedule: Schedule) -> set[int]:
    """Transactions processed under both configurations — the observable
    anomaly (schema mismatch etc.) behind non-serializability."""
    return {t for t, _, _ in check(schedule).violations}
