"""Conflict-serializability checking of recorded schedules (Defs 4.7–4.9).

The schedules this paper considers contain exactly one function-update
transaction plus many data transactions, and the only conflicts are
between a data operation φ(t, o) and an update operation μ(o) on the same
operator (Def 4.6). The precedence graph is therefore a star around the
update transaction U: a cycle exists iff some data transaction T has a
conflicting operation *before* one of U's μ's and another *after* — i.e.
the transaction observed both old and new configurations on reconfigured
operators. ``check`` exploits this, reading only each operation's operator and
transaction; ``check_brute_force`` is the permutation-based reference used
in tests (Def 4.9 applied literally).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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

    Reads ``schedule.pairs()``, so a :class:`ColumnSchedule` is checked in
    place: one scan collects the operators with a μ, one pass classifies
    every data operation on them as before or after that μ."""
    reconfig_ops = {o for o, t in schedule.pairs() if t == UPDATE_TXN}
    updated: set[str] = set()  # operators whose μ has appeared so far
    before: dict[int, str] = {}  # txn -> an op it touched pre-μ (conflicting)
    after: dict[int, str] = {}  # txn -> an op it touched post-μ
    violations: list[tuple[int, str, str]] = []
    flagged: set[int] = set()
    for o, t in schedule.pairs():
        if t == UPDATE_TXN:
            updated.add(o)
        elif o in reconfig_ops:
            if o in updated:
                after.setdefault(t, o)
            else:
                before.setdefault(t, o)
            if t in before and t in after and t not in flagged:
                flagged.add(t)
                violations.append((t, before[t], after[t]))
    return Verdict(serializable=not violations, violations=tuple(violations))


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
