"""Tests for conflict-serializability checking (Defs 4.7–4.9), including
the paper's worked schedules S1–S5, and ``check`` against the dict-based
checker it replaced on random schedules given as operations and as
columns."""
import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serializability import (
    Verdict,
    check,
    check_brute_force,
    mixed_version_transactions,
)
from repro.core.transactions import UPDATE_TXN, ColumnSchedule, DataOp, Schedule, UpdateOp, txn_of


def sched(*ops) -> Schedule:
    """ops: ('d', txn, op) for data, ('u', op) for update."""
    s = Schedule()
    for o in ops:
        if o[0] == "d":
            s.record_data(o[1], o[2])
        else:
            s.record_update(o[1])
    return s


class TestPaperSchedules:
    def test_s1_serializable(self):
        """S1 = [φ(t,FC), μ(FM), φ(t,FM), μ(MC), φ(t,MC)] — serializable."""
        s = sched(("d", 1, "FC"), ("u", "FM"), ("d", 1, "FM"), ("u", "MC"), ("d", 1, "MC"))
        assert check(s).serializable
        assert check_brute_force(s)

    def test_s2_serial(self):
        s = sched(("u", "FM"), ("u", "MC"), ("d", 1, "FC"), ("d", 1, "FM"), ("d", 1, "MC"))
        assert check(s).serializable

    def test_s3_not_serializable(self):
        """S3 = [φ(t,FC), φ(t,FM), μ(FM), μ(MC), φ(t,MC)] — the naive FCM
        anomaly."""
        s = sched(("d", 1, "FC"), ("d", 1, "FM"), ("u", "FM"), ("u", "MC"), ("d", 1, "MC"))
        v = check(s)
        assert not v.serializable
        assert v.violations == ((1, "FM", "MC"),)
        assert not check_brute_force(s)

    def test_s4_serializable(self):
        """Example 5.3: S4 over the split dataflow is serializable."""
        s = sched(
            ("d", 3, "X"), ("u", "C"), ("d", 3, "C"),
            ("d", 4, "X"), ("u", "D"), ("d", 4, "D"),
        )
        assert check(s).serializable
        assert check_brute_force(s)

    def test_s5_not_serializable(self):
        """§6.1: μ(FMX) lands between two same-transaction tuples at FMX."""
        s = sched(
            ("d", 5, "FC"), ("d", 5, "J"), ("d", 5, "SP"), ("d", 5, "SP"), ("d", 5, "SP"),
            ("d", 5, "FMX"), ("u", "FMX"), ("d", 5, "FMX"), ("d", 5, "FMY"),
            ("d", 5, "U"), ("d", 5, "U"), ("d", 5, "U"),
        )
        v = check(s)
        assert not v.serializable
        assert not check_brute_force(s)


class TestChecker:
    def test_empty_schedule(self):
        assert check(Schedule()).serializable

    def test_no_update_always_serializable(self):
        s = sched(("d", 1, "A"), ("d", 2, "A"), ("d", 1, "B"))
        assert check(s).serializable

    def test_ops_on_non_reconfig_operators_ignored(self):
        # FC is not reconfigured: its position relative to μ doesn't matter.
        s = sched(("d", 1, "FM"), ("u", "FM"), ("d", 1, "FC"))
        assert check(s).serializable

    def test_two_txns_one_violating(self):
        s = sched(
            ("d", 1, "FM"), ("d", 2, "FM"), ("u", "FM"), ("u", "MC"),
            ("d", 2, "MC"), ("d", 1, "MC"),
        )
        v = check(s)
        assert not v.serializable
        assert mixed_version_transactions(s) == {1, 2}

    def test_after_only_txn_fine(self):
        s = sched(("u", "FM"), ("u", "MC"), ("d", 1, "FM"), ("d", 1, "MC"))
        assert check(s).serializable

    def test_multiple_same_op_visits_before(self):
        # A txn touching a reconfig op twice before μ: fine.
        s = sched(("d", 1, "FM"), ("d", 1, "FM"), ("u", "FM"))
        assert check(s).serializable

    def test_split_across_same_operator(self):
        # Same txn at same op before AND after μ — violation.
        s = sched(("d", 1, "FM"), ("u", "FM"), ("d", 1, "FM"))
        assert not check(s).serializable


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), n_ops=st.integers(1, 12))
def test_check_matches_brute_force(seed, n_ops):
    """The linear-time checker agrees with the Def-4.9 permutation oracle
    on random schedules with one update transaction."""
    rng = random.Random(seed)
    operators = ["P", "Q", "R"]
    reconfig = ["P", "Q"]
    s = Schedule()
    updates_left = list(reconfig)
    for _ in range(n_ops):
        if updates_left and rng.random() < 0.3:
            s.record_update(updates_left.pop())
        else:
            s.record_data(rng.randint(1, 3), rng.choice(operators))
    for u in updates_left:
        s.record_update(u)
    assert check(s).serializable == check_brute_force(s)


def reference_check(schedule: Schedule) -> Verdict:
    """The dict-based checker that ``check`` replaced, kept as its
    reference: one scan collects the operators with a μ, one pass
    classifies every data operation on them as before or after that
    operator's first μ, with the per-txn facts in dicts and a set."""
    pairs = [(op.operator, txn_of(op)) for op in schedule]
    reconfig_ops = {o for o, t in pairs if t == UPDATE_TXN}
    updated: set[str] = set()  # operators whose μ has appeared so far
    before: dict[int, str] = {}  # txn -> an op it touched pre-μ (conflicting)
    after: dict[int, str] = {}  # txn -> an op it touched post-μ
    violations: list[tuple[int, str, str]] = []
    flagged: set[int] = set()
    for o, t in pairs:
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


def random_schedule(rng: random.Random) -> tuple[Schedule, ColumnSchedule]:
    """One random schedule as operations and as columns. Of up to six
    operators, some get one or more μ's and the others none; up to six
    transactions visit operators, one operator often more than once. The
    txn ids are small, or half the time mixed with ids near both ends of
    the signed 64-bit range. The columns name one operator that no
    operation uses, and list the names in another order."""
    names = rng.sample("ABCDEF", rng.randint(1, 6))
    updated = rng.sample(names, rng.randint(0, len(names)))
    txns = [rng.randrange(8) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        txns += [rng.randrange(2**40, 2**63), -rng.randrange(2, 2**63)]
    ops = [
        UpdateOp(rng.choice(updated)) if updated and rng.random() < 0.2
        else DataOp(rng.choice(txns), rng.choice(names))
        for _ in range(rng.randint(0, 40))
    ]
    column_names = rng.sample(names, len(names)) + ["Z"]
    columns = ColumnSchedule(
        column_names,
        array("H", [column_names.index(op.operator) for op in ops]),
        array("q", map(txn_of, ops)),
    )
    return Schedule(ops), columns


def _matches_reference(rng: random.Random) -> Verdict:
    schedule, columns = random_schedule(rng)
    verdict = reference_check(schedule)
    assert check(schedule) == verdict
    assert check(columns) == verdict
    assert reference_check(columns) == verdict
    return verdict


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_check_matches_reference_on_random_schedules(rng):
    """``check`` gives the reference's verdict and violation list, order
    included, on random schedules with repeated μ's on one operator, data
    operations on operators with no μ, repeated visits of one txn to one
    operator, and sparse, large and negative txn ids, both as operations
    and as columns."""
    _matches_reference(rng)


def test_random_schedules_hold_violations():
    """The random schedules the property draws are not vacuous: many have
    violations, some several, and some of those have large or negative
    txn ids."""
    verdicts = [_matches_reference(random.Random(seed)) for seed in range(400)]
    violating = [v for v in verdicts if not v.serializable]
    assert len(violating) > 40
    assert sum(len(v.violations) > 1 for v in violating) > 10
    assert any(not 0 <= t < 8 for v in violating for t, _, _ in v.violations)
