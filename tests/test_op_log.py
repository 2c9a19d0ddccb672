"""The recorded operation log: typed columns, a checker that reads them in
place, and what the benchmark reads of them.

``Simulator.op_log`` stores one entry per operation in four typed columns,
and ``schedule_log`` is a §4.2 schedule view over them. The tests here
compare that view with a schedule of ``DataOp``/``UpdateOp`` built from the
log's rows, bound the memory per row of ``op_log`` and ``sink_log``, the
checker's memory per transaction and the memory per channel of a built
simulator, and run the benchmark command that checks recorded schedules.
"""
import gc
import math
import pathlib
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest

from repro.core.serializability import check, check_brute_force
from repro.core.transactions import UPDATE_TXN, ColumnSchedule, DataOp, Schedule, UpdateOp
from repro.engine import (
    DataMsg,
    EpochScheduler,
    FriesScheduler,
    MultiVersionScheduler,
    NaiveFCMScheduler,
    Simulator,
)
from repro.workflows import defs

from .test_engine_basics import _halt_case_run
from .test_engine_golden import chain_run
from .test_engine_schedulers import _random_chain_spec
from .test_experiments import HALT_CASES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def row_schedule(sim: Simulator) -> Schedule:
    """A schedule of operation objects built from ``op_log``'s rows."""
    return Schedule([
        UpdateOp(w) if txn == UPDATE_TXN else DataOp(txn, w)
        for _, w, txn, _ in list(sim.op_log)
    ])


def assert_checks_agree(sim: Simulator) -> bool:
    view, rows = sim.schedule_log, row_schedule(sim)
    verdict = check(view)
    assert verdict == check(rows)
    assert len(view) == len(rows) == len(sim.op_log)
    return verdict.serializable


@pytest.mark.parametrize("action", ["fries", "ebr", "naive", "checkpoint+fries"])
def test_view_check_matches_row_schedule_on_random_specs(action):
    """On the random pipelines, checking ``schedule_log`` in place gives the
    verdict and violation list of a schedule built from the rows."""
    verdicts = [assert_checks_agree(chain_run(action, seed)) for seed in range(12)]
    # Naive runs must include violations, or a view that drops μ rows
    # would agree vacuously.
    assert all(verdicts) == (action != "naive")


@pytest.mark.parametrize("wf", sorted(HALT_CASES))
def test_view_check_matches_row_schedule_on_workflows(wf, monkeypatch):
    """The same on W2 and W4 at p=2, recorded to ``t_max``; the
    multi-version delay also equals a scan of every row's."""
    for make in (FriesScheduler, EpochScheduler, MultiVersionScheduler):
        sim, delay = _halt_case_run(Simulator, wf, make, False, monkeypatch)
        assert math.isfinite(delay)
        assert assert_checks_agree(sim)
        if make is MultiVersionScheduler:
            _, ops, warmup, _ = HALT_CASES[wf]
            assert delay == _row_scan_multiversion(sim, sim.reconfig_workers(ops), warmup)[1]


def test_view_iterates_as_operations():
    """Iterating the view yields the row schedule's operations, so
    ``transactions`` and the brute-force oracle work on both."""
    sim = chain_run("naive", 0)
    view, rows = sim.schedule_log, row_schedule(sim)
    assert list(view) == rows.ops
    assert view.transactions() == rows.transactions()
    # S3 = [φ(1,FC), φ(1,FM), μ(FM), μ(MC), φ(1,MC)] as columns.
    s3 = ColumnSchedule(["FC", "FM", "MC"], array("H", [0, 1, 1, 2, 2]), array("q", [1, 1, -1, -1, 1]))
    assert not check_brute_force(s3) and not check(s3).serializable
    assert check(s3).violations == ((1, "FM", "MC"),)


def _row_scan_multiversion(sim: Simulator, workers: frozenset, t: float):
    """``MultiVersionScheduler.result``'s measure over ``op_log`` rows."""
    last_v1 = {w: t for w in workers}
    seen_v2 = set()
    for when, worker, txn, version in sim.op_log:
        if txn != UPDATE_TXN and worker in last_v1 and when >= t:
            if version <= 1:
                last_v1[worker] = max(last_v1[worker], when)
            else:
                seen_v2.add(worker)
    done = seen_v2 >= workers or sim.drained
    return done, (max(last_v1.values()) - t) if done else math.inf, last_v1 if done else {}


def test_multiversion_result_matches_row_scan():
    """Polled every 50 ms of a random pipeline's run, reading the columns
    gives the completion, delay and last-v1 times of a scan of every row."""
    completed = 0
    for seed in range(12):
        rng = random.Random(seed)
        spec, names = _random_chain_spec(rng)
        ops = set(rng.sample(names, rng.randint(1, 2)))
        t = rng.uniform(0.05, 0.3)
        sim = Simulator(spec)
        sim.start()
        sim.run(until=t)
        scheduler = MultiVersionScheduler()
        scheduler.request(sim, ops, t)
        workers = sim.reconfig_workers(ops)
        while not sim.drained:
            sim.run(until=sim.now + 0.05)
            r = scheduler.result(sim, t)
            assert (r.completed, r.delay, r.apply_times) == _row_scan_multiversion(sim, workers, t)
            completed += r.completed
    assert completed > 0


def _log_bytes_per_row(log: str) -> tuple[int, float]:
    """A recorded W4 run at p=2: the rows of ``sim.<log>`` and the bytes
    per row that dropping it frees."""
    build, ops, warmup, t_max = HALT_CASES["W4"]
    tracemalloc.start()
    try:
        sim = Simulator(build())
        scheduler = FriesScheduler()
        sim.start()
        sim.run(until=warmup)
        scheduler.request(sim, ops, warmup)
        sim.run(until=t_max)
        rows = len(getattr(sim, log))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        setattr(sim, log, None)
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return rows, freed / rows


def test_op_log_costs_at_most_32_bytes_per_row():
    """Dropping ``op_log`` frees at most 32 bytes per row (a tuple per row
    costs about 140) and at least the 8 of its time column."""
    rows, per_row = _log_bytes_per_row("op_log")
    assert rows > 10_000
    assert 8 <= per_row <= 32, (per_row, rows)


def test_sink_log_costs_at_most_32_bytes_per_row():
    """Dropping ``sink_log`` frees at most 32 bytes per row (a tuple per
    row costs about 144) and at least the 24 of its three columns."""
    rows, per_row = _log_bytes_per_row("sink_log")
    assert rows > 5_000
    assert 24 <= per_row <= 32, (per_row, rows)


def test_check_peaks_at_most_16_bytes_per_transaction():
    """Checking a recorded W4 run at p=2 whose schedule has violations
    (NaiveFCM) allocates at most 16 bytes per transaction at its peak: two
    ``array('H')`` indexed by txn (dicts and a set per transaction peaked
    at about 27 here and 59 on the benchmark's W5 {FD4} unpruned run)."""
    build, ops, warmup, t_max = HALT_CASES["W4"]
    sim = Simulator(build())
    sim.start()
    sim.run(until=warmup)
    NaiveFCMScheduler().request(sim, ops, warmup)
    sim.run(until=t_max)
    schedule = sim.schedule_log
    txns = len(set(schedule.txns) - {UPDATE_TXN})
    gc.collect()
    tracemalloc.start()
    try:
        verdict = check(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.serializable and txns > 5_000
    assert peak / txns <= 16, (peak, txns)


def test_built_simulator_holds_at_most_400_bytes_per_channel():
    """W2 at the paper's p=40 has 6 440 channels, nearly all empty when
    built: an empty channel holds no queue of its own (a deque per channel
    made it about 1 080 bytes)."""
    spec = defs.w2(parallelism=40)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim = Simulator(spec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(sim.channels) == 6440
    assert held / len(sim.channels) <= 400, held


def test_queued_message_costs_at_most_32_bytes():
    """A channel holding 10 000 queued data messages uses at most 32 bytes
    of queue bookkeeping per message, the messages not counted: a list
    slot and the arrival key in two typed columns, 24 bytes before growth
    slack. A (t, seq, msg) tuple per message in a deque costs about 128."""
    sim = Simulator(defs.w2(parallelism=4))
    ch = sim.channels[0]
    msgs = [DataMsg(i, i, 0.0) for i in range(10_000)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for msg in msgs:
            ch.send(msg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert ch.data_load() == len(msgs)
    assert held / len(msgs) <= 32, held


def test_drained_run_holds_no_deque():
    """Once a run with ``n_tuples`` sources drains, through a Fries
    reconfiguration, no channel holds a queue and no worker a pending FCM."""
    sim = Simulator(defs.w2(parallelism=4, n_tuples=300))
    sim.start()
    sim.run(until=0.1)
    FriesScheduler().request(sim, {"J1", "J3"}, 0.1)
    sim.run()
    assert sim.apply_times and len(sim.sink_log) > 0
    assert all(type(ch.msgs) is type(ch.ts) is type(ch.seqs) is tuple for ch in sim.channels)
    assert all(w.control == () for w in sim.workers.values())


def test_perfbench_fraud_consistency_contract():
    """The benchmark records every operation of three W4 requests (Fries,
    Epoch, NaiveFCM), counts ``len(sim.schedule_log)`` and checks each
    schedule; every operation must succeed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fraud-consistency", "--seconds", "9"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    last = out.stdout.strip().splitlines()[-1]
    for field in ('"correct": true', '"attempted": 11', '"failed": 0'):
        assert field in last, last
