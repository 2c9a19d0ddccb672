"""Tests for the table harnesses at reduced scale (the full-scale runs are
the benchmarks; here we check structure, monotonicity, and exactness of the
graph-only table)."""
import importlib.util
import math
import pathlib
import sys

import pytest

from repro import experiments
from repro.core import check
from repro.engine import Simulator
from repro.engine.schedulers import (
    EpochScheduler,
    FriesScheduler,
    NaiveFCMScheduler,
    SavepointScheduler,
)
from repro.experiments import (
    PAPER_TABLE4,
    PAPER_TABLE7,
    delays,
    format_table,
    mcs_desc,
    plan_of,
    run_delay,
    table7_rows,
)
from repro.workflows import defs


class TestTable7:
    def test_matches_paper_exactly(self):
        for row in table7_rows():
            assert row["channels_all"] == row["paper_channels_all"]
            assert row["channels_mcs"] == row["paper_channels_mcs"]

    def test_row_count(self):
        assert len(table7_rows()) == len(PAPER_TABLE7) == 5


class TestRunDelay:
    def test_completes_and_positive(self):
        build = lambda: defs.w2(parallelism=2, rate=2000)
        d = run_delay(build, FriesScheduler(), {"J1"}, warmup=2.0, t_max=60.0)
        assert 0 < d < 60_000

    def test_incomplete_returns_inf(self):
        build = lambda: defs.w2(parallelism=2, rate=2000)
        # t_max == warmup: no time to complete.
        d = run_delay(build, EpochScheduler(), {"J4"}, warmup=2.0, t_max=2.0)
        assert math.isinf(d)

    def test_fries_leq_epoch_small_scale(self):
        build = lambda: defs.w2(parallelism=2, rate=2000)
        f = run_delay(build, FriesScheduler(), {"J1"}, warmup=2.0, t_max=60.0)
        e = run_delay(build, EpochScheduler(), {"J1"}, warmup=2.0, t_max=60.0)
        assert math.isfinite(f) and math.isfinite(e)
        assert f <= e


class TestDelays:
    def test_equals_run_delay_per_request(self):
        """Requests on loads of one pickle of a warmed run give each
        request's fresh ``run_delay`` to the bit."""
        build = lambda: defs.w2(parallelism=2, rate=2000)
        requests = [
            (FriesScheduler, {"J1"}),
            (EpochScheduler, {"J1"}),
            (FriesScheduler, {"J1", "J4"}),
            (NaiveFCMScheduler, {"J3"}),
            (SavepointScheduler, {"J4"}),
        ]
        results = delays(build, [(make(), ops) for make, ops in requests], warmup=2.0, t_max=60.0)
        assert all(r.completed for r in results)
        assert [r.delay * 1000.0 for r in results] == [
            run_delay(build, make(), ops, warmup=2.0, t_max=60.0) for make, ops in requests
        ]

    def test_run_delay_forks_nothing(self, monkeypatch):
        def no_fork(*args, **kwargs):
            raise AssertionError("forked")

        monkeypatch.setattr(Simulator, "fork", no_fork)
        monkeypatch.setattr(experiments.pickle, "dumps", no_fork)
        build = lambda: defs.w2(parallelism=2, rate=2000)
        assert 0 < run_delay(build, FriesScheduler(), {"J1"}, warmup=2.0, t_max=60.0) < 60_000


# (builder, reconfiguration set, warm-up, t_max) at small p: W2's cheap
# joins, and W4's deep backlog in front of the slow FD1/FD2.
HALT_CASES = {
    "W2": (lambda: defs.w2(parallelism=2, rate=2000), {"J1", "J4"}, 2.0, 5.0),
    "W4": (lambda: defs.w4(parallelism=2), {"FD1"}, 20.0, 150.0),
}


def _requested(wf: str, scheduler, record: str = "none") -> Simulator:
    build, ops, warmup, _ = HALT_CASES[wf]
    sim = Simulator(build(), record=record)
    sim.start()
    sim.run(until=warmup)
    scheduler.request(sim, ops, warmup)
    return sim


class TestStopAtCompletion:
    def test_run_delay_halts_at_completion(self, monkeypatch):
        """run_delay's loop ends with the event whose apply completes the
        reconfiguration: ``now`` is the request time plus the delay."""
        sims = []

        class Recorded(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr(experiments, "Simulator", Recorded)
        build, ops, warmup, t_max = HALT_CASES["W2"]
        for scheduler in (FriesScheduler(), EpochScheduler()):
            d = run_delay(build, scheduler, ops, warmup=warmup, t_max=t_max)
            r = scheduler.result(sims[-1], warmup)
            assert r.completed and d == r.delay * 1000.0
            assert sims[-1].now == max(r.apply_times.values())
            assert sims[-1].now == pytest.approx(warmup + d / 1000.0, abs=1e-12)
            assert sims[-1]._heap  # stopped, not drained

    @pytest.mark.parametrize("wf", sorted(HALT_CASES))
    @pytest.mark.parametrize(
        "make", [FriesScheduler, EpochScheduler, SavepointScheduler, NaiveFCMScheduler],
        ids=["fries", "ebr", "savepoint", "naive"],
    )
    def test_same_delay_as_run_to_t_max(self, wf, make):
        """Halting changes no delay. A plain ``run(until=t_max)`` still
        reaches ``t_max`` after the reconfiguration has completed."""
        build, ops, warmup, t_max = HALT_CASES[wf]
        halted = run_delay(build, make(), ops, warmup=warmup, t_max=t_max)
        scheduler = make()
        sim = _requested(wf, scheduler)
        sim.run(until=t_max)
        r = scheduler.result(sim, warmup)
        assert r.completed and max(r.apply_times.values()) < t_max
        assert sim.now == t_max
        assert halted == r.delay * 1000.0

    def test_naive_w4_fd1_still_flagged(self):
        """A plain run past the naive scheduler's completion still records
        the schedule that violates serializability on W4 {FD1}."""
        _, _, warmup, _ = HALT_CASES["W4"]
        scheduler = NaiveFCMScheduler()
        sim = _requested("W4", scheduler, record="all")
        sim.run(until=warmup + 10.0)
        assert scheduler.result(sim, warmup).completed
        assert sim.now == warmup + 10.0
        assert not check(sim.schedule_log).serializable


class TestPlanRendering:
    def test_mcs_desc_heads_bold(self):
        plan = plan_of(defs.w2(parallelism=2), {"J1", "J4"})
        assert mcs_desc(plan) == "{*J1*, J2, J3, J4}"

    def test_mcs_desc_multiple_components(self):
        plan = plan_of(defs.w3(parallelism=2), {"J5", "J6"})
        assert mcs_desc(plan) == "{*J5*} {*J6*}"

    def test_paper_table4_mcs_strings_match_ours(self):
        # Compare as sets of component vertex-sets (head markers stripped,
        # vertex order normalised — the paper lists U1 before J8).
        def norm(s: str):
            comps = s.replace("*", "").strip("{}").split("} {")
            return {frozenset(x.strip() for x in c.split(",")) for c in comps}

        builders = {"W2": defs.w2, "W3": defs.w3}
        for wf, ops, p_mcs, *_ in PAPER_TABLE4:
            plan = plan_of(builders[wf](parallelism=2), set(ops))
            assert norm(mcs_desc(plan)) == norm(p_mcs), (wf, ops)


class TestFormatting:
    def test_format_table_renders(self):
        out = format_table(table7_rows(), "Table 7")
        assert "Table 7" in out and "6,440" in out

    def test_format_empty(self):
        assert "no rows" in format_table([], "X")

    def test_format_inf(self):
        assert "inf" in format_table([{"a": math.inf}], "t")


class TestTableJobs:
    @pytest.mark.parametrize("table,columns", [
        (4, ("fries_ms", "epoch_ms")),
        (5, ("fries_ms", "epoch_ms")),
        (6, ("pruned_ms", "unpruned_ms")),
    ])
    def test_unfinished_delay_exits_nonzero(self, table, columns, monkeypatch, capsys):
        """``jobs/run_table{4,5,6}.py`` print the table, then exit with
        status 1, naming the row and the horizon, when a delay is not
        finite; with every delay finite they return."""
        jobs = pathlib.Path(__file__).resolve().parents[1] / "jobs"
        monkeypatch.syspath_prepend(str(jobs))  # the jobs import ``_session``
        spec = importlib.util.spec_from_file_location(f"run_table{table}", jobs / f"run_table{table}.py")
        job = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(job)
        row = {"reconfig_ops": "F1, U2", **dict.fromkeys(columns, 69.0)}
        monkeypatch.setattr(job, f"table{table}_rows", lambda **_: [row])
        monkeypatch.setattr(sys, "argv", [f"run_table{table}.py"])
        job.main()
        row[columns[1]] = math.inf
        with pytest.raises(SystemExit) as exit_:
            job.main()
        t_max = getattr(experiments, f"TABLE{table}_T_MAX")
        assert exit_.value.code == (f"no completion by TABLE{table}_T_MAX = {t_max:g} s in "
                                    f"F1, U2: {columns[1]} = inf")
        assert "inf" in capsys.readouterr().out.rstrip().splitlines()[-1]  # printed before the exit
