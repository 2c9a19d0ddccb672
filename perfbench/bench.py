"""One benchmark run: set up, execute a workload's requests, check them,
and reduce the numbers to the metrics ``BENCHMARK.json`` names.

Imported by ``run.py`` and ``selftest.py`` once ``src/`` is on the path.
"""
from __future__ import annotations

import gc
import json
import math
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field

from harness import (
    Hooks, OpRecord, at_reference_speed, events_processed, median_time, probe_s, source_tuples,
)
from reference import mcs_matches_paper, render_ms
from repro.core.fries import plan_general
from repro.core.parallel import expand
from repro.engine.schedulers import effective_logical_dag
from repro.engine.simulator import Simulator
from repro.experiments import mcs_desc, plan_of, table7_rows
from workloads import DEFAULT_SEED, WORKLOADS, Request, Workload, build_spec, check_schedule, run_request

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_out"


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(why)
        return ok


@dataclass
class Result:
    ledger: Ledger
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)
    ops: list[dict]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Checker:
    """The per-operation checks of a run, against the committed tables."""

    def __init__(self, refs: dict, seed: int, tiny: bool, ledger: Ledger) -> None:
        self.refs = refs
        self.ledger = ledger
        self.seed, self.tiny = seed, tiny
        # Delays depend on the seed and the size; MCS and counts do not.
        self.check_delays = seed == DEFAULT_SEED and not tiny
        self.pairs: dict[tuple, dict[bool, float]] = {}
        self.mcs_done: set[tuple] = set()
        self.schedule_check_s: list[float] = []

    def ref_row(self, req: Request) -> dict[str, str]:
        key = ", ".join(req.ops)
        for row in self.refs[req.table]:
            if row["reconfig_ops"] == key and row.get("workflow", req.workflow) == req.workflow:
                return row
        raise KeyError(f"{req.table} has no row {req.workflow} {key}")

    def request(self, req: Request, delay_ms: float, sim: Simulator) -> None:
        led = self.ledger
        if not led.check(math.isfinite(delay_ms), f"{req.name}: delay {delay_ms} is not finite"):
            return
        if self.check_delays and req.column:
            want = self.ref_row(req)[req.column]
            led.check(render_ms(delay_ms) == want, f"{req.name}: delay {render_ms(delay_ms)} ms, committed {want}")
        if sim.record == "all":
            t0 = time.perf_counter()
            ok, why = check_schedule(req, sim)
            self.schedule_check_s.append(time.perf_counter() - t0)
            led.check(ok, why)
        if req.scheduler == "naive":
            return
        self._mcs(req)
        # Fries must not be slower than Epoch, nor pruned than unpruned.
        lower = req.scheduler == "fries" and req.prune
        pair = self.pairs.setdefault(req.row, {})
        pair[lower] = delay_ms
        if len(pair) == 2:
            led.check(pair[True] <= pair[False], f"{req.row}: {pair[True]} ms > {pair[False]} ms")

    def _mcs(self, req: Request) -> None:
        if req.scheduler != "fries" or (req.row, req.prune) in self.mcs_done:
            return
        self.mcs_done.add((req.row, req.prune))
        ours = mcs_desc(plan_of(build_spec(req.flow, self.seed, self.tiny), set(req.ops), prune=req.prune))
        row = self.ref_row(req)
        suffix = "" if req.table != "table6" else ("_pruned" if req.prune else "_unpruned")
        paper, committed = row[f"paper_mcs{suffix}"], row[f"mcs{suffix}"]
        self.ledger.check(mcs_matches_paper(ours, paper), f"{req.name}: MCS {ours} differs from the paper's {paper}")
        self.ledger.check(ours == committed, f"{req.name}: MCS {ours}, committed {committed}")

    def table7(self) -> None:
        committed = {int(r["workers_per_op"]): r for r in self.refs["table7"]}
        for row in table7_rows():
            ref = committed.get(row["workers_per_op"], {})
            for col in ("channels_all", "channels_mcs"):
                got = f"{row[col]:,}"
                self.ledger.check(
                    got == ref.get(f"paper_{col}") == ref.get(col),
                    f"table7 p={row['workers_per_op']} {col}: {got}, paper {ref.get(f'paper_{col}')}",
                )


def _setup_once(wl: Workload, seed: int, tiny: bool) -> float:
    """Build every spec of the workload and a Simulator for each."""
    gc.collect()
    t0 = time.perf_counter()
    for flow in wl.flows():
        Simulator(build_spec(flow, seed, tiny))
    return time.perf_counter() - t0


def _layer_microbenchmarks(wl: Workload, seed: int, tiny: bool, ledger: Ledger) -> dict:
    """Per-layer costs timed directly, outside any reconfiguration."""
    specs = {flow: build_spec(flow, seed, tiny) for flow in wl.flows()}
    dags = {flow: effective_logical_dag(spec) for flow, spec in specs.items()}
    plans = sorted({(r.flow, r.ops, p) for r in wl.requests if r.scheduler != "naive" for p in (True, False)})
    plan_us = [
        1e6 * median_time(lambda d=dags[f], o=set(ops), p=p: plan_general(d, o, prune=p), 21)
        for f, ops, p in plans
    ]
    spec_s = sum(median_time(lambda f=f: build_spec(f, seed, tiny), 5) for f in specs)
    expand_s = sum(
        median_time(lambda s=s: expand(s.dag, s.parallelism(), s.strategies()), 3) for s in specs.values()
    )
    score = _ml_scoring(seed, ledger) if wl.ml_scoring else 0.0
    return {
        "workflows.spec_ms": (1e3 * spec_s, "ms", 5),
        "core.expand_s": (expand_s, "s", 3),
        "core.plan_us": (_median(plan_us), "us", len(plan_us)),
        "ml.score_rows_per_s": (score, "1/s", 3),
    }


def _ml_scoring(seed: int, ledger: Ledger) -> float:
    """Rows per second of ``score_partition`` with the heavy FD model, the
    operator W4/W5's 25 ms-per-tuple FD costs stand for."""
    # Imported here: the simulator needs neither, and untraced runs report
    # the process's peak RSS.
    import numpy as np
    import pandas as pd
    from repro.ml import RecurrentAutoencoder, score_partition

    rng = np.random.default_rng(seed)
    n = 4000
    pdf = pd.DataFrame({
        "seq": np.arange(n),
        "user_id": rng.integers(0, 200, n),
        "amount": rng.lognormal(3.0, 1.0, n),
    })
    model = RecurrentAutoencoder(window=10, hidden=64, seed=0)
    kw = dict(window=10, key_col="user_id", amount_col="amount", order_col="seq")
    scores = score_partition(pdf, model, **kw)["score"]
    ledger.check(
        len(scores) == n and bool(((scores >= 0) & (scores < 1)).all()),
        "ml.score_partition: scores missing or outside [0, 1)",
    )
    return n / median_time(lambda: score_partition(pdf, model, **kw), 3)


def execute(hooks: Hooks, req: Request, seed: int, tiny: bool, checker: Checker | None) -> dict:
    """Run one request under ``hooks``; check it; return its numbers."""
    # Collect the previous request's garbage outside this one's timing.
    gc.collect()
    probe = probe_s()
    rec = OpRecord(req.name)
    hooks.current = rec
    t0 = time.perf_counter()
    delay_ms, t_req = run_request(req, seed, tiny)
    rec.wall_s = time.perf_counter() - t0
    hooks.current = None
    (sim,) = rec.sims
    done_at = t_req + delay_ms / 1000.0
    if checker is not None:
        checker.request(req, delay_ms, sim)
    return {
        "name": req.name, "delay_ms": delay_ms, "wall_s": rec.wall_s, "probe_s": probe,
        "init_s": rec.init_s, "warmup_s": rec.warmup_s, "post_request_s": rec.post_request_s,
        "run_s": rec.run_s, "request_s": rec.request_s, "backlog": rec.backlog,
        "tuples": source_tuples(sim), "events": events_processed(sim),
        "channels": len(sim.channels), "record_ops": len(sim.schedule_log),
        "now": sim.now, "done_at": done_at if math.isfinite(done_at) else sim.now,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, refs: dict, tiny: bool = False) -> Result:
    wl = WORKLOADS[name]
    ledger = Ledger()
    setup_probe = probe_s()
    setups = [_setup_once(wl, seed, tiny) for _ in range(wl.setup_reps)]
    requests = [wl.requests[i % len(wl.requests)] for i in range(wl.ops_per_run(seconds))]
    metrics: dict[str, tuple[float, str, int]] = {}
    if traced:
        metrics.update(_layer_microbenchmarks(wl, seed, tiny, ledger))
        # The first request once untraced, as the base of the tracing overhead.
        with Hooks(traced=False) as hooks:
            untraced_first = execute(hooks, requests[0], seed, tiny, None)["wall_s"]
    checker = Checker(refs, seed, tiny, ledger)
    with Hooks(traced) as hooks:
        ops = [execute(hooks, req, seed, tiny, checker) for req in requests]
    if wl.table7:
        checker.table7()

    def total(key):
        return sum(op[key] for op in ops)

    def median_of(key, scale=1.0):
        return _median([op[key] * scale for op in ops])

    n = len(ops)
    # One probe per request and one before set-up; their median stands for
    # the host's speed during the run.
    probe = _median([setup_probe] + [op["probe_s"] for op in ops])
    if not traced:
        return Result(ledger, {
            "setup_s": (at_reference_speed(_median(setups), probe), "s", len(setups)),
            "reconfig_s_p50": (at_reference_speed(median_of("wall_s"), probe), "s", n),
            "sim_tuples_per_s": (_ratio(total("tuples"), at_reference_speed(total("run_s"), probe)), "1/s", n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }, ops)
    checks_ms = [s * 1e3 for s in checker.schedule_check_s]
    metrics.update({
        "engine.init_s": (median_of("init_s"), "s", n),
        "engine.warmup_s": (median_of("warmup_s"), "s", n),
        "engine.post_request_s": (median_of("post_request_s"), "s", n),
        "engine.request_ms": (median_of("request_s", 1e3), "ms", n),
        "engine.events": (total("events"), "count", n),
        "engine.tuples": (total("tuples"), "count", n),
        "engine.events_per_s": (_ratio(total("events"), total("run_s")), "1/s", n),
        "engine.events_per_tuple": (_ratio(total("events"), total("tuples")), "ratio", n),
        "engine.overrun_virtual_s": (total("now") - total("done_at"), "virtual_s", n),
        "engine.useful_virtual_ratio": (_ratio(total("done_at"), total("now")), "ratio", n),
        "engine.record_ops": (total("record_ops"), "count", n),
        "engine.backlog_at_request": (total("backlog"), "count", n),
        "engine.channels": (max(op["channels"] for op in ops), "count", n),
        "core.check_ms": (_median(checks_ms), "ms", len(checks_ms)),
        "trace.overhead_pct": (100.0 * (ops[0]["wall_s"] / untraced_first - 1.0), "%", 1),
        "host.probe_ms": (1e3 * probe, "ms", n + 1),
        "host.reconfig_wall_s_p50": (median_of("wall_s"), "s", n),
        "ops_failed_ratio": (_ratio(len(ledger.failures), ledger.attempted), "ratio", ledger.attempted),
    })
    _write_spans(name, seed, hooks.spans)
    return Result(ledger, metrics, ops)


def _write_spans(name: str, seed: int, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(json.dumps([
        {"op": op, "layer": layer, "start": start, "end": end} for op, layer, start, end in spans
    ]))
