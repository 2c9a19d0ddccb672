"""The benchmark's workloads: closed batches of reconfiguration requests.

Each workload is an ordered list of requests. A run executes the first
``ops_per_run(seconds)`` of them (cycling), one after another in this
process, so the work in a run depends only on ``--seconds`` and the seed;
count metrics then repeat exactly and medians compare the same requests
from run to run. Every request and every check is one operation in
``attempted``; a failed one is counted in ``failed``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.serializability import check as serializability_check
from repro.engine.schedulers import EpochScheduler, FriesScheduler, NaiveFCMScheduler
from repro.engine.simulator import Simulator
from repro.engine.workload import WorkflowSpec
from repro.experiments import run_delay
from repro.workflows import defs

# ``WorkflowSpec.seed``'s default: the seed the committed tables were made at.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Flow:
    """A workflow at one size, with the run parameters its table uses."""

    warmup: float
    t_max: float
    step: float
    record: str  # Simulator(record=...): "none" or "all"


FLOWS = {
    "W2": Flow(12.0, 300.0, 5.0, "none"),
    "W3": Flow(12.0, 300.0, 5.0, "none"),
    # p=40: 6 440 channels. A 2 s warm-up keeps a request near 6 s of wall.
    "W2p40": Flow(2.0, 300.0, 5.0, "none"),
    "W4": Flow(60.0, 2000.0, 10.0, "all"),
    "W5": Flow(60.0, 2000.0, 10.0, "all"),
}


def build_spec(flow: str, seed: int, tiny: bool = False) -> WorkflowSpec:
    """The workflow spec of ``flow`` with the workload seed. The self-test's
    ``tiny`` size shrinks p=40 to p=8 (and ``run_request`` the warm-up 6x)."""
    if flow == "W2":
        spec = defs.w2(parallelism=4, rate=8000.0)
    elif flow == "W3":
        spec = defs.w3(parallelism=4, rate=6000.0)
    elif flow == "W2p40":
        spec = defs.w2(parallelism=8 if tiny else 40, rate=8000.0)
    elif flow == "W4":
        spec = defs.w4(parallelism=4, rate=40.0, fanout=12)
    elif flow == "W5":
        spec = defs.w5(parallelism=4, rate=300.0)
    else:
        raise ValueError(f"unknown flow {flow!r}")
    spec.seed = seed
    return spec


@dataclass(frozen=True)
class Request:
    """One reconfiguration request: a table row under one scheduler."""

    table: str  # committed table holding the row
    flow: str
    ops: tuple[str, ...]
    scheduler: str  # "fries" | "epoch" | "naive"
    prune: bool = True

    @property
    def name(self) -> str:
        tag = self.scheduler if self.prune else "fries-unpruned"
        return f"{self.flow} {{{','.join(self.ops)}}} {tag}"

    @property
    def row(self) -> tuple[str, str, tuple[str, ...]]:
        return (self.table, self.flow, self.ops)

    @property
    def workflow(self) -> str:
        """The paper's workflow name: W2p40 is W2 at p=40."""
        return self.flow[:2]

    @property
    def column(self) -> str | None:
        """The committed column holding this request's delay, if any: the
        naive scheduler and the p=40 flow have none."""
        if self.scheduler == "naive" or self.flow != self.workflow:
            return None
        if self.table == "table6":
            return "pruned_ms" if self.prune else "unpruned_ms"
        return f"{self.scheduler}_ms"

    def make_scheduler(self):
        if self.scheduler == "fries":
            return FriesScheduler(prune=self.prune)
        if self.scheduler == "epoch":
            return EpochScheduler()
        return NaiveFCMScheduler()


def _pair(table: str, flow: str, *ops: str) -> list[Request]:
    if table == "table6":
        return [Request(table, flow, ops, "fries"), Request(table, flow, ops, "fries", prune=False)]
    return [Request(table, flow, ops, "fries"), Request(table, flow, ops, "epoch")]


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    nominal_op_s: float  # wall s of an average request on a slow phase of the 4-vCPU reference host
    setup_reps: int
    table7: bool = False  # also reproduce Table 7's channel counts
    ml_scoring: bool = False  # also time the FD model W4/W5's costs stand for

    def ops_per_run(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_op_s))

    def flows(self) -> list[str]:
        return list(dict.fromkeys(r.flow for r in self.requests))


# Requests are ordered so that a short prefix already mixes workflows and
# schedulers: with the default run length a run covers the first rows.
WORKLOADS = {
    "joins-p4": Workload(
        "joins-p4",
        tuple(
            _pair("table4", "W2", "J1")
            + _pair("table4", "W3", "J5")
            + _pair("table4", "W2", "J1", "J4")
            + _pair("table4", "W3", "J5", "J6", "J7", "J9")
            + _pair("table4", "W2", "J2")
            + _pair("table4", "W3", "J5", "J6")
            + _pair("table4", "W2", "J1", "J3")
            + _pair("table4", "W3", "J5", "J6", "J7", "J8")
            + _pair("table4", "W2", "J3", "J4")
            + _pair("table4", "W3", "J7", "J8", "J9")
        ),
        nominal_op_s=3.5,
        setup_reps=15,
    ),
    "joins-p40": Workload(
        "joins-p40",
        tuple(_pair("table4", "W2p40", "J1") + _pair("table4", "W2p40", "J1", "J4")),
        nominal_op_s=5.0,
        setup_reps=3,
        table7=True,
    ),
    "fraud-consistency": Workload(
        "fraud-consistency",
        tuple(
            _pair("table5", "W4", "F1", "U2")
            + [Request("table5", "W4", ("FD1",), "naive")]
            + _pair("table6", "W5", "FD4")
            + _pair("table5", "W4", "FD1")
            + [Request("table6", "W5", ("FD3", "FD4"), "naive")]
            + _pair("table5", "W4", "F2")
            + _pair("table6", "W5", "F3")
            + _pair("table6", "W5", "F4")
            + _pair("table6", "W5", "FD3", "FD4")
            + _pair("table6", "W5", "E1")
        ),
        nominal_op_s=3.0,
        setup_reps=15,
        ml_scoring=True,
    ),
}


def run_request(req: Request, seed: int, tiny: bool) -> tuple[float, float]:
    """Get one reconfiguration delay: returns (delay ms, request time).

    Unrecorded flows go through ``repro.experiments.run_delay``, the path the
    table benchmarks use. ``run_delay`` always builds its simulator with
    ``record="none"``, so recorded flows repeat its loop here with
    ``record="all"``; the schedule then goes to the serializability check.
    """
    flow = FLOWS[req.flow]
    warmup = flow.warmup / 6 if tiny else flow.warmup
    build = lambda: build_spec(req.flow, seed, tiny)  # noqa: E731
    if flow.record == "none":
        delay = run_delay(
            build, req.make_scheduler(), set(req.ops),
            warmup=warmup, t_max=flow.t_max, step=flow.step,
        )
        return delay, warmup
    scheduler = req.make_scheduler()
    sim = Simulator(build(), record=flow.record)
    sim.start()
    sim.run(until=warmup)
    scheduler.request(sim, set(req.ops), warmup)
    t = warmup
    while t < flow.t_max:
        t = min(t + flow.step, flow.t_max)
        sim.run(until=t)
        if scheduler.result(sim, warmup).completed:
            break
    r = scheduler.result(sim, warmup)
    return (r.delay * 1000.0 if r.completed else math.inf), warmup


def check_schedule(req: Request, sim: Simulator) -> tuple[bool, str]:
    """Fries and Epoch schedules must be conflict-serializable; the naive
    scheduler's must be flagged (it applies FCMs without alignment)."""
    verdict = serializability_check(sim.schedule_log)
    expected = req.scheduler != "naive"
    if verdict.serializable != expected:
        return False, (
            f"{req.name}: serializable={verdict.serializable}, expected {expected} "
            f"({len(verdict.violations)} violations)"
        )
    return True, ""
