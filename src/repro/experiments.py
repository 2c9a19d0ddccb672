"""Table harnesses — one runner per evaluation table (§8, Tables 4–7).

Each ``table*_rows`` function returns a list of row dicts containing both
our measured values and the paper's reported numbers, and ``format_table``
prints them side by side (the same rows EXPERIMENTS.md records).

Delays are in *simulated* milliseconds: the substrate is the
``repro.engine`` simulator, not the authors' 10-node Flink cluster, so
absolute values differ; the shape criteria are listed in DESIGN.md §5.
"""
from __future__ import annotations

import math
import pickle
from typing import Callable, Sequence

from repro.core.fries import ReconfigPlan, plan_general
from repro.engine.schedulers import (
    EpochScheduler,
    FriesScheduler,
    PlanScheduler,
    ReconfigResult,
    effective_logical_dag,
    request_and_run,
)
from repro.engine.simulator import Simulator
from repro.engine.workload import WorkflowSpec
from repro.workflows import defs


# ---------------------------------------------------------------------------
# generic delay measurement
# ---------------------------------------------------------------------------

def delays(build: Callable[[], WorkflowSpec], requests: Sequence[tuple[PlanScheduler, set[str]]],
           *, warmup: float, t_max: float) -> list[ReconfigResult]:
    """The result of each ``(scheduler, reconfig_ops)`` request, made at
    ``warmup`` on one warmed run of ``build()`` that records nothing, and
    run until it completes (or ``t_max``). One request runs on the warmed
    run itself and forks nothing. Otherwise the warmed run is pickled once
    and dropped, and each request runs on its own load of that pickle (the
    round trip of :meth:`Simulator.fork`), so a request holds one run and
    the pickle, not the warmed run as well."""
    sim = Simulator(build(), record="none")
    sim.start()
    sim.run(until=warmup)
    if len(requests) == 1:
        [(scheduler, ops)] = requests
        return [request_and_run(sim, scheduler, ops, t_request=warmup, t_end=t_max)]
    warmed = pickle.dumps(sim, pickle.HIGHEST_PROTOCOL)
    del sim
    return [request_and_run(pickle.loads(warmed), s, o, t_request=warmup, t_end=t_max) for s, o in requests]


def run_delay(
    spec_builder: Callable[[], WorkflowSpec],
    scheduler,
    reconfig_ops: set[str],
    *,
    warmup: float,
    t_max: float,
    step: float = 5.0,
) -> float:
    """The delay in milliseconds of one request by :func:`delays` (inf if
    it does not complete by ``t_max``). ``step`` is unused; it stays for
    existing callers."""
    [r] = delays(spec_builder, [(scheduler, reconfig_ops)], warmup=warmup, t_max=t_max)
    return r.delay * 1000.0


def _pairs(build, paper: list[tuple], make_a, make_b, *, warmup: float, t_max: float) -> list[tuple]:
    """Per row of ``paper``, whose first field is a reconfiguration set:
    ``(scheduler a, its delay ms, scheduler b, its delay ms)``, every
    request made on one warmed run (:func:`delays`). Each scheduler keeps
    the plan it ran."""
    requests = [(make(), set(row[0])) for row in paper for make in (make_a, make_b)]
    results = delays(build, requests, warmup=warmup, t_max=t_max)
    measured = [(s, r.delay * 1000.0) for (s, _), r in zip(requests, results)]
    return [(*a, *b) for a, b in zip(measured[::2], measured[1::2])]


def _fries_vs_epoch(build, paper: list[tuple], *, warmup: float, t_max: float) -> list[dict]:
    """Table 4 and 5 rows, one per ``(ops, paper MCS, paper longest path,
    paper Fries ms, paper Epoch ms)`` in ``paper``, measured on ``build``."""
    measured = _pairs(build, paper, FriesScheduler, EpochScheduler, warmup=warmup, t_max=t_max)
    return [
        {
            "reconfig_ops": ", ".join(ops),
            "mcs": mcs_desc(fries.plan),
            "longest_path": fries.plan.longest_path,
            "fries_ms": f,
            "epoch_ms": e,
            "paper_mcs": p_mcs,
            "paper_longest_path": p_len,
            "paper_fries_ms": p_fries,
            "paper_epoch_ms": p_epoch,
        }
        for (ops, p_mcs, p_len, p_fries, p_epoch), (fries, f, _, e) in zip(paper, measured)
    ]


def plan_of(spec: WorkflowSpec, reconfig_ops: set[str], *, prune: bool = True) -> ReconfigPlan:
    return plan_general(effective_logical_dag(spec), reconfig_ops, prune=prune)


def mcs_desc(plan: ReconfigPlan) -> str:
    """Render components like the paper: heads in *bold* → '*J1*, J2, J3'."""
    parts = []
    for comp, heads in zip(plan.component_list, plan.heads):
        names = [f"*{v}*" if v in heads else v for v in sorted(comp.vertices)]
        parts.append("{" + ", ".join(names) + "}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Table 4 — reconfiguration delay in W2/W3 (Fries vs Epoch)
# ---------------------------------------------------------------------------

# (workflow, reconfig ops, paper MCS, paper longest path,
#  paper Fries delay ms, paper Epoch delay ms)
PAPER_TABLE4 = [
    ("W2", ("J1",), "{J1}", 0, 46, 11_432),
    ("W2", ("J2",), "{J2}", 0, 44, 11_709),
    ("W2", ("J1", "J3"), "{*J1*, J2, J3}", 2, 1_664, 12_339),
    ("W2", ("J1", "J4"), "{*J1*, J2, J3, J4}", 3, 1_702, 12_361),
    ("W2", ("J3", "J4"), "{*J3*, J4}", 1, 387, 13_767),
    ("W3", ("J5",), "{*J5*}", 0, 87, 4_127),
    ("W3", ("J5", "J6"), "{*J5*} {*J6*}", 0, 127, 8_352),
    ("W3", ("J5", "J6", "J7", "J8"), "{*J5*, *J6*, *J7*, U1, J8}", 3, 447, 19_608),
    ("W3", ("J5", "J6", "J7", "J9"), "{*J5*, *J6*, *J7*, U1, J8, J9}", 4, 526, 19_717),
    ("W3", ("J7", "J8", "J9"), "{*J7*, U1, J8, J9}", 3, 1_340, 20_532),
]
# Virtual seconds of warm-up before each request, and the run's horizon.
TABLE4_WARMUP, TABLE4_T_MAX = 12.0, 300.0


def table4_rows(
    *,
    parallelism: int = 4,
    rate: float = 8000.0,
    w2_selectivity: dict[str, float] | None = None,
    w3_selectivity: dict[str, float] | None = None,
) -> list[dict]:
    """Reproduce Table 4: delay of Fries vs Epoch for reconfiguration sets
    in W2 and W3 (dataset-3 analogue). The join selectivities default to
    the recorded ``defs.W2_SELECTIVITY``/``W3_SELECTIVITY``."""
    builders = {
        "W2": lambda: defs.w2(parallelism=parallelism, rate=rate, selectivity=w2_selectivity),
        "W3": lambda: defs.w3(parallelism=parallelism, rate=rate * 0.75, selectivity=w3_selectivity),
    }
    return [
        {"workflow": wf, **row}
        for wf, build in builders.items()
        for row in _fries_vs_epoch(build, [r[1:] for r in PAPER_TABLE4 if r[0] == wf],
                                   warmup=TABLE4_WARMUP, t_max=TABLE4_T_MAX)
    ]


# ---------------------------------------------------------------------------
# Table 5 — W4 with the one-to-many unnest U2
# ---------------------------------------------------------------------------

PAPER_TABLE5 = [
    (("F1", "U2"), "{*F1*, U2}", 1, 69, 151),
    (("FD1",), "{*U2*, FD1}", 1, 47_892, 131_103),
    (("F2",), "{*U2*, FD1, FD2, F2}", 5, 221_353, 236_153),
]
TABLE5_WARMUP, TABLE5_T_MAX = 60.0, 2000.0


def table5_rows(*, parallelism: int = 4, fanout: int = 12) -> list[dict]:
    """Reproduce Table 5: delays in W4 (dataset-2 analogue) at its default
    rate; FD1/FD2 are the slow inference operators, U2 the one-to-many
    unnest."""
    return _fries_vs_epoch(lambda: defs.w4(parallelism=parallelism, fanout=fanout), PAPER_TABLE5,
                           warmup=TABLE5_WARMUP, t_max=TABLE5_T_MAX)


# ---------------------------------------------------------------------------
# Table 6 — MCS pruning in W5
# ---------------------------------------------------------------------------

PAPER_TABLE6 = [
    (("FD4",), "{FD4}", "{*RE*, F4, FD4}", 158, 450_149),
    (("F3",), "{F3}", "{*RE*, FD3, S1, F3}", 94, 383_781),
    (("F4",), "{F4}", "{*RE*, F4}", 10, 446),
    (("FD3", "FD4"), "{*RE*, FD3, F4, FD4}", "{*RE*, FD3, F4, FD4}", 661_892, 663_460),
    (("E1",), "{E1}", "{*RE*, FD3, S1, F3, F4, FD4, SJ, E1}", 85, 1_122_686),
]
TABLE6_WARMUP, TABLE6_T_MAX = 60.0, 2000.0


def table6_rows() -> list[dict]:
    """Reproduce Table 6: the effect of §6.3 MCS pruning in W5 (the
    default ``defs.w5()`` spec)."""
    measured = _pairs(defs.w5, PAPER_TABLE6, FriesScheduler, lambda: FriesScheduler(prune=False),
                      warmup=TABLE6_WARMUP, t_max=TABLE6_T_MAX)
    return [
        {
            "reconfig_ops": ", ".join(ops),
            "mcs_pruned": mcs_desc(pruned.plan),
            "mcs_unpruned": mcs_desc(unpruned.plan),
            "pruned_ms": d_p,
            "unpruned_ms": d_np,
            "paper_mcs_pruned": p_mcs_p,
            "paper_mcs_unpruned": p_mcs_np,
            "paper_pruned_ms": p_fries_p,
            "paper_unpruned_ms": p_fries_np,
        }
        for (ops, p_mcs_p, p_mcs_np, p_fries_p, p_fries_np), (pruned, d_p, unpruned, d_np)
        in zip(PAPER_TABLE6, measured)
    ]


# ---------------------------------------------------------------------------
# Table 7 — worker-level data channels (exact graph computation)
# ---------------------------------------------------------------------------

PAPER_TABLE7 = [
    (1, 5, 3),
    (4, 68, 48),
    (12, 588, 432),
    (20, 1_620, 1_200),
    (40, 6_440, 4_800),
]


def table7_rows() -> list[dict]:
    """Reproduce Table 7: # data channels between all workers vs between
    MCS workers for the {J1, J4} reconfiguration in W2 — expected to match
    the paper exactly."""
    from repro.core.parallel import channel_counts, expand

    rows = []
    for p, paper_all, paper_mcs in PAPER_TABLE7:
        spec = defs.w2(parallelism=p)
        plan = plan_of(spec, {"J1", "J4"})
        pdf = expand(spec.dag, spec.parallelism(), spec.strategies())
        total, mcs = channel_counts(pdf, plan)
        rows.append(
            {
                "workers_per_op": p,
                "channels_all": total,
                "channels_mcs": mcs,
                "paper_channels_all": paper_all,
                "paper_channels_mcs": paper_mcs,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_table(rows: list[dict], title: str) -> str:
    """Markdown-ish fixed-width rendering of a row list."""
    if not rows:
        return f"{title}\n(no rows)\n"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in cols
    }
    lines = [title, " | ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("-|-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return "inf" if math.isinf(v) else f"{v:,.0f}"
    if isinstance(v, int) and not isinstance(v, bool):
        return f"{v:,}"
    return str(v)
