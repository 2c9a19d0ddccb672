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
from typing import Callable

from repro.core.fries import ReconfigPlan, plan_general
from repro.engine.schedulers import (
    EpochScheduler,
    FriesScheduler,
    effective_logical_dag,
    run_reconfig_experiment,
)
from repro.engine.simulator import Simulator
from repro.engine.workload import WorkflowSpec
from repro.workflows import defs


# ---------------------------------------------------------------------------
# generic delay measurement
# ---------------------------------------------------------------------------

def run_delay(
    spec_builder: Callable[[], WorkflowSpec],
    scheduler,
    reconfig_ops: set[str],
    *,
    warmup: float,
    t_max: float,
    step: float = 5.0,
) -> float:
    """Warm up, request the reconfiguration, run until it completes (or
    ``t_max``), return the delay in milliseconds (inf if not completed).

    The simulator records nothing, so :func:`run_reconfig_experiment`
    stops it at the completing apply. ``step`` is unused; it stays for
    existing callers."""
    sim = Simulator(spec_builder(), record="none")
    r = run_reconfig_experiment(sim, scheduler, reconfig_ops, t_request=warmup, t_end=t_max)
    return r.delay * 1000.0 if r.completed else math.inf


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
    rows = []
    builders = {
        "W2": lambda: defs.w2(parallelism=parallelism, rate=rate, selectivity=w2_selectivity),
        "W3": lambda: defs.w3(parallelism=parallelism, rate=rate * 0.75, selectivity=w3_selectivity),
    }
    for wf, ops, p_mcs, p_len, p_fries, p_epoch in PAPER_TABLE4:
        build = builders[wf]
        plan = plan_of(build(), set(ops))
        fries = run_delay(build, FriesScheduler(), set(ops),
                          warmup=TABLE4_WARMUP, t_max=TABLE4_T_MAX)
        epoch = run_delay(build, EpochScheduler(), set(ops),
                          warmup=TABLE4_WARMUP, t_max=TABLE4_T_MAX)
        rows.append(
            {
                "workflow": wf,
                "reconfig_ops": ", ".join(ops),
                "mcs": mcs_desc(plan),
                "longest_path": plan.longest_path,
                "fries_ms": fries,
                "epoch_ms": epoch,
                "paper_mcs": p_mcs,
                "paper_longest_path": p_len,
                "paper_fries_ms": p_fries,
                "paper_epoch_ms": p_epoch,
            }
        )
    return rows


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
    rows = []

    def build() -> WorkflowSpec:
        return defs.w4(parallelism=parallelism, fanout=fanout)

    for ops, p_mcs, p_len, p_fries, p_epoch in PAPER_TABLE5:
        plan = plan_of(build(), set(ops))
        fries = run_delay(build, FriesScheduler(), set(ops),
                          warmup=TABLE5_WARMUP, t_max=TABLE5_T_MAX)
        epoch = run_delay(build, EpochScheduler(), set(ops),
                          warmup=TABLE5_WARMUP, t_max=TABLE5_T_MAX)
        rows.append(
            {
                "reconfig_ops": ", ".join(ops),
                "mcs": mcs_desc(plan),
                "longest_path": plan.longest_path,
                "fries_ms": fries,
                "epoch_ms": epoch,
                "paper_mcs": p_mcs,
                "paper_longest_path": p_len,
                "paper_fries_ms": p_fries,
                "paper_epoch_ms": p_epoch,
            }
        )
    return rows


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
    rows = []
    build = defs.w5
    for ops, p_mcs_p, p_mcs_np, p_fries_p, p_fries_np in PAPER_TABLE6:
        plan_p = plan_of(build(), set(ops), prune=True)
        plan_np = plan_of(build(), set(ops), prune=False)
        d_p = run_delay(build, FriesScheduler(prune=True), set(ops),
                        warmup=TABLE6_WARMUP, t_max=TABLE6_T_MAX)
        d_np = run_delay(build, FriesScheduler(prune=False), set(ops),
                         warmup=TABLE6_WARMUP, t_max=TABLE6_T_MAX)
        rows.append(
            {
                "reconfig_ops": ", ".join(ops),
                "mcs_pruned": mcs_desc(plan_p),
                "mcs_unpruned": mcs_desc(plan_np),
                "pruned_ms": d_p,
                "unpruned_ms": d_np,
                "paper_mcs_pruned": p_mcs_p,
                "paper_mcs_unpruned": p_mcs_np,
                "paper_pruned_ms": p_fries_p,
                "paper_unpruned_ms": p_fries_np,
            }
        )
    return rows


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
