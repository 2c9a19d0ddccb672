"""Spark-side profiling of the simulator inputs that are measured on data.

Two inputs come from running the real Spark pipelines: the W2/W3 join
selectivities (``jobs/run_table4.py --profile``), measured stage by stage
over ``synth_data.tpcds_lite``, and the W4 unnest fan-out
(``jobs/run_table5.py --sf``), measured over
``synth_data.payments_by_user``. The simulator's key skew is not measured
here: it comes from the Zipf constants in ``repro.workflows.defs``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from . import spark_queries as q


@dataclass
class WorkflowProfile:
    """Measured characteristics of one workflow's data plane."""

    rows: dict[str, int] = field(default_factory=dict)  # operator -> output rows
    selectivity: dict[str, float] = field(default_factory=dict)  # op -> out/in ratio


def profile_w2(tables: dict[str, DataFrame]) -> WorkflowProfile:
    """Row counts and selectivities of the W2 chain."""
    p = WorkflowProfile()
    n_in = tables["catalog_sales"].count()
    p.rows["src"] = n_in
    prev = n_in
    for name, df in zip(("J1", "J2", "J3", "J4"), q.w2_stages(tables)):
        n = df.count()
        p.rows[name] = n
        p.selectivity[name] = n / prev if prev else 0.0
        prev = n
    return p


def profile_w3(tables: dict[str, DataFrame]) -> WorkflowProfile:
    """Row counts and selectivities of the W3 union-of-channels pipeline."""
    p = WorkflowProfile()
    stages = q.w3_stages(tables)
    inputs = {
        "J5": tables["web_sales"].count(),
        "J6": tables["catalog_sales"].count(),
        "J7": tables["store_sales"].count(),
    }
    for name in ("J5", "J6", "J7"):
        n = stages[name].count()
        p.rows[name] = n
        p.selectivity[name] = n / inputs[name] if inputs[name] else 0.0
    n_u1 = stages["U1"].count()
    p.rows["U1"] = n_u1
    for name, upstream in (("J8", "U1"), ("J9", "J8")):
        n = stages[name].count()
        p.rows[name] = n
        p.selectivity[name] = n / p.rows[upstream] if p.rows[upstream] else 0.0
    return p


def profile_w4(by_user: DataFrame) -> WorkflowProfile:
    """Users (``rows["src"]``), payments (``rows["U2"]``) and the W4
    unnest fan-out, payments per user (``selectivity["U2"]``), of a
    ``payments_by_user`` frame."""
    users, pays = by_user.select(F.count(F.lit(1)), F.sum(F.size("pays"))).first()
    return WorkflowProfile(rows={"src": users, "U2": pays}, selectivity={"U2": pays / users})
