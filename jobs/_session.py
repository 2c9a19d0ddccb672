"""Shared helpers for the spark-submit entrypoints: the SparkSession
builder, and the exit status of a table job.

The session mirrors the conftest fixture configuration (shuffle
partitions, Arrow, broadcast joins disabled) so job results match test
results.
"""
import math
import os
import sys


def get_spark(app: str):
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def exit_if_unfinished(rows: list[dict], columns: tuple[str, ...], horizon: str, t_max: float) -> None:
    """Exit with status 1, naming each row and the run's horizon, if a delay
    in ``columns`` is not finite: that request did not complete by
    ``t_max`` virtual seconds (``horizon`` names the constant). Call it
    after printing the table."""
    unfinished = [
        f"{' '.join(str(r[k]) for k in ('workflow', 'reconfig_ops') if k in r)}: {c} = {r[c]}"
        for r in rows for c in columns if not math.isfinite(r[c])
    ]
    if unfinished:
        sys.exit(f"no completion by {horizon} = {t_max:g} s in " + "; ".join(unfinished))
