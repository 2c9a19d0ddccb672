"""Mixed-version transaction detection on Spark outputs.

A data transaction is consistent w.r.t. a reconfiguration iff every data
operation on a reconfiguration operator used the same configuration
version (the observable form of conflict-serializability — §4.2). These
checks run as Spark SQL over the annotated pipeline output of
``repro.streaming.fcm_exec``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def versions_per_txn(df: DataFrame, version_cols: list[str]) -> DataFrame:
    """Per transaction: the number of distinct configuration versions
    observed across all reconfiguration-operator data operations. The
    transaction id is the ``txn`` column."""
    stacked = None
    for c in version_cols:
        part = df.select("txn", F.col(c).alias("version"))
        stacked = part if stacked is None else stacked.unionByName(part)
    assert stacked is not None, "need at least one version column"
    return stacked.groupBy("txn").agg(
        F.countDistinct("version").alias("n_versions"),
        F.min("version").alias("min_version"),
        F.max("version").alias("max_version"),
    )


def mixed_version_txns(df: DataFrame, version_cols: list[str]) -> DataFrame:
    """Transactions that observed more than one configuration version."""
    return versions_per_txn(df, version_cols).filter(F.col("n_versions") > 1)


def count_mixed(df: DataFrame, version_cols: list[str]) -> int:
    return mixed_version_txns(df, version_cols).count()
