"""The "Spark Streaming" row of Table 2: mini-batch (epoch) execution of
workflow W1 on Spark, with a reconfiguration between epochs.

Epoch ``e`` is the payments with ``seq // epoch_size == e``. A
reconfiguration requested at stream position ``request_seq`` takes effect
at the first epoch boundary after the request, so every payment of the
current epoch is still processed under the old configuration: the epoch
scheduler's delay (§3.2). Every output is a function of each payment's
epoch, so the run is one Spark pass over the whole stream: each payment is
tagged with its version, FD scores it under both versions (the per-user
last-``FD_WINDOW`` window spans epoch boundaries, as a streaming
operator's state would) and the score of the payment's own version is
kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.workflows.spark_queries import FRAUD_THRESHOLD, _with_version_scores


@dataclass
class MicrobatchRun:
    """Result of a mini-batch W1 execution with one reconfiguration."""

    output: pd.DataFrame  # payment_id, seq, user_id, amount, score, epoch, version, fraud
    apply_epoch: int  # first epoch processed with the new configuration
    delay_tuples: int  # tuples processed old-config after the request


def run_w1_microbatch(
    payments: DataFrame,
    *,
    epoch_size: int,
    request_seq: int | None = None,
) -> MicrobatchRun:
    """Run W1 in epochs of ``epoch_size`` payments; FD's model swaps from v1
    (heavy LSTM-AE) to v2 (light) at the first epoch boundary after
    ``request_seq``."""
    first_v2 = request_seq // epoch_size + 1 if request_seq is not None else 1 << 62
    tagged = (
        payments.select("payment_id", "seq", "user_id", "amount")
        .withColumn("epoch", F.expr(f"seq div {epoch_size}"))
        .withColumn("version", (F.col("epoch") >= first_v2).cast("long") + 1)
    )
    out = (
        _with_version_scores(tagged, key_col="user_id", version_col="version", out_col="score")
        .select(
            "payment_id", "seq", "user_id", "amount", "score", "epoch", "version",
            (F.col("score") > FRAUD_THRESHOLD).alias("fraud"),
        )
        .toPandas()
        .sort_values("seq")
        .reset_index(drop=True)
    )
    apply_epoch = first_v2 if request_seq is not None else -(-len(out) // epoch_size) + 1
    delay_tuples = (
        int(((out.seq >= request_seq) & (out.version == 1)).sum())
        if request_seq is not None
        else 0
    )
    return MicrobatchRun(output=out, apply_epoch=apply_epoch, delay_tuples=delay_tuples)
