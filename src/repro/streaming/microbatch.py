"""The "Spark Streaming" row of Table 2, built for real: mini-batch (epoch)
execution of workflow W1 on Spark with reconfiguration between epochs.

The payment stream is processed one epoch (seq range) at a time; each epoch
is a Spark DataFrame job running the FD scoring with the epoch's
configuration version; the per-user last-``FD_WINDOW`` state is carried
across epochs (as the streaming operator would). A reconfiguration
requested at stream position ``request_seq`` takes effect at the first
epoch boundary after the request — giving the epoch scheduler's delay: all
in-flight tuples of the current epoch are still processed under the old
configuration (§3.2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.workflows.spark_queries import FD_WINDOW, FRAUD_THRESHOLD, _with_scores


@dataclass
class MicrobatchRun:
    """Result of a mini-batch W1 execution with one reconfiguration."""

    output: pd.DataFrame  # payment_id, seq, user_id, epoch, version, score, fraud
    apply_epoch: int  # first epoch processed with the new configuration
    delay_tuples: int  # tuples processed old-config after the request


def run_w1_microbatch(
    spark: SparkSession,
    payments: DataFrame,
    *,
    epoch_size: int,
    request_seq: int | None = None,
) -> MicrobatchRun:
    """Run W1 epoch-at-a-time; swap FD's model from v1 (heavy LSTM-AE) to
    v2 (light) at the first epoch boundary after ``request_seq``."""
    base = payments.select("payment_id", "seq", "user_id", "amount").cache()
    n = base.count()
    n_epochs = int(np.ceil(n / epoch_size))
    apply_epoch = (
        (request_seq // epoch_size) + 1 if request_seq is not None else n_epochs + 1
    )
    history: dict[int, list[float]] = {}
    frames: list[pd.DataFrame] = []
    for epoch in range(n_epochs):
        version = 2 if epoch >= apply_epoch else 1
        lo, hi = epoch * epoch_size, (epoch + 1) * epoch_size
        epoch_df = base.filter((F.col("seq") >= lo) & (F.col("seq") < hi))
        hist_rows = [
            (0, lo - FD_WINDOW + i - len(v), int(u), float(a), 1)
            for u, v in history.items()
            for i, a in enumerate(v)
        ]
        if hist_rows:
            hist_df = spark.createDataFrame(
                pd.DataFrame(
                    hist_rows,
                    columns=["payment_id", "seq", "user_id", "amount", "is_hist"],
                )
            )
            staged = epoch_df.withColumn("is_hist", F.lit(0)).unionByName(hist_df)
        else:
            staged = epoch_df.withColumn("is_hist", F.lit(0))
        scored = (
            _with_scores(staged, key_col="user_id", scores={"score": version})
            .filter(F.col("is_hist") == 0)
            .toPandas()
        )
        scored["epoch"] = epoch
        scored["version"] = version
        frames.append(scored)
        # Carry per-user state: last `FD_WINDOW` amounts seen so far.
        epoch_pd = scored.sort_values("seq")
        for u, grp in epoch_pd.groupby("user_id"):
            prev = history.get(int(u), [])
            history[int(u)] = (prev + grp["amount"].tolist())[-FD_WINDOW:]
    out = (
        pd.concat(frames, ignore_index=True)
        if frames
        else pd.DataFrame(columns=[*base.columns, "is_hist", "score", "epoch", "version"])
    )
    out["fraud"] = out["score"] > FRAUD_THRESHOLD
    out = out.drop(columns=["is_hist"]).sort_values("seq").reset_index(drop=True)
    delay_tuples = (
        int(((out.seq >= request_seq) & (out.version == 1)).sum())
        if request_seq is not None
        else 0
    )
    base.unpersist()
    return MicrobatchRun(output=out, apply_epoch=apply_epoch, delay_tuples=delay_tuples)
