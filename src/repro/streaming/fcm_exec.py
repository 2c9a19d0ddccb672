"""Swap-schedule encodings of FCM-based reconfigurations on the real Spark
pipeline (W4, with the one-to-many unnest) — the bridge between the
simulator's schedules and actual Catalyst execution.

A runtime scheduler ultimately decides, for every operator, *at which
position in that operator's own input stream* the configuration flips.
``w4_with_swap`` replays such a decision offline: each tuple of the W4
pipeline gets per-operator version columns from the schedule's cut points,
and the FD scores are computed under the version that actually applies to
each row (both models evaluated, selected per row — the multi-version
mechanics of §4.1). ``repro.streaming.consistency`` then checks whether
any data transaction (source user) observed both configurations:

* ``naive_schedule``  — independent per-operator cuts (the §4.1 naive FCM
  scheduler): mixes versions inside transactions that the one-to-many U2
  fanned out across a cut.
* ``fries_schedule``  — one cut at the component head (U2), inherited by
  all operators of the component (Algorithm 3): never mixes.
* ``epoch_schedule``  — one cut at the source: never mixes (Lemma 4.11).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.workflows.spark_queries import _with_version_scores, w4_unnest

RECONFIG_OPS = ("FD1", "FD2")


@dataclass(frozen=True)
class SwapSchedule:
    """Per-operator cut points.

    ``txn_cut`` cuts in transaction (source-user) order; ``row_cuts`` cut
    in the operator's own exploded-row order (naive mode only)."""

    mode: str  # "naive" | "fries" | "epoch"
    txn_cut: int | None = None
    row_cuts: dict[str, int] | None = None


def naive_schedule(fd1_cut: int, fd2_cut: int) -> SwapSchedule:
    return SwapSchedule(mode="naive", row_cuts={"FD1": fd1_cut, "FD2": fd2_cut})


def fries_schedule(txn_cut: int) -> SwapSchedule:
    return SwapSchedule(mode="fries", txn_cut=txn_cut)


def epoch_schedule(txn_cut: int) -> SwapSchedule:
    return SwapSchedule(mode="epoch", txn_cut=txn_cut)


def w4_with_swap(
    by_user: DataFrame, schedule: SwapSchedule, *, min_payments: int = 3
) -> DataFrame:
    """The W4 pipeline annotated with the versions each operator used.

    Output columns include ``txn`` (the source user = data transaction),
    ``v_FD1``/``v_FD2`` (configuration versions applied to each row) and
    the version-consistent scores.
    """
    # Transaction position = source ingestion order of the user's row
    # (first payment seq); row position = exploded-payment stream order.
    u2 = w4_unnest(by_user, min_payments=min_payments).withColumnRenamed("user_id", "txn")
    u2 = u2.withColumn("row_pos", F.row_number().over(Window.orderBy("seq")) - 1)

    if schedule.mode == "naive":
        cuts = schedule.row_cuts or {}
        v_fd1 = F.when(F.col("row_pos") < cuts["FD1"], 1).otherwise(2)
        v_fd2 = F.when(F.col("row_pos") < cuts["FD2"], 1).otherwise(2)
    else:
        cut = schedule.txn_cut if schedule.txn_cut is not None else 1 << 62
        v_fd1 = F.when(F.col("txn_pos") < cut, 1).otherwise(2)
        v_fd2 = v_fd1
    out = u2.withColumn("v_FD1", v_fd1).withColumn("v_FD2", v_fd2)
    out = _with_version_scores(out, key_col="txn", version_col="v_FD1", out_col="user_score")
    out = _with_version_scores(
        out, key_col="merchant_id", version_col="v_FD2", out_col="merchant_score"
    )
    return out.select(
        "txn", "txn_pos", "seq", "row_pos", "merchant_id", "amount",
        "v_FD1", "v_FD2", "user_score", "merchant_score",
    )
