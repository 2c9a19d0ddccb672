"""W1–W5 as Spark DataFrame pipelines (the data plane of the paper's
workflows, §8.1/Figure 12).

W2 and W3 are the TPC-DS q40/q71-derived join pipelines over
``synth_data.tpcds_lite`` (filters widened to keep scaled-down row counts
meaningful — see DESIGN.md). W1/W4/W5 are the fraud pipelines over the
synthetic payment data, with the ML scoring done by
``repro.ml.score_partition`` inside ``applyInPandas``.

Each builder returns the *full* pipeline result; ``*_STAGES`` expose the
per-join intermediate frames used by ``profiles`` to measure edge
cardinalities. Every relational query has a matching DuckDB SQL string
(``*_SQL``) for ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.ml import score_partition
from repro.ml.autoencoder import RecurrentAutoencoder
from repro.ml.decision_tree import DecisionTree

# ---------------------------------------------------------------------------
# W2 — TPC-DS q40-derived join chain
# ---------------------------------------------------------------------------

W2_PRICE_LO, W2_PRICE_HI = 0.99, 35.0
W2_DATE_LO, W2_DATE_HI = "1999-01-01", "1999-12-31"
W2_DATE_MID = "1999-07-01"


def w2_stages(tables: dict[str, DataFrame]) -> list[DataFrame]:
    """The pipelined probe chain J1..J4 (pre-aggregation), one frame per
    join output, in dataflow order."""
    cs, cr = tables["catalog_sales"], tables["catalog_returns"]
    w, i, d = tables["warehouse"], tables["item"], tables["date_dim"]
    j1 = cs.join(
        cr,
        (cs.cs_order_number == cr.cr_order_number) & (cs.cs_item_sk == cr.cr_item_sk),
        "left",
    )
    j2 = j1.join(w, j1.cs_warehouse_sk == w.w_warehouse_sk)
    j3 = j2.join(
        i.filter(F.col("i_current_price").between(W2_PRICE_LO, W2_PRICE_HI)),
        j2.cs_item_sk == i.i_item_sk,
    )
    j4 = j3.join(
        d.filter(F.col("d_date").between(W2_DATE_LO, W2_DATE_HI)),
        j3.cs_sold_date_sk == d.d_date_sk,
    )
    return [j1, j2, j3, j4]


def w2_query(tables: dict[str, DataFrame]) -> DataFrame:
    """Full q40-lite: the join chain + the before/after-date aggregation."""
    j4 = w2_stages(tables)[-1]
    return (
        j4.groupBy("w_state", "i_item_id")
        .agg(
            F.round(
                F.sum(
                    F.when(F.col("d_date") < W2_DATE_MID, F.col("cs_sales_price")).otherwise(0.0)
                ),
                2,
            ).alias("sales_before"),
            F.round(
                F.sum(
                    F.when(F.col("d_date") >= W2_DATE_MID, F.col("cs_sales_price")).otherwise(0.0)
                ),
                2,
            ).alias("sales_after"),
        )
    )


W2_SQL = f"""
SELECT w_state, i_item_id,
       ROUND(SUM(CASE WHEN d_date <  TIMESTAMP '{W2_DATE_MID}' THEN cs_sales_price ELSE 0 END), 2) AS sales_before,
       ROUND(SUM(CASE WHEN d_date >= TIMESTAMP '{W2_DATE_MID}' THEN cs_sales_price ELSE 0 END), 2) AS sales_after
FROM catalog_sales
LEFT JOIN catalog_returns
  ON cs_order_number = cr_order_number AND cs_item_sk = cr_item_sk
JOIN warehouse ON cs_warehouse_sk = w_warehouse_sk
JOIN item ON cs_item_sk = i_item_sk
 AND i_current_price BETWEEN {W2_PRICE_LO} AND {W2_PRICE_HI}
JOIN date_dim ON cs_sold_date_sk = d_date_sk
 AND d_date BETWEEN TIMESTAMP '{W2_DATE_LO}' AND TIMESTAMP '{W2_DATE_HI}'
GROUP BY w_state, i_item_id
"""

# ---------------------------------------------------------------------------
# W3 — TPC-DS q71-derived union-of-channels pipeline
# ---------------------------------------------------------------------------

W3_YEAR = 1998
W3_MANAGER_MAX = 30


def w3_stages(tables: dict[str, DataFrame]) -> dict[str, DataFrame]:
    """Per-operator outputs: J5 (web), J6 (catalog), J7 (store), U1, J8, J9."""
    i, d, t = tables["item"], tables["date_dim"], tables["time_dim"]
    dd = d.filter((F.col("d_year") == W3_YEAR) & (F.col("d_moy") <= 6))

    def channel(df: DataFrame, pfx: str) -> DataFrame:
        return df.join(dd, df[f"{pfx}_sold_date_sk"] == dd.d_date_sk).select(
            F.col(f"{pfx}_ext_sales_price").alias("ext_price"),
            F.col(f"{pfx}_item_sk").alias("sold_item_sk"),
            F.col(f"{pfx}_sold_time_sk").alias("time_sk"),
        )

    j5 = channel(tables["web_sales"], "ws")
    j6 = channel(tables["catalog_sales"], "cs")
    j7 = channel(tables["store_sales"], "ss")
    u1 = j5.unionAll(j6).unionAll(j7)
    j8 = u1.join(
        i.filter(F.col("i_manager_id") <= W3_MANAGER_MAX),
        u1.sold_item_sk == i.i_item_sk,
    )
    j9 = j8.join(
        t.filter(F.col("t_meal_time").isin("breakfast", "dinner")),
        j8.time_sk == t.t_time_sk,
    )
    return {"J5": j5, "J6": j6, "J7": j7, "U1": u1, "J8": j8, "J9": j9}


def w3_query(tables: dict[str, DataFrame]) -> DataFrame:
    """Full q71-lite: brand-level sales by hour/minute at meal times."""
    j9 = w3_stages(tables)["J9"]
    return (
        j9.groupBy("i_brand_id", "i_brand", "t_hour", "t_minute")
        .agg(F.round(F.sum("ext_price"), 2).alias("ext_price_sum"))
    )


W3_SQL = f"""
WITH u AS (
  SELECT ws_ext_sales_price AS ext_price, ws_item_sk AS sold_item_sk, ws_sold_time_sk AS time_sk
  FROM web_sales JOIN date_dim ON ws_sold_date_sk = d_date_sk AND d_year = {W3_YEAR} AND d_moy <= 6
  UNION ALL
  SELECT cs_ext_sales_price, cs_item_sk, cs_sold_time_sk
  FROM catalog_sales JOIN date_dim ON cs_sold_date_sk = d_date_sk AND d_year = {W3_YEAR} AND d_moy <= 6
  UNION ALL
  SELECT ss_ext_sales_price, ss_item_sk, ss_sold_time_sk
  FROM store_sales JOIN date_dim ON ss_sold_date_sk = d_date_sk AND d_year = {W3_YEAR} AND d_moy <= 6
)
SELECT i_brand_id, i_brand, t_hour, t_minute,
       ROUND(SUM(ext_price), 2) AS ext_price_sum
FROM u
JOIN item ON sold_item_sk = i_item_sk AND i_manager_id <= {W3_MANAGER_MAX}
JOIN time_dim ON time_sk = t_time_sk AND t_meal_time IN ('breakfast', 'dinner')
GROUP BY i_brand_id, i_brand, t_hour, t_minute
"""

# ---------------------------------------------------------------------------
# W1 / W4 / W5 — fraud pipelines with ML scoring
# ---------------------------------------------------------------------------

FRAUD_THRESHOLD = 0.5
FD_WINDOW = 10  # payments of per-key state each FD model scores


def _model(version: int, *, seed: int = 0):
    """Model registry for FD's configurations: v1 heavy LSTM-AE, v2 light
    LSTM-AE, v3 decision tree (the two §8.3 hot-swaps)."""
    if version == 1:
        return RecurrentAutoencoder(window=FD_WINDOW, hidden=64, seed=seed)
    if version == 2:
        return RecurrentAutoencoder(window=FD_WINDOW, hidden=16, seed=seed)
    return DecisionTree()


def _with_scores(df: DataFrame, *, key_col: str, scores: dict[str, int]) -> DataFrame:
    """Per-key last-``FD_WINDOW`` scoring via applyInPandas (the FD
    operator). ``scores`` maps each output column to the model version
    that fills it; all of them are scored in one pass over each group."""
    models = {col: _model(version) for col, version in scores.items()}
    schema = StructType(
        list(df.schema.fields) + [StructField(col, DoubleType(), False) for col in models]
    )

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        for col, model in models.items():
            pdf = score_partition(
                pdf, model, window=FD_WINDOW, key_col=key_col,
                amount_col="amount", order_col="seq", out_col=col,
            )
        return pdf

    return df.groupBy(key_col).applyInPandas(fn, schema=schema)


def _with_version_scores(
    df: DataFrame, *, key_col: str, version_col: str, out_col: str
) -> DataFrame:
    """FD under a per-row configuration (the multi-version mechanics of
    §4.1): score every row under v1 and v2 in one ``_with_scores`` pass and
    keep in ``out_col`` the score of the row's own version (``version_col``,
    1 or 2)."""
    v1, v2 = f"{out_col}_v1", f"{out_col}_v2"
    scored = _with_scores(df, key_col=key_col, scores={v1: 1, v2: 2})
    pick = F.when(F.col(version_col) == 1, F.col(v1)).otherwise(F.col(v2))
    return scored.withColumn(out_col, pick).drop(v1, v2)


def w1_pipeline(payments: DataFrame, *, version: int = 1) -> DataFrame:
    """W1: score each payment with the user-based FD model, flag fraud."""
    scored = _with_scores(
        payments.select("payment_id", "seq", "user_id", "amount"),
        key_col="user_id", scores={"score": version},
    )
    return scored.withColumn("fraud", F.col("score") > FRAUD_THRESHOLD)


def w4_unnest(by_user: DataFrame, *, min_payments: int) -> DataFrame:
    """W4's relational skeleton: F1 keeps the users with at least
    ``min_payments`` payments and U2 unnests them (one-to-many), one row per
    payment. ``txn_pos`` is the user's first payment ``seq``, where the
    user's transaction enters the source stream."""
    f1 = by_user.filter(F.size("pays") >= min_payments)
    return f1.select(
        "user_id", F.expr("pays[0].seq").alias("txn_pos"), F.explode("pays").alias("p")
    ).select(
        "user_id",
        "txn_pos",
        F.col("p.seq").alias("seq"),
        F.col("p.merchant_id").alias("merchant_id"),
        F.col("p.amount").alias("amount"),
    )


def w4_pipeline(by_user: DataFrame, *, min_payments: int = 3) -> DataFrame:
    """W4: F1 filters big payers, U2 unnests payments (``w4_unnest``), FD1
    scores per user, FD2 per merchant (both with the v1 model), F2 flags."""
    u2 = w4_unnest(by_user, min_payments=min_payments).drop("txn_pos")
    fd1 = _with_scores(u2, key_col="user_id", scores={"user_score": 1})
    fd2 = _with_scores(fd1, key_col="merchant_id", scores={"merchant_score": 1})
    return fd2.withColumn(
        "fraud",
        (F.col("user_score") > FRAUD_THRESHOLD)
        | (F.col("merchant_score") > FRAUD_THRESHOLD),
    )


W4_RELATIONAL_SQL = """
SELECT user_id, CAST(txn_pos AS BIGINT) AS txn_pos, CAST(p.seq AS BIGINT) AS seq,
       CAST(p.merchant_id AS BIGINT) AS merchant_id,
       p.amount AS amount
FROM (SELECT user_id, pays[1].seq AS txn_pos, UNNEST(pays) AS p FROM by_user
      WHERE LEN(pays) >= {min_payments})
"""


def w5_pipeline(payments: DataFrame, *, fd3_version: int = 1,
                fd4_version: int = 1,
                weights: tuple[float, float] = (0.4, 0.6)) -> DataFrame:
    """W5: replicate each payment into a user-scoring branch (FD3) and a
    merchant-scoring branch (FD4), self-join on payment_id, combine (E1)."""
    base = payments.select("payment_id", "seq", "user_id", "merchant_id", "amount")
    branch_a = _with_scores(
        base, key_col="user_id", scores={"user_score": fd3_version}
    ).select("payment_id", "user_score")
    branch_b = _with_scores(
        base, key_col="merchant_id", scores={"merchant_score": fd4_version}
    ).select(F.col("payment_id").alias("b_payment_id"), "merchant_score")
    sj = branch_a.join(branch_b, branch_a.payment_id == branch_b.b_payment_id)
    wa, wb = weights
    return sj.select(
        "payment_id",
        "user_score",
        "merchant_score",
        F.round(wa * F.col("user_score") + wb * F.col("merchant_score"), 6).alias(
            "combined"
        ),
    )
