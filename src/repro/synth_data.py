"""Synthetic substitutes for the paper's three datasets (Table 3) at a
configurable scale factor: ``payments`` and ``payments_by_user`` scale
with dataset 1's 24M payments per unit SF, ``tpcds_lite`` with TPC-DS fact
rows per unit SF. Tests use SF<=0.01; benchmarks use SF~=0.1. Generators
are deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Fries-paper datasets (§8.1, Table 3) — synthetic substitutes.
# ---------------------------------------------------------------------------
# Dataset 1 of the paper is a real credit-card payment table [29] with 24M
# tuples and 12 attributes; ``payments`` generates the same shape with
# Zipf-skewed users/merchants (the paper's stragglers come from key skew).
# Dataset 2 groups payments per user for the one-to-many unnest operator.
# Dataset 3 is TPC-DS at SF=100; ``tpcds_lite`` generates the subset of
# tables used by queries 40 and 71 at laptop scale, FK-consistent.

_N_PAYMENTS_PER_SF = 24_000_000
_N_USERS_PER_SF = 200_000
_N_MERCHANTS_PER_SF = 50_000


def _zipf_ids(g: np.random.Generator, n: int, n_ids: int, alpha: float = 1.2) -> np.ndarray:
    ranks = np.arange(1, n_ids + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    return g.choice(ranks, size=n, p=w)


def payments(spark: SparkSession, *, sf: float = 0.001, seed: int = 11) -> DataFrame:
    """Synthetic credit-card payment stream: 12 attributes, Zipf-skewed
    user and merchant keys. ``seq`` is the ingestion order (the stream
    position used by the micro-batch executor)."""
    n = max(1, int(_N_PAYMENTS_PER_SF * sf))
    n_users = max(10, int(_N_USERS_PER_SF * sf))
    n_merch = max(5, int(_N_MERCHANTS_PER_SF * sf))
    g = _rng(seed)
    amounts = np.round(np.exp(g.normal(3.5, 1.2, n)) + 1.0, 2)
    pdf = pd.DataFrame(
        {
            "payment_id": np.arange(1, n + 1),
            "seq": np.arange(n),
            "user_id": _zipf_ids(g, n, n_users),
            "merchant_id": _zipf_ids(g, n, n_merch),
            "card_id": g.integers(1, 4, n),
            "amount": amounts,
            "ts": pd.to_datetime("2020-01-01")
            + pd.to_timedelta(np.sort(g.integers(0, 365 * 24 * 3600, n)), unit="s"),
            "use_chip": g.choice(["chip", "swipe", "online"], n),
            "mcc": g.integers(1000, 10000, n),
            "city": g.choice([f"city_{i}" for i in range(100)], n),
            "state": g.choice([f"S{i:02d}" for i in range(50)], n),
            "zip": g.integers(10000, 99999, n),
        }
    )
    return spark.createDataFrame(pdf)


def payments_by_user(spark: SparkSession, *, sf: float = 0.001, seed: int = 11) -> DataFrame:
    """Dataset 2: one row per user with the user's payments as an array of
    structs — input of the one-to-many unnest operator in W4."""
    from pyspark.sql import functions as F

    p = payments(spark, sf=sf, seed=seed)
    return (
        p.select("user_id", "seq", "merchant_id", "amount")
        .groupBy("user_id")
        .agg(
            F.sort_array(
                F.collect_list(F.struct("seq", "merchant_id", "amount"))
            ).alias("pays")
        )
    )


_TPCDS_ROWS_PER_SF = {  # fact rows per unit SF, ratios from TPC-DS SF=100
    "catalog_sales": 1_440_000,
    "store_sales": 2_880_000,
    "web_sales": 720_000,
}


def tpcds_lite(spark: SparkSession, *, sf: float = 0.01, seed: int = 21) -> dict[str, DataFrame]:
    """The TPC-DS tables used by queries 40 and 71, generated synthetically
    at scale factor ``sf`` with consistent foreign keys.

    Returned dict keys: catalog_sales, catalog_returns, store_sales,
    web_sales, item, warehouse, date_dim, time_dim.
    """
    g = _rng(seed)
    n_item = max(60, int(18_000 * sf))
    n_wh = 6
    n_dates = 1826  # 1998-01-01 .. 2002-12-31, like TPC-DS
    n_times = 2880  # every 30 seconds of a day

    item = pd.DataFrame(
        {
            "i_item_sk": np.arange(1, n_item + 1),
            "i_item_id": [f"ITEM{i:08d}" for i in range(1, n_item + 1)],
            "i_current_price": np.round(g.random(n_item) * 99 + 0.5, 2),
            "i_brand_id": g.integers(1, 1000, n_item),
            "i_brand": [f"brand_{i}" for i in g.integers(1, 1000, n_item)],
            "i_manager_id": g.integers(1, 100, n_item),
            "i_manufact_id": g.integers(1, 1000, n_item),
        }
    )
    warehouse = pd.DataFrame(
        {
            "w_warehouse_sk": np.arange(1, n_wh + 1),
            "w_warehouse_name": [f"Warehouse {i}" for i in range(1, n_wh + 1)],
            "w_state": ["CA", "TX", "NY", "WA", "IL", "FL"][:n_wh],
        }
    )
    dates = pd.to_datetime("1998-01-01") + pd.to_timedelta(np.arange(n_dates), unit="D")
    date_dim = pd.DataFrame(
        {
            "d_date_sk": np.arange(1, n_dates + 1),
            "d_date": dates,
            "d_year": dates.year,
            "d_moy": dates.month,
        }
    )
    secs = np.arange(n_times) * 30
    hours = secs // 3600
    time_dim = pd.DataFrame(
        {
            "t_time_sk": np.arange(1, n_times + 1),
            "t_hour": hours,
            "t_minute": (secs % 3600) // 60,
            "t_meal_time": np.select(
                [(hours >= 6) & (hours <= 8), (hours >= 17) & (hours <= 19)],
                ["breakfast", "dinner"],
                default="",
            ),
        }
    )

    def fact(name: str, prefix: str, extra: dict) -> pd.DataFrame:
        n = max(10, int(_TPCDS_ROWS_PER_SF[name] * sf))
        base = {
            f"{prefix}_sold_date_sk": g.integers(1, n_dates + 1, n),
            f"{prefix}_sold_time_sk": g.integers(1, n_times + 1, n),
            f"{prefix}_item_sk": _zipf_ids(g, n, n_item, alpha=1.05),
            f"{prefix}_ext_sales_price": np.round(g.random(n) * 500 + 1, 2),
        }
        base.update(extra(n))
        return pd.DataFrame(base)

    catalog_sales = fact(
        "catalog_sales",
        "cs",
        lambda n: {
            "cs_warehouse_sk": g.integers(1, n_wh + 1, n),
            "cs_order_number": np.arange(1, n + 1),
            "cs_sales_price": np.round(g.random(n) * 2.0 + 0.5, 2),
        },
    )
    n_cs = len(catalog_sales)
    n_cr = max(5, n_cs // 10)
    ret_rows = catalog_sales.sample(n=n_cr, random_state=seed)
    catalog_returns = pd.DataFrame(
        {
            "cr_order_number": ret_rows["cs_order_number"].to_numpy(),
            "cr_item_sk": ret_rows["cs_item_sk"].to_numpy(),
            "cr_refunded_cash": np.round(g.random(n_cr) * 100, 2),
        }
    )
    store_sales = fact("store_sales", "ss", lambda n: {})
    web_sales = fact("web_sales", "ws", lambda n: {})

    return {
        "catalog_sales": spark.createDataFrame(catalog_sales),
        "catalog_returns": spark.createDataFrame(catalog_returns),
        "store_sales": spark.createDataFrame(store_sales),
        "web_sales": spark.createDataFrame(web_sales),
        "item": spark.createDataFrame(item),
        "warehouse": spark.createDataFrame(warehouse),
        "date_dim": spark.createDataFrame(date_dim),
        "time_dim": spark.createDataFrame(time_dim),
    }
