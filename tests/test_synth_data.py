"""Tests for the synthetic dataset generators (Table 3 substitutes)."""
import pytest
from pyspark.sql import functions as F

from repro import synth_data

SF = 0.0002
SF_DS = 0.005


@pytest.fixture(scope="module")
def pay(spark):
    return synth_data.payments(spark, sf=SF).cache()

@pytest.fixture(scope="module")
def tables(spark):
    return {k: v.cache() for k, v in synth_data.tpcds_lite(spark, sf=SF_DS).items()}


class TestPayments:
    def test_twelve_attributes(self, pay):
        assert len(pay.columns) == 12  # matches the paper's dataset 1

    def test_row_count_scales(self, spark):
        small = synth_data.payments(spark, sf=0.0001).count()
        big = synth_data.payments(spark, sf=0.0002).count()
        assert big == 2 * small

    def test_deterministic_in_seed(self, spark):
        a = synth_data.payments(spark, sf=0.0001, seed=5).toPandas()
        b = synth_data.payments(spark, sf=0.0001, seed=5).toPandas()
        assert a.equals(b)

    def test_seed_changes_data(self, spark):
        a = synth_data.payments(spark, sf=0.0001, seed=5).toPandas()
        b = synth_data.payments(spark, sf=0.0001, seed=6).toPandas()
        assert not a["user_id"].equals(b["user_id"])

    def test_seq_is_dense_ingestion_order(self, pay):
        n = pay.count()
        assert pay.agg(F.min("seq"), F.max("seq")).first() == (0, n - 1)
        assert pay.select("seq").distinct().count() == n

    def test_user_skew_zipfian(self, pay):
        counts = pay.groupBy("user_id").count().orderBy(F.desc("count")).toPandas()
        top_share = counts["count"].head(max(1, len(counts) // 100)).sum() / counts["count"].sum()
        assert top_share > 0.05  # heavy head

    def test_amounts_positive(self, pay):
        assert pay.filter(F.col("amount") <= 0).count() == 0


class TestPaymentsByUser:
    def test_grouping_preserves_payments(self, spark, pay):
        bu = synth_data.payments_by_user(spark, sf=SF)
        total = bu.select(F.sum(F.size("pays")).alias("n")).first()["n"]
        assert total == pay.count()

    def test_one_row_per_user(self, spark, pay):
        bu = synth_data.payments_by_user(spark, sf=SF)
        assert bu.count() == pay.select("user_id").distinct().count()

    def test_pays_sorted_by_seq(self, spark):
        bu = synth_data.payments_by_user(spark, sf=SF)
        row = bu.filter(F.size("pays") >= 3).first()
        seqs = [p["seq"] for p in row["pays"]]
        assert seqs == sorted(seqs)


class TestTpcdsLite:
    def test_all_tables_present(self, tables):
        assert set(tables) == {
            "catalog_sales", "catalog_returns", "store_sales", "web_sales",
            "item", "warehouse", "date_dim", "time_dim",
        }

    def test_fact_ratios(self, tables):
        """TPC-DS channel size ratios: store ≈ 2× catalog ≈ 4× web."""
        cs = tables["catalog_sales"].count()
        ss = tables["store_sales"].count()
        ws = tables["web_sales"].count()
        assert abs(ss / cs - 2.0) < 0.1
        assert abs(cs / ws - 2.0) < 0.1

    def test_item_fk_integrity(self, tables):
        n_item = tables["item"].count()
        bad = tables["catalog_sales"].filter(
            (F.col("cs_item_sk") < 1) | (F.col("cs_item_sk") > n_item)
        )
        assert bad.count() == 0

    def test_date_fk_integrity(self, tables):
        n_dates = tables["date_dim"].count()
        for name, col in (("store_sales", "ss_sold_date_sk"), ("web_sales", "ws_sold_date_sk")):
            bad = tables[name].filter((F.col(col) < 1) | (F.col(col) > n_dates))
            assert bad.count() == 0

    def test_returns_subset_of_sales(self, tables):
        cr = tables["catalog_returns"]
        cs = tables["catalog_sales"]
        orphans = cr.join(
            cs,
            (cr.cr_order_number == cs.cs_order_number) & (cr.cr_item_sk == cs.cs_item_sk),
            "left_anti",
        )
        assert orphans.count() == 0

    def test_meal_times(self, tables):
        mt = {r["t_meal_time"] for r in tables["time_dim"].select("t_meal_time").distinct().collect()}
        assert mt == {"", "breakfast", "dinner"}

    def test_warehouse_states(self, tables):
        assert tables["warehouse"].count() == 6

    def test_date_dim_five_years(self, tables):
        years = tables["date_dim"].select("d_year").distinct().count()
        assert years == 5

    def test_deterministic(self, spark):
        a = synth_data.tpcds_lite(spark, sf=0.002)["item"].toPandas()
        b = synth_data.tpcds_lite(spark, sf=0.002)["item"].toPandas()
        assert a.equals(b)

    def test_item_skew(self, tables):
        counts = (
            tables["store_sales"].groupBy("ss_item_sk").count()
            .orderBy(F.desc("count")).limit(1).first()["count"]
        )
        mean = tables["store_sales"].count() / tables["item"].count()
        assert counts > 3 * mean  # zipf-hot items exist
