"""Oracle-checked tests for the W1–W5 Spark pipelines."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.ml import RecurrentAutoencoder, score_partition
from repro.oracle import assert_equivalent
from repro.workflows import spark_queries as q

SF_DS = 0.005
SF_PAY = 0.0002


@pytest.fixture(scope="module")
def tables(spark):
    return {k: v.cache() for k, v in synth_data.tpcds_lite(spark, sf=SF_DS).items()}


@pytest.fixture(scope="module")
def pay(spark):
    return synth_data.payments(spark, sf=SF_PAY).cache()


@pytest.fixture(scope="module")
def by_user(spark):
    return synth_data.payments_by_user(spark, sf=SF_PAY).cache()


class TestW2:
    def test_oracle_equivalence(self, tables):
        """The W2 join chain + aggregation matches DuckDB on the same
        input — catches broken joins and wrong filters."""
        assert_equivalent(q.w2_query(tables), q.W2_SQL, **tables)

    def test_stage_cardinalities_monotone(self, tables):
        counts = [df.count() for df in q.w2_stages(tables)]
        # J1 is a left join (no loss), J2 an FK join, J3/J4 filter.
        assert counts[0] >= counts[2] >= counts[3]

    def test_left_join_preserves_sales(self, tables):
        j1 = q.w2_stages(tables)[0]
        assert j1.count() >= tables["catalog_sales"].count()

    def test_price_filter_applied(self, tables):
        j3 = q.w2_stages(tables)[2]
        bad = j3.filter(
            ~F.col("i_current_price").between(q.W2_PRICE_LO, q.W2_PRICE_HI)
        )
        assert bad.count() == 0


class TestW3:
    def test_oracle_equivalence(self, tables):
        assert_equivalent(q.w3_query(tables), q.W3_SQL, **tables)

    def test_union_is_sum_of_channels(self, tables):
        s = q.w3_stages(tables)
        assert s["U1"].count() == s["J5"].count() + s["J6"].count() + s["J7"].count()

    def test_meal_time_filter(self, tables):
        j9 = q.w3_stages(tables)["J9"]
        assert j9.filter(~F.col("t_meal_time").isin("breakfast", "dinner")).count() == 0


class TestW1:
    def test_scores_match_reference(self, spark, pay):
        """Spark applyInPandas scoring equals a pure-pandas reference."""
        out = (
            q.w1_pipeline(pay, version=2)
            .select("payment_id", "score")
            .toPandas()
            .sort_values("payment_id")
            .reset_index(drop=True)
        )
        ref_in = pay.select("payment_id", "seq", "user_id", "amount").toPandas()
        model = RecurrentAutoencoder(window=10, hidden=16, seed=0)
        ref = (
            score_partition(
                ref_in, model, window=10, key_col="user_id",
                amount_col="amount", order_col="seq",
            )[["payment_id", "score"]]
            .sort_values("payment_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, ref, check_dtype=False, atol=1e-9)

    def test_every_payment_scored_once(self, pay):
        out = q.w1_pipeline(pay)
        assert out.count() == pay.count()
        assert out.select("payment_id").distinct().count() == pay.count()

    def test_version_changes_scores(self, pay):
        s1 = q.w1_pipeline(pay, version=1).agg(F.sum("score")).first()[0]
        s2 = q.w1_pipeline(pay, version=2).agg(F.sum("score")).first()[0]
        assert s1 != s2

    def test_scores_in_unit_interval(self, pay):
        out = q.w1_pipeline(pay)
        assert out.filter((F.col("score") < 0) | (F.col("score") >= 1)).count() == 0


class TestW4:
    def test_relational_skeleton_oracle(self, by_user):
        """F1+U2 (filter + unnest), as ``w4_pipeline`` and ``w4_with_swap``
        run them, checked against DuckDB UNNEST. Every user at this SF has
        more than 3 payments, so the threshold is above the median list
        size: F1 must drop users."""
        med = by_user.select(F.expr("percentile(size(pays), 0.5)")).first()[0]
        n = int(med) + 1
        assert_equivalent(
            q.w4_unnest(by_user, min_payments=n),
            q.W4_RELATIONAL_SQL.format(min_payments=n), by_user=by_user,
        )

    def test_unnest_count(self, by_user):
        out = q.w4_pipeline(by_user, min_payments=1)
        total = by_user.select(F.sum(F.size("pays"))).first()[0]
        assert out.count() == total

    def test_min_payments_filter(self, by_user):
        # Threshold above the median list size must drop some users (the
        # zipf users at this SF all have many payments, so derive the
        # threshold from the data).
        med = by_user.select(F.expr("percentile(size(pays), 0.5)")).first()[0]
        all_rows = q.w4_pipeline(by_user, min_payments=1).count()
        filtered = q.w4_pipeline(by_user, min_payments=int(med) + 1).count()
        assert 0 < filtered < all_rows

    def test_both_scores_present(self, by_user):
        out = q.w4_pipeline(by_user)
        assert {"user_score", "merchant_score", "fraud"} <= set(out.columns)
        assert out.filter(F.col("user_score").isNull()).count() == 0


class TestW5:
    def test_selfjoin_exactly_one_row_per_payment(self, pay):
        out = q.w5_pipeline(pay)
        assert out.count() == pay.count()
        assert out.select("payment_id").distinct().count() == pay.count()

    def test_combined_weighting(self, pay):
        out = q.w5_pipeline(pay, weights=(0.4, 0.6)).limit(200).toPandas()
        expect = (0.4 * out.user_score + 0.6 * out.merchant_score).round(6)
        np.testing.assert_allclose(out.combined, expect, atol=1e-6)

    def test_branch_versions_independent(self, pay):
        a = q.w5_pipeline(pay, fd3_version=1, fd4_version=2).agg(F.sum("combined")).first()[0]
        b = q.w5_pipeline(pay, fd3_version=2, fd4_version=2).agg(F.sum("combined")).first()[0]
        assert a != b
