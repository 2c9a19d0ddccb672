"""Tests for the Spark-side reconfiguration executors: the mini-batch epoch
executor (Table 2's Spark Streaming strategy) and the swap-schedule replay
(consistency of naive/Fries/epoch schedules on real Catalyst execution)."""
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.streaming import (
    count_mixed,
    epoch_schedule,
    fries_schedule,
    mixed_version_txns,
    naive_schedule,
    run_w1_microbatch,
    versions_per_txn,
    w4_with_swap,
)
from repro.workflows.spark_queries import w1_pipeline, w4_pipeline

SF = 0.0001


@pytest.fixture(scope="module")
def pay(spark):
    return synth_data.payments(spark, sf=SF).cache()


@pytest.fixture(scope="module")
def by_user(spark):
    return synth_data.payments_by_user(spark, sf=SF).cache()


@pytest.fixture(scope="module")
def run_500_700(pay):
    return run_w1_microbatch(pay, epoch_size=500, request_seq=700)


# Each replay runs two FD scoring passes; build every distinct schedule once.
def _replay(by_user, schedule):
    return w4_with_swap(by_user, schedule, min_payments=2).cache()


@pytest.fixture(scope="module")
def naive_out(by_user):
    total = by_user.select(F.sum(F.size("pays"))).first()[0]
    return _replay(by_user, naive_schedule(total // 2, total // 3))


@pytest.fixture(scope="module")
def fries_median_out(by_user):
    med = by_user.select(F.expr("percentile(pays[0].seq, 0.5)")).first()[0]
    return _replay(by_user, fries_schedule(int(med)))


@pytest.fixture(scope="module")
def epoch_out(by_user):
    return _replay(by_user, epoch_schedule(100))


@pytest.fixture(scope="module")
def all_v1_out(by_user):
    return _replay(by_user, fries_schedule(1 << 60))


@pytest.fixture(scope="module")
def all_v2_out(by_user):
    return _replay(by_user, fries_schedule(0))


class TestMicrobatch:
    def test_every_tuple_processed_once(self, pay):
        run = run_w1_microbatch(pay, epoch_size=500)
        assert len(run.output) == pay.count()
        assert run.output.payment_id.is_unique

    def test_reconfig_applies_at_epoch_boundary(self, run_500_700):
        run = run_500_700
        assert run.apply_epoch == 2
        out = run.output
        assert (out[out.epoch < 2].version == 1).all()
        assert (out[out.epoch >= 2].version == 2).all()

    def test_epoch_delay_in_tuples(self, run_500_700):
        """The §3.2 limitation: tuples between the request and the epoch
        boundary are still processed with the old configuration."""
        run = run_500_700
        assert run.delay_tuples == 300  # seqs 700..999 of epoch 1

    def test_no_mixed_versions_per_epoch(self, pay):
        run = run_w1_microbatch(pay, epoch_size=400, request_seq=100)
        mixed = run.output.groupby("epoch").version.nunique()
        assert (mixed == 1).all()

    def test_score_is_w1_under_row_version(self, pay, run_500_700):
        """Every row's score is exactly W1's score for that payment under the
        row's own version: epoch boundaries don't reset operator state, and
        the swap changes only the model."""
        out = run_500_700.output.set_index("payment_id")
        assert set(out.version) == {1, 2}
        for v in (1, 2):
            w1 = w1_pipeline(pay, version=v).select("payment_id", "score").toPandas()
            rows = out[out.version == v]
            assert (rows.score == w1.set_index("payment_id").score[rows.index]).all()

    def test_larger_epochs_larger_delay(self, pay):
        d1 = run_w1_microbatch(pay, epoch_size=200, request_seq=100).delay_tuples
        d2 = run_w1_microbatch(pay, epoch_size=1000, request_seq=100).delay_tuples
        assert d2 > d1


class TestSwapSchedules:
    def test_naive_produces_mixed_transactions(self, naive_out):
        """The §4.1/§6.1 anomaly on real Spark execution: independent
        per-operator cut points split fanned-out transactions."""
        assert count_mixed(naive_out, ["v_FD1", "v_FD2"]) > 0

    def test_fries_schedule_never_mixed(self, fries_median_out):
        assert count_mixed(fries_median_out, ["v_FD1", "v_FD2"]) == 0

    def test_epoch_schedule_never_mixed(self, epoch_out):
        assert count_mixed(epoch_out, ["v_FD1", "v_FD2"]) == 0

    def test_fries_both_versions_used(self, fries_median_out):
        out = fries_median_out
        versions = {r["v_FD1"] for r in out.select("v_FD1").distinct().collect()}
        assert versions == {1, 2}  # the swap really happened mid-stream

    def test_scores_follow_version(self, all_v1_out, all_v2_out):
        """Per-row version selection works: an all-v1 run and an all-v2 run
        produce different scores (heavy vs light model)."""
        all_v1, all_v2 = all_v1_out, all_v2_out
        s1 = all_v1.agg(F.sum("user_score")).first()[0]
        s2 = all_v2.agg(F.sum("user_score")).first()[0]
        assert s1 != s2

    def test_all_v1_scores_match_w4_pipeline(self, by_user, all_v1_out):
        """The replay's v1 scores are the plain W4 pipeline's, row by row:
        both paths score FD1/FD2 through the same per-key scoring."""
        cols = ["seq", "user_score", "merchant_score"]
        replay = all_v1_out
        plain = w4_pipeline(by_user, min_payments=2)
        a = replay.select(*cols).toPandas().sort_values("seq").reset_index(drop=True)
        b = plain.select(*cols).toPandas().sort_values("seq").reset_index(drop=True)
        assert len(a) > 0 and a["seq"].is_unique
        assert a.equals(b)


class TestConsistencyModule:
    def test_versions_per_txn_counts(self, naive_out):
        out = naive_out
        vpt = versions_per_txn(out, ["v_FD1", "v_FD2"])
        assert {"txn", "n_versions", "min_version", "max_version"} <= set(vpt.columns)
        assert vpt.count() == out.select("txn").distinct().count()

    def test_mixed_txns_subset(self, naive_out):
        out = naive_out
        mixed = mixed_version_txns(out, ["v_FD1", "v_FD2"])
        assert mixed.filter(F.col("n_versions") <= 1).count() == 0
