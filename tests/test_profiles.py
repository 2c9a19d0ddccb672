"""Tests for Spark-side workload profiling (simulator calibration)."""
import random

import pytest

from repro import synth_data
from repro.workflows.profiles import (
    key_dist_of,
    profile_w1,
    profile_w2,
    profile_w3,
    worker_skew,
)

SF = 0.005


@pytest.fixture(scope="module")
def tables(spark):
    return {k: v.cache() for k, v in synth_data.tpcds_lite(spark, sf=SF).items()}


# Each profile runs several Spark jobs; compute it once per module.
@pytest.fixture(scope="module")
def w2_profile(tables):
    return profile_w2(tables)


@pytest.fixture(scope="module")
def w3_profile(tables):
    return profile_w3(tables)


class TestProfileW2:
    def test_selectivities_in_unit_range(self, w2_profile):
        p = w2_profile
        for j in ("J2", "J3", "J4"):
            assert 0.0 < p.selectivity[j] <= 1.0

    def test_j1_left_join_no_loss(self, w2_profile):
        p = w2_profile
        assert p.selectivity["J1"] >= 1.0

    def test_filters_reduce_rows(self, w2_profile):
        p = w2_profile
        assert p.selectivity["J3"] < 0.6  # price filter bites
        assert p.rows["J4"] < p.rows["J1"]

    def test_key_dists_present(self, w2_profile):
        p = w2_profile
        assert set(p.key_dists) == {"J1", "J2", "J3", "J4"}

    def test_warehouse_key_is_skewed_across_workers(self, w2_profile):
        # 6 warehouses on 8 workers (profile_w2's default parallelism):
        # some workers idle -> max/mean > 1.
        p = w2_profile
        assert p.skew["J2"] > 1.0


class TestProfileW3:
    def test_channel_selectivities(self, w3_profile):
        p = w3_profile
        for j in ("J5", "J6", "J7"):
            assert 0.02 < p.selectivity[j] < 0.3  # half-year date filter

    def test_union_row_count(self, w3_profile):
        p = w3_profile
        assert p.rows["U1"] == p.rows["J5"] + p.rows["J6"] + p.rows["J7"]


class TestProfileW1:
    def test_user_skew_measured(self, spark):
        pay = synth_data.payments(spark, sf=0.0002)
        p = profile_w1(pay, parallelism=4)
        assert p.skew["FD"] > 1.0  # zipf users load workers unevenly


class TestHelpers:
    def test_key_dist_mass_preserved(self, spark):
        pay = synth_data.payments(spark, sf=0.0002)
        d = key_dist_of(pay, "user_id", top=10)
        assert d.cum_weights[-1] == pytest.approx(pay.count())

    def test_key_dist_sampling_matches_frequencies(self, spark):
        pay = synth_data.payments(spark, sf=0.0002)
        d = key_dist_of(pay, "user_id", top=50)
        rng = random.Random(0)
        samples = [d.sample(rng) for _ in range(1000)]
        # The most frequent key must dominate the samples too.
        assert samples.count(d.values[0]) >= samples.count(d.values[-1])

    def test_worker_skew_uniform_is_one(self):
        from repro.engine.workload import KeyDist

        d = KeyDist.table(list(range(8)), [1.0] * 8)
        assert worker_skew(d, 4) == pytest.approx(1.0)

    def test_worker_skew_concentrated(self):
        from repro.engine.workload import KeyDist

        d = KeyDist.table([0], [1.0])
        assert worker_skew(d, 4) == pytest.approx(4.0)
