"""Tests for Spark-side workload profiling (simulator calibration)."""
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.workflows import defs
from repro.workflows.profiles import profile_w2, profile_w3, profile_w4

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


class TestProfileW3:
    def test_channel_selectivities(self, w3_profile):
        p = w3_profile
        for j in ("J5", "J6", "J7"):
            assert 0.02 < p.selectivity[j] < 0.3  # half-year date filter

    def test_union_row_count(self, w3_profile):
        p = w3_profile
        assert p.rows["U1"] == p.rows["J5"] + p.rows["J6"] + p.rows["J7"]


def test_selectivity_keys_match_defs(w2_profile, w3_profile):
    """``run_table4.py --profile`` overrides the recorded defaults key by
    key, so a profile must measure exactly the joins ``defs`` records."""
    assert w2_profile.selectivity.keys() == defs.W2_SELECTIVITY.keys()
    assert w3_profile.selectivity.keys() == defs.W3_SELECTIVITY.keys()


def test_w4_fanout_is_payments_per_user(spark):
    by_user = synth_data.payments_by_user(spark, sf=0.0002)
    users = by_user.count()
    pays = synth_data.payments(spark, sf=0.0002).count()
    p = profile_w4(by_user)
    assert p.rows == {"src": users, "U2": pays}
    assert p.selectivity["U2"] == pays / users
    assert p.selectivity["U2"] == by_user.select(F.avg(F.size("pays"))).first()[0]
