"""Run the W1–W5 Spark data planes over the synthetic datasets and verify
W2/W3 (and W4's relational skeleton) against the DuckDB oracle.

Usage: spark-submit jobs/run_workflows.py [--sf-ds 0.01] [--sf-pay 0.001]
"""
import argparse

from _session import get_spark
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent
from repro.workflows import spark_queries as q


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-ds", type=float, default=0.01)
    ap.add_argument("--sf-pay", type=float, default=0.001)
    args = ap.parse_args()
    spark = get_spark("fries-workflows")

    tables = synth_data.tpcds_lite(spark, sf=args.sf_ds)
    w2 = q.w2_query(tables)
    assert_equivalent(w2, q.W2_SQL, **tables)
    print(f"W2 (q40-lite): {w2.count()} result rows — DuckDB oracle OK")
    w3 = q.w3_query(tables)
    assert_equivalent(w3, q.W3_SQL, **tables)
    print(f"W3 (q71-lite): {w3.count()} result rows — DuckDB oracle OK")

    pay = synth_data.payments(spark, sf=args.sf_pay).cache()
    by_user = synth_data.payments_by_user(spark, sf=args.sf_pay).cache()
    w1 = q.w1_pipeline(pay)
    print(f"W1: scored {w1.count()} payments, "
          f"{w1.filter('fraud').count()} flagged")
    # A threshold above the median list size, so that F1 drops users.
    med = by_user.select(F.expr("percentile(size(pays), 0.5)")).first()[0]
    n = int(med) + 1
    assert_equivalent(q.w4_unnest(by_user, min_payments=n),
                      q.W4_RELATIONAL_SQL.format(min_payments=n), by_user=by_user)
    w4 = q.w4_pipeline(by_user)
    print(f"W4: {w4.count()} unnested payments scored — unnest oracle OK")
    w5 = q.w5_pipeline(pay)
    print(f"W5: {w5.count()} payments through replicate+self-join")
    spark.stop()


if __name__ == "__main__":
    main()
