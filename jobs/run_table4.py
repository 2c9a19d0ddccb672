"""Reproduce Table 4 (reconfiguration delays in W2/W3, Fries vs Epoch).

Usage: spark-submit jobs/run_table4.py [--profile] [--sf 0.02]

With ``--profile`` the W2/W3 Spark pipelines are first profiled over
``synth_data.tpcds_lite`` at the given scale factor and the measured join
selectivities are fed into the engine simulator; otherwise the recorded
defaults in ``repro.workflows.defs`` (measured the same way) are used.
The job exits with status 1 if a request does not complete by
``TABLE4_T_MAX``.
"""
import argparse

from _session import exit_if_unfinished

from repro.experiments import TABLE4_T_MAX, format_table, table4_rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--sf", type=float, default=0.02)
    ap.add_argument("--parallelism", type=int, default=4)
    ap.add_argument("--rate", type=float, default=8000.0)
    args = ap.parse_args()

    w2_sel = w3_sel = None
    if args.profile:
        from _session import get_spark

        from repro import synth_data
        from repro.workflows import defs
        from repro.workflows.profiles import profile_w2, profile_w3

        spark = get_spark("fries-table4-profile")
        tables = synth_data.tpcds_lite(spark, sf=args.sf)
        p2, p3 = profile_w2(tables), profile_w3(tables)
        # Profiled joins override the recorded defaults, capped at 1.
        w2_sel = {**defs.W2_SELECTIVITY, **{k: min(v, 1.0) for k, v in p2.selectivity.items()}}
        w3_sel = {**defs.W3_SELECTIVITY, **{k: min(v, 1.0) for k, v in p3.selectivity.items()}}
        print("profiled W2 selectivities:", {k: round(v, 3) for k, v in p2.selectivity.items()})
        print("profiled W3 selectivities:", {k: round(v, 3) for k, v in p3.selectivity.items()})
        spark.stop()

    rows = table4_rows(
        parallelism=args.parallelism, rate=args.rate, w2_selectivity=w2_sel, w3_selectivity=w3_sel
    )
    print(format_table(rows, "Table 4 — reconfiguration delay in W2/W3 (ms, simulated)"))
    exit_if_unfinished(rows, ("fries_ms", "epoch_ms"), "TABLE4_T_MAX", TABLE4_T_MAX)


if __name__ == "__main__":
    main()
