"""Reproduce Table 5 (delays in W4 with the one-to-many unnest U2).

Usage: spark-submit jobs/run_table5.py [--sf 0.001]

With ``--sf`` the unnest fan-out is profiled over
``synth_data.payments_by_user`` (``repro.workflows.profiles.profile_w4``):
its mean, payments per user, parameterises the simulator. ``synth_data``
fixes 120 payments per user at every SF, so a profiled run simulates a
different W4 from the committed ``benchmarks/out/table5.txt`` (fan-out 12).
The job exits with status 1 if a request does not complete by
``TABLE5_T_MAX``, as some do at a profiled fan-out of 120.
"""
import argparse

from _session import exit_if_unfinished

from repro.experiments import TABLE5_T_MAX, format_table, table5_rows


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.0)
    ap.add_argument("--parallelism", type=int, default=4)
    args = ap.parse_args()

    fanout = 12  # the fan-out of the committed benchmarks/out/table5.txt
    if args.sf > 0:
        from _session import get_spark

        from repro import synth_data
        from repro.workflows.profiles import profile_w4

        spark = get_spark("fries-table5-profile")
        bu = synth_data.payments_by_user(spark, sf=args.sf)
        profiled = max(2, int(profile_w4(bu).selectivity["U2"]))
        print(f"profiled unnest fanout: {profiled} (the committed benchmarks/out/table5.txt "
              f"uses {fanout}; rows at another fan-out differ from it)")
        fanout = profiled
        spark.stop()

    rows = table5_rows(parallelism=args.parallelism, fanout=fanout)
    print(format_table(rows, "Table 5 — delays in W4 with one-to-many U2 (ms, simulated)"))
    exit_if_unfinished(rows, ("fries_ms", "epoch_ms"), "TABLE5_T_MAX", TABLE5_T_MAX)


if __name__ == "__main__":
    main()
