"""Reproduce Table 6 (effect of MCS pruning on delay in W5).

Usage: spark-submit jobs/run_table6.py

The job exits with status 1 if a request does not complete by
``TABLE6_T_MAX``.
"""
from _session import exit_if_unfinished

from repro.experiments import TABLE6_T_MAX, format_table, table6_rows


def main() -> None:
    rows = table6_rows()
    print(format_table(rows, "Table 6 — effect of MCS pruning in W5 (ms, simulated)"))
    exit_if_unfinished(rows, ("pruned_ms", "unpruned_ms"), "TABLE6_T_MAX", TABLE6_T_MAX)


if __name__ == "__main__":
    main()
