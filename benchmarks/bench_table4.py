"""Benchmark reproducing Table 4: reconfiguration delay of Fries vs the
Epoch scheduler for reconfiguration sets in W2 and W3.

Engine parameters are calibrated from Spark profiles of the same
workflows over ``synth_data.tpcds_lite`` (selectivity defaults in
``repro.workflows.defs``). Results are printed side by side with the
paper's numbers and written to ``benchmarks/out/table4.txt``.
"""
import math
import pathlib
import re

from repro.experiments import format_table, table4_rows

OUT = pathlib.Path(__file__).parent / "out"


def components(mcs: str) -> set[frozenset[str]]:
    """An MCS column as its components, each a set of operator names:
    ``"{*J5*, U1} {*J6*}"`` → ``{{J5, U1}, {J6}}`` (heads' asterisks
    dropped)."""
    return {
        frozenset(v.strip() for v in comp.split(","))
        for comp in re.findall(r"\{([^}]*)\}", mcs.replace("*", ""))
    }


def test_table4_delays(benchmark):
    rows = benchmark.pedantic(
        lambda: table4_rows(parallelism=4, rate=8000.0),
        rounds=1,
        iterations=1,
    )
    text = format_table(rows, "Table 4 — reconfiguration delay in W2/W3 (ms, simulated)")
    OUT.mkdir(exist_ok=True)
    (OUT / "table4.txt").write_text(text)
    print("\n" + text)
    # Every delay must be finite, or the comparisons below pass vacuously.
    for r in rows:
        assert all(math.isfinite(r[k]) for k in ("fries_ms", "epoch_ms")), r
    # Shape assertions (DESIGN.md §5).
    for r in rows:
        assert r["fries_ms"] <= r["epoch_ms"], r
        assert components(r["mcs"]) == components(r["paper_mcs"]), r
    singles = [r for r in rows if r["longest_path"] == 0]
    multis = [r for r in rows if r["longest_path"] >= 2]
    assert max(r["fries_ms"] for r in singles) < min(r["epoch_ms"] for r in rows) / 10
    assert min(r["fries_ms"] for r in multis) > max(r["fries_ms"] for r in singles)
