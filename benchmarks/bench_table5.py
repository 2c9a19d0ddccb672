"""Benchmark reproducing Table 5: reconfiguration delay in W4 (the
dataflow with the one-to-many unnest operator U2) — Fries (Algorithm 3)
vs the Epoch scheduler."""
import math
import pathlib

from repro.experiments import format_table, table5_rows

OUT = pathlib.Path(__file__).parent / "out"


def test_table5_delays(benchmark):
    rows = benchmark.pedantic(
        lambda: table5_rows(parallelism=4, fanout=12),
        rounds=1,
        iterations=1,
    )
    text = format_table(rows, "Table 5 — delays in W4 with one-to-many U2 (ms, simulated)")
    OUT.mkdir(exist_ok=True)
    (OUT / "table5.txt").write_text(text)
    print("\n" + text)
    # Every delay must be finite, or the comparisons below pass vacuously.
    for r in rows:
        assert all(math.isfinite(r[k]) for k in ("fries_ms", "epoch_ms")), r
    by_ops = {r["reconfig_ops"]: r for r in rows}
    # Shape: F1,U2 tiny; FD1 large; F2 the largest; Fries <= Epoch everywhere.
    assert by_ops["F1, U2"]["fries_ms"] < 1000
    assert by_ops["FD1"]["fries_ms"] > 100 * by_ops["F1, U2"]["fries_ms"]
    assert by_ops["F2"]["fries_ms"] >= by_ops["FD1"]["fries_ms"]
    for r in rows:
        assert r["fries_ms"] <= r["epoch_ms"] + 1e-6, r
