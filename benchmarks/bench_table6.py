"""Benchmark reproducing Table 6: effect of §6.3 MCS pruning on the
reconfiguration delay in W5 (Replicate + Self-Join)."""
import math
import pathlib

from repro.experiments import format_table, table6_rows

OUT = pathlib.Path(__file__).parent / "out"


def test_table6_pruning(benchmark):
    rows = benchmark.pedantic(
        lambda: table6_rows(),
        rounds=1,
        iterations=1,
    )
    text = format_table(rows, "Table 6 — effect of MCS pruning in W5 (ms, simulated)")
    OUT.mkdir(exist_ok=True)
    (OUT / "table6.txt").write_text(text)
    print("\n" + text)
    # Every delay must be finite, or the comparisons below pass vacuously.
    for r in rows:
        assert all(math.isfinite(r[k]) for k in ("pruned_ms", "unpruned_ms")), r
    by_ops = {r["reconfig_ops"]: r for r in rows}
    # Shape: pruning collapses the delay where possible by orders of
    # magnitude; where impossible (FD3+FD4) the delays are ~equal.
    for ops in ("FD4", "F3", "E1"):
        assert by_ops[ops]["pruned_ms"] * 50 < by_ops[ops]["unpruned_ms"], ops
    fd34 = by_ops["FD3, FD4"]
    assert abs(fd34["pruned_ms"] - fd34["unpruned_ms"]) < 0.1 * fd34["unpruned_ms"]
    # F4: both small (no slow operator between RE and F4).
    assert by_ops["F4"]["unpruned_ms"] < 1000
    # FD4's unpruned row exceeds F3's: FD4 has a straggler worker.
    assert by_ops["FD4"]["unpruned_ms"] > by_ops["F3"]["unpruned_ms"]
