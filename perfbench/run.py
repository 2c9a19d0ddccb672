"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload joins-p4 --seed 7 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` and
the reference tables from ``benchmarks/out/``; without them the command
exits with code 2 and prints no result. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Lines before it list every request, every failed check and
the same metrics with their sample counts. Metric definitions are in
``perfbench/METRICS.md``.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src, tables = ROOT / "src", ROOT / "benchmarks" / "out"
    if not (src / "repro").is_dir() or not tables.is_dir():
        print(f"perfbench: {src}/repro or {tables} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    import reference

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference.load(tables))
    failed = len(result.ledger.failures)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"attempted={result.ledger.attempted} failed={failed}")
    for op in result.ops:
        print(f"op {op['name']:32s} wall {op['wall_s']:7.3f} s  probe {op['probe_s'] * 1e3:6.2f} ms"
              f"  delay {op['delay_ms']:12.1f} ms")
    for why in result.ledger.failures:
        print(f"FAILED {why}")
    for key, (value, unit, n) in result.metrics.items():
        print(f"{key:30s} {value:>16.6g} {unit:10s} n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
