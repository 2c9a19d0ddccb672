"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that:
every metric named in ``BENCHMARK.json`` is emitted with its unit and no
operation fails; two traced runs with one seed give identical counts; a
corrupted reference value, paper MCS or Table 7 count makes an operation
fail; and the command exits non-zero, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark. Exits 1 on any problem.
"""
from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import reference  # noqa: E402
from harness import Hooks  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

# Counts the simulator produces deterministically for a seed.
COUNTS = (
    "engine.events", "engine.tuples", "engine.record_ops", "engine.channels",
    "engine.overrun_virtual_s", "engine.backlog_at_request",
)
# Tiny runs: enough requests to complete a Fries/Epoch pair, and for
# fraud-consistency to reach a naive request and a Table 6 pair.
TINY_OPS = {"joins-p4": 2, "joins-p40": 4, "fraud-consistency": 5}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok      " if ok else "PROBLEM ") + what, flush=True)
    if not ok:
        problems.append(what)


def check_metric_names(benchmark_json: dict, refs: dict) -> None:
    declared = {
        False: {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]},
        True: {m["name"]: m["unit"] for m in benchmark_json["per_layer"]},
    }
    expect({w["name"] for w in benchmark_json["workloads"]} == set(WORKLOADS), "BENCHMARK.json names every workload")
    for name, n_ops in TINY_OPS.items():
        seconds = WORKLOADS[name].nominal_op_s * n_ops
        counts = []
        for traced in (False, True, True):
            res = bench.run_workload(name, 7, seconds, traced, refs, tiny=True)
            tag = f"{name} tiny trace={int(traced)}"
            expect(not res.ledger.failures, f"{tag}: no failed operation {res.ledger.failures}")
            got = {k: unit for k, (_, unit, _) in res.metrics.items()}
            expect(got == declared[traced], f"{tag}: emits exactly the declared metrics with their units")
            if traced:
                counts.append({k: res.metrics[k][0] for k in COUNTS})
        expect(counts[0] == counts[1], f"{name}: counts repeat exactly {counts[0]}")


def check_gates_can_fail(refs: dict) -> None:
    """A corrupted reference makes the matching check fail, and only it."""
    req = Request("table5", "W4", ("F1", "U2"), "fries")

    def failures(refs_: dict) -> list[str]:
        ledger = bench.Ledger()
        checker = bench.Checker(refs_, 7, False, ledger)
        with Hooks(traced=False) as hooks:
            bench.execute(hooks, req, 7, False, checker)
        return ledger.failures

    expect(failures(refs) == [], "W4 {F1,U2} fries passes against the committed tables")
    for column, value in (("fries_ms", "4"), ("paper_mcs", "{*F1*}"), ("mcs", "{*U2*, F1}")):
        bad = copy.deepcopy(refs)
        next(r for r in bad["table5"] if r["reconfig_ops"] == "F1, U2")[column] = value
        expect(len(failures(bad)) == 1, f"a corrupted table5 {column} fails one check")
    bad = copy.deepcopy(refs)
    bad["table7"][-1]["paper_channels_mcs"] = "4,801"
    ledger = bench.Ledger()
    bench.Checker(bad, 7, False, ledger).table7()
    expect(len(ledger.failures) == 1, "a corrupted Table 7 count fails one check")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "joins-p4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(p.returncode != 0 and "{" not in p.stdout, "exits non-zero with no result without the program")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    benchmark_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = reference.load(ROOT / "benchmarks" / "out")
    check_bare_directory()
    check_gates_can_fail(refs)
    check_metric_names(benchmark_json, refs)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
