"""Run the benchmark in alternating parent/change pairs and log every run.

    python3 scripts/perf_pairs.py --workload joins-p4 --pairs 10 --parent HEAD~1

Run from the repository root. Each pair runs the unmodified
``perfbench/run.py`` once in a checkout of the committed files of
``--parent`` (extracted with ``git archive``) and once in a copy of what a
run reads from the working tree (``src/``, ``perfbench/``, ``benchmarks/``
and ``BENCHMARK.json``), one after the other, never at the same time;
which side goes first alternates from pair to pair. The two trees are
sibling temporary directories whose paths have one length: a run's
``peak_rss_mb`` moves by up to 1.5 MB with the length of its tree's path.
Before the first pair, ``src/`` and ``perfbench/`` of both trees are
byte-compiled, so that no run compiles a module (with
``PYTHONDONTWRITEBYTECODE`` set, a tree without ``.pyc`` files would
compile every module in every run). The script prints each
side's median and quartiles of every end-to-end metric that
``BENCHMARK.json`` declares, how many pairs the change won on it, and the
verdict on a claimed gain: met only if the change won at least 9 of every
10 pairs (ties count for neither side) and its median beats the parent's by
more than the parent's interquartile range.

Every run appends one record to ``BENCH_perfbench.json``: the commit, the
side, the workload, the seed, the end-to-end metrics, ``attempted``,
``failed`` and the median host probe of the run's ``op`` lines. Records
already in the file are kept as they are.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
LOG = ROOT / "BENCH_perfbench.json"
PROBE = re.compile(r"^op .* probe\s+([0-9.]+) ms")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: pathlib.Path) -> None:
    """The committed files of ``rev`` under ``into``."""
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(into, filter="data")


def copy_working_tree(into: pathlib.Path) -> None:
    """What a benchmark run reads from the working tree, under ``into``."""
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "perfbench", "benchmarks"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", into)


def compile_tree(tree: pathlib.Path) -> None:
    """Byte-compile what a benchmark run in ``tree`` imports."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)


def run_once(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line plus the
    median probe of its ``op`` lines."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    probes = [float(m.group(1)) for m in map(PROBE.match, lines) if m]
    result["probe_ms"] = statistics.median(probes) if probes else None
    return result


def append_record(record: dict, log: pathlib.Path = LOG) -> None:
    """Add ``record`` to ``log``, one record a line, after the records
    already there."""
    line = json.dumps(record, sort_keys=True)
    if not log.exists():
        log.write_text(f"[\n{line}\n]\n")
        return
    text = log.read_text().rstrip()
    if not text.endswith("]"):
        raise ValueError(f"{log} does not end in ']'")
    body = text[:-1].rstrip()
    sep = "" if body == "[" else ","
    log.write_text(f"{body}{sep}\n{line}\n]\n")
    json.loads(log.read_text())  # still one JSON list


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(wins: int, pairs: int, parent_median: float, change_median: float, parent_iqr: float,
            better: str) -> str:
    """Whether a gain may be claimed: the change won at least 9 of every 10
    pairs, and its median beats the parent's by more than the parent's
    interquartile range."""
    gain = change_median - parent_median if better == "higher" else parent_median - change_median
    won = 10 * wins >= 9 * pairs
    clear = gain > parent_iqr
    met = "claim met" if won and clear else "claim not met"
    return (f"{met}: won {wins}/{pairs} pairs ({'≥' if won else '<'} 9/10), median gain {gain:.6g} "
            f"{'>' if clear else '≤'} parent IQR {parent_iqr:.6g}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    # Uncommitted edits to what a benchmark run reads.
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench", "benchmarks/out"))
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    wins = {m["name"]: 0 for m in metrics}
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        trees = {side: pathlib.Path(tmp, side) for side in ("parent", "change")}
        extract(commits["parent"], trees["parent"])
        copy_working_tree(trees["change"])
        for tree in trees.values():
            compile_tree(tree)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                result = run_once(trees[side], args.workload, args.seed)
                got[side] = {k: v["value"] for k, v in result["metrics"].items()}
                append_record({
                    "commit": commits[side], "dirty": dirty and side == "change", "side": side,
                    "workload": args.workload, "seed": args.seed, "pair": i, "first": order[0],
                    "metrics": got[side], "attempted": result["attempted"], "failed": result["failed"],
                    "probe_ms": result["probe_ms"],
                })
                print(f"pair {i} {side:6s} attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in got[side].items()), flush=True)
            for m in metrics:
                name = m["name"]
                for side in order:
                    values[side].setdefault(name, []).append(got[side][name])
                p, c = got["parent"][name], got["change"][name]
                wins[name] += c < p if m["better"] == "lower" else c > p
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, parent {commits['parent'][:10]}, "
          f"change {commits['change'][:10]}{' (dirty)' if dirty else ''}")
    for m in metrics:
        name = m["name"]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(values[s][name]) for s in ("parent", "change"))
        gain = (cmed / pmed - 1.0) * 100.0 if pmed else float("nan")
        print(f"  {name:18s} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]"
              f"  {gain:+.1f} %  change better in {wins[name]}/{args.pairs} ({m['better']} is better)")
        print(f"  {'':18s} {verdict(wins[name], args.pairs, pmed, cmed, pq3 - pq1, m['better'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
