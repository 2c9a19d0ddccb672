"""Time the simulator's event loop in alternating parent/change pairs.

    python3 scripts/loop_pairs.py --pairs 30 --parent HEAD~1

Run from the repository root. A loop is one fixed warm-up, from
``Simulator.start`` to ``Simulator.run(until=...)``, at ``--seed`` (by
default 7, the benchmark's):

* ``W2-p4``: W2 at p=4 and 8 000 tuples/s, unrecorded, for 8 virtual s;
* ``W2-p40``: W2 at p=40 (6 440 channels), unrecorded, for 2 virtual s;
* ``W5-rec``: W5 at p=4 and 300 tuples/s, recording every operation, for
  40 virtual s.

perfbench's end-to-end times spread too widely to resolve a loop cost of
5–10 %: their interquartile range was 4–11 % of the median in 10-pair runs
on a 4-vCPU host. On such a host the speed of one loop also drifts by up
to 2x over tens of seconds, in CPU time as much as in wall time. So one
process per side (the trees of ``perf_pairs.py``: the committed files of
``--parent`` and a copy of the working tree, in sibling temporary
directories, byte-compiled first) stays up and runs one loop at a time on
request. A pair is one run of a loop on each side, back to back, never at
the same time, and the first side alternates from pair to pair. Each
process first runs every loop once untimed, so that lazy set-up is done.

Every run appends one record to ``BENCH_loops.json``: the commit, the
side, the loop, the pair, the wall, and the loop's ordering keys taken and
source tuples sent, which must be equal on both sides (a change that alters
the run would time different work). The script prints, per loop, each
side's minimum wall over all pairs and the change's cost from them, the
median and quartiles of the change's cost within a pair, and the pairs in
which the change was faster.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

import perf_pairs

ROOT = perf_pairs.ROOT
LOG = ROOT / "BENCH_loops.json"
LOOPS = ("W2-p4", "W2-p40", "W5-rec")

# Run in a tree with ``src`` on the path: for each loop name read from
# standard input, one timed run, printed as one JSON line.
TIMER = """
import gc, json, sys, time
from repro.engine import Simulator
from repro.workflows import defs
LOOPS = {
    "W2-p4": (lambda: defs.w2(parallelism=4, rate=8000.0), "none", 8.0),
    "W2-p40": (lambda: defs.w2(parallelism=40, rate=8000.0), "none", 2.0),
    "W5-rec": (lambda: defs.w5(parallelism=4, rate=300.0), "all", 40.0),
}
seed = int(sys.argv[1])
for line in sys.stdin:
    build, record, until = LOOPS[line.strip()]
    spec = build()
    spec.seed = seed
    sim = Simulator(spec, record=record)
    gc.collect()
    t0 = time.perf_counter()
    sim.start()
    sim.run(until=until)
    wall = time.perf_counter() - t0
    tuples = sum(w.processed for w in sim.workers.values() if w.op.kind == "source")
    print(json.dumps({"wall": wall, "evseq": sim._evseq, "tuples": tuples}), flush=True)
    del sim
"""


class Timer:
    """A process in ``tree`` that runs one loop per request."""

    def __init__(self, tree: pathlib.Path, seed: int) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = "src"
        self.tree = tree
        self.proc = subprocess.Popen([sys.executable, "-c", TIMER, str(seed)], cwd=tree, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, loop: str) -> dict:
        self.proc.stdin.write(loop + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"loop timing failed in {self.tree} (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, required=True, help="pairs of runs of each loop")
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    commits = {"parent": perf_pairs.git("rev-parse", args.parent),
               "change": perf_pairs.git("rev-parse", "HEAD")}
    dirty = bool(perf_pairs.git("status", "--porcelain", "--", "src"))
    walls: dict[str, dict[str, list[float]]] = {side: {n: [] for n in LOOPS} for side in commits}
    work: dict[str, dict[str, set]] = {side: {n: set() for n in LOOPS} for side in commits}
    with tempfile.TemporaryDirectory(prefix="loop_pairs_") as tmp:
        trees = {side: pathlib.Path(tmp, side) for side in ("parent", "change")}
        perf_pairs.extract(commits["parent"], trees["parent"])
        perf_pairs.copy_working_tree(trees["change"])
        for tree in trees.values():
            perf_pairs.compile_tree(tree)
        timers = {side: Timer(tree, args.seed) for side, tree in trees.items()}
        try:
            for timer in timers.values():
                for name in LOOPS:
                    timer.run(name)  # untimed: lazy set-up
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for name in LOOPS:
                    for side in order:
                        r = timers[side].run(name)
                        walls[side][name].append(r["wall"])
                        work[side][name].add((r["evseq"], r["tuples"]))
                        perf_pairs.append_record({
                            "commit": commits[side], "dirty": dirty and side == "change", "side": side,
                            "loop": name, "seed": args.seed, "pair": i, "first": order[0],
                            "wall_s": r["wall"], "evseq": r["evseq"], "tuples": r["tuples"],
                        }, LOG)
                print(f"pair {i}: " + "  ".join(
                    f"{name} {walls['parent'][name][-1]:.4f}/{walls['change'][name][-1]:.4f} s"
                    for name in LOOPS), flush=True)
        finally:
            for timer in timers.values():
                timer.close()
    print(f"{args.pairs} pairs, seed {args.seed}, parent {commits['parent'][:10]}, "
          f"change {commits['change'][:10]}{' (dirty)' if dirty else ''}")
    for name in LOOPS:
        p, c = walls["parent"][name], walls["change"][name]
        costs = [(cc / pp - 1) * 100 for pp, cc in zip(p, c)]
        q1, med, q3 = perf_pairs.quartiles(costs)
        same = work["parent"][name] == work["change"][name] and len(work["parent"][name]) == 1
        print(f"  {name:7s} min parent {min(p):.4f} s, change {min(c):.4f} s, "
              f"cost {(min(c) / min(p) - 1) * 100:+.1f} %; within a pair median {med:+.1f} % "
              f"[{q1:+.1f}, {q3:+.1f}]; change faster in {sum(x < 0 for x in costs)}/{args.pairs}; "
              + ("same work on both sides" if same else f"DIFFERENT WORK: {work['parent'][name]} vs "
                 f"{work['change'][name]}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
