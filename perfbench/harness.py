"""Timing hooks around the program's public entry points.

The benchmark does not edit the program: it wraps ``Simulator.__init__``,
``Simulator.run`` and the schedulers' ``request`` methods for the length
of a run, and attributes each call to the operation in progress. Untraced
runs keep only what the end-to-end metrics need (the simulator instance and
the wall time inside ``Simulator.run``); traced runs also record a span per
call and read the channel backlog when a reconfiguration is requested.

It also holds the host speed probe the end-to-end times are scaled by.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

from repro.engine import schedulers
from repro.engine.simulator import Simulator

# Every scheduler class the workloads use defines its own ``request``.
SCHEDULERS = (schedulers.FriesScheduler, schedulers.EpochScheduler, schedulers.NaiveFCMScheduler)


@dataclass
class OpRecord:
    """What one reconfiguration operation cost, layer by layer."""

    name: str
    wall_s: float = 0.0
    init_s: float = 0.0
    warmup_s: float = 0.0
    post_request_s: float = 0.0
    request_s: float = 0.0
    backlog: int = 0
    sims: list = field(default_factory=list)
    requested: set = field(default_factory=set)

    @property
    def run_s(self) -> float:
        return self.warmup_s + self.post_request_s


class Hooks:
    """Installs the wrappers on ``__enter__`` and removes them on exit."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.current: OpRecord | None = None
        self.spans: list[tuple[str, str, float, float]] = []  # (op, layer, start, end)
        self._saved: list[tuple[type, str, object]] = []

    def _span(self, layer: str, start: float, end: float) -> None:
        if self.traced and self.current is not None:
            self.spans.append((self.current.name, layer, start, end))

    def __enter__(self) -> "Hooks":
        hooks = self
        init, run = Simulator.__init__, Simulator.run

        def timed_init(sim, *args, **kwargs):
            t0 = time.perf_counter()
            init(sim, *args, **kwargs)
            t1 = time.perf_counter()
            if hooks.current is not None:
                hooks.current.init_s += t1 - t0
                hooks.current.sims.append(sim)
            hooks._span("engine.init", t0, t1)

        def timed_run(sim, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec = hooks.current
                after = rec is not None and id(sim) in rec.requested
                if rec is not None:
                    if after:
                        rec.post_request_s += t1 - t0
                    else:
                        rec.warmup_s += t1 - t0
                hooks._span("engine.post_request" if after else "engine.warmup", t0, t1)

        self._patch(Simulator, "__init__", timed_init)
        self._patch(Simulator, "run", timed_run)
        for cls in SCHEDULERS:
            self._patch(cls, "request", self._timed_request(cls.request))
        return self

    def _timed_request(self, request):
        hooks = self

        def timed_request(scheduler, sim, reconfig_ops, t):
            rec = hooks.current
            if hooks.traced and rec is not None:
                rec.backlog += sum(ch.data_load() for ch in sim.channels)
            t0 = time.perf_counter()
            request(scheduler, sim, reconfig_ops, t)
            t1 = time.perf_counter()
            if rec is not None:
                rec.request_s += t1 - t0
                rec.requested.add(id(sim))
            hooks._span("engine.request", t0, t1)

        return timed_request

    def _patch(self, cls: type, name: str, fn) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, fn)

    def __exit__(self, *exc) -> None:
        for cls, name, fn in reversed(self._saved):
            setattr(cls, name, fn)
        self._saved.clear()


def source_tuples(sim: Simulator) -> int:
    return sum(w.processed for w in sim.workers.values() if w.op.kind == "source")


def events_processed(sim: Simulator) -> int:
    """Events the loop has executed: scheduled (``_evseq``) minus still queued.
    The simulator keeps no public counter, so this reads its internals."""
    return sim._evseq - len(sim._heap)


def median_time(fn, reps: int) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# host speed probe
# ---------------------------------------------------------------------------
#
# The benchmark shares its host with other work, and the host's throughput
# for single-threaded Python drifts in phases of minutes, by up to 2x. The
# probe is a fixed event loop written here, not in the program: it shares
# the simulator's shape (heap of timed callbacks, FIFO queues, message
# objects, seeded random keys, string ids) but none of its code, so a change
# to the program cannot move it and a change of host speed moves both.

REF_PROBE_S = 0.035  # the probe's median on the reference host (see METRICS.md)


@dataclass
class _Msg:
    txn: int
    key: int
    tid: str


class _Stage:
    def __init__(self, loop: "_Loop", rng: random.Random) -> None:
        self.loop, self.rng = loop, rng
        self.queue: deque = deque()
        self.busy = False
        self.done = 0

    def deliver(self, msg: _Msg) -> None:
        self.queue.append(msg)
        if not self.busy:
            self.loop.at(0.0, self.work)

    def work(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        msg = self.queue.popleft()
        self.done += 1
        self.loop.at(0.001 * self.rng.random(), self.work)
        if msg.key % 3:
            nxt = self.loop.stages[msg.key % len(self.loop.stages)]
            self.loop.at(0.002, nxt.deliver, _Msg(msg.txn, self.rng.randrange(1 << 20), f"{msg.tid}/{self.done}"))


class _Loop:
    def __init__(self) -> None:
        self.now, self.seq = 0.0, 0
        self.heap: list = []
        rng = random.Random(1)
        self.stages = [_Stage(self, rng) for _ in range(8)]

    def at(self, dt: float, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + dt, self.seq, fn, args))

    def run(self, events: int) -> None:
        for i in range(events // 10):
            self.at(i * 0.0005, self.stages[i % 8].deliver, _Msg(i, i * 7919, f"t{i}"))
        for _ in range(events):
            if not self.heap:
                return
            self.now, _, fn, args = heapq.heappop(self.heap)
            fn(*args)


def probe_s() -> float:
    """Median wall seconds of the fixed probe loop, over three runs."""
    return median_time(lambda: _Loop().run(40_000), 3)


def at_reference_speed(seconds: float, probe: float) -> float:
    """A wall time measured while the probe took ``probe`` seconds, scaled
    to the reference host's probe time."""
    return seconds * REF_PROBE_S / probe
