"""Deterministic discrete-event simulator assembling workers + channels
from a :class:`repro.engine.workload.WorkflowSpec`.

Each logical edge is wired into the worker channels that
``repro.core.parallel.worker_pairs`` lists (§7.2) — the same description
``expand`` builds G* from. Events run in ``(t, seq)`` order. ``seq`` comes
from one counter, ``_evseq``, which also gives every sent message its
arrival key, so a data message needs no event of its own (see
:mod:`.channel`); ``events`` counts the events the loop ran. A worker's
dispatch that is certain to run next runs in place at the end of the event
that would schedule it (see :mod:`.worker`): it takes a key but is not a
loop event. Under ``record="all"`` the run logs every operation in
``op_log``, an :class:`OpLog` of typed columns that iterates as ``(t,
worker, txn, version)`` rows, an update μ(o) under ``UPDATE_TXN``, and
every sink arrival in ``sink_log``, a :class:`SinkLog` of typed columns
that iterates as ``(arrival, created, txn)`` rows; ``schedule_log`` is a
§4.2 schedule view over ``op_log``'s columns, which copies nothing. Apply
times (reconfiguration delay) and checkpoint snapshots are always kept.
``fork`` copies a run, to continue it from ``now``.
"""
from __future__ import annotations

import heapq
import math
import pickle
from array import array
from collections import deque
from typing import Callable, Iterable, Iterator

from repro.core.parallel import worker_pairs
from repro.core.transactions import UPDATE_TXN, ColumnSchedule

from .channel import Channel
from .messages import EpochMarker
from .worker import Worker
from .workload import WorkflowSpec


class OpLog:
    """The operation log as typed columns, one entry per operation: ``t``
    (virtual time, in run order), ``worker`` (an index into ``names``),
    ``txn`` (``UPDATE_TXN`` for a μ) and ``version``. Iterating yields
    ``(t, worker name, txn, version)`` rows."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.t = array("d")
        self.worker = array("H")
        self.txn = array("q")
        self.version = array("B")

    def append(self, t: float, worker: int, txn: int, version: int) -> None:
        self.t.append(t)
        self.worker.append(worker)
        self.txn.append(txn)
        self.version.append(version)

    def __len__(self) -> int:
        return len(self.txn)

    def __iter__(self) -> Iterator[tuple[float, str, int, int]]:
        return zip(self.t, map(self.names.__getitem__, self.worker), self.txn, self.version)


class SinkLog:
    """Sink arrivals as typed columns, one entry per tuple that reached a
    sink: ``arrival`` and ``created`` (virtual times) and ``txn``.
    Iterating yields ``(arrival, created, txn)`` rows."""

    def __init__(self) -> None:
        self.arrival = array("d")
        self.created = array("d")
        self.txn = array("q")

    def __len__(self) -> int:
        return len(self.txn)

    def __iter__(self) -> Iterator[tuple[float, float, int]]:
        return zip(self.arrival, self.created, self.txn)


class Simulator:
    """One engine instance executing one workflow spec."""

    def __init__(
        self,
        spec: WorkflowSpec,
        *,
        record: str = "all",
    ) -> None:
        if record not in ("none", "all"):
            raise ValueError(f"record must be 'none' or 'all', not {record!r}")
        self.spec = spec
        self.now = 0.0
        self._heap: list = []  # (t, evseq, fn, args), events after now
        self._lane: deque = deque()  # (fn, args), events at now, FIFO
        self._evseq = 0  # ordering keys taken: events and data messages
        self._events = 0
        self._txn = 0
        self._halt_on_apply: Callable[[], bool] | None = None
        self._halted = False
        self.record = record
        self.apply_times: dict[str, float] = {}
        self.sink_log = SinkLog()
        self.snapshots: dict[int, dict[str, int]] = {}

        # Instantiate workers.
        self.workers: dict[str, Worker] = {}
        self.by_op: dict[str, list[Worker]] = {}
        for op_name in spec.dag.topological_order():
            op = spec.ops[op_name]
            ws = [Worker(self, op, i, len(self.workers) + i) for i in range(op.parallelism)]
            self.by_op[op_name] = ws
            for w in ws:
                self.workers[w.name] = w
        self.op_log = OpLog(list(self.workers))  # names in worker id order

        # Wire channels per logical edge.
        self.channels: list[Channel] = []
        parallelism = spec.parallelism()
        for (a, b) in spec.dag.edges:
            es = spec.edge_spec((a, b))
            if spec.ops[a].kind == "join" and spec.ops[a].fanout > es.capacity:
                raise ValueError(f"join {a!r} has fanout {spec.ops[a].fanout}, more than "
                                 f"the capacity {es.capacity} of edge {a}->{b}")
            outs: list[list[Channel]] = [[] for _ in self.by_op[a]]
            for i, j in worker_pairs((a, b), es.strategy, parallelism):
                ch = Channel(self, self.by_op[a][i], self.by_op[b][j],
                             latency=es.latency, capacity=es.capacity)
                outs[i].append(ch)
                self.channels.append(ch)
            for src, chans in zip(self.by_op[a], outs):
                src.out.append((b, es.strategy, chans))

    # ------------------------------------------------------------------
    # forking
    # ------------------------------------------------------------------
    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        workers = list(self.workers.values())  # in worker id order
        for ch in self.channels:
            ch.sim, ch.src, ch.dst = self, workers[ch.src], workers[ch.dst]

    def fork(self) -> "Simulator":
        """An independent copy of this simulator, to run on from ``now``: a
        pickle round trip, whose depth does not grow with the worker graph
        (see :mod:`.channel`)."""
        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def schedule(self, t: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at virtual time ``t``, which must not be
        before ``now``. Events at ``now`` go to the same-time lane."""
        self._evseq += 1
        if t > self.now:
            heapq.heappush(self._heap, (t, self._evseq, fn, args))
        elif t == self.now:
            self._lane.append((fn, args))
        else:
            raise ValueError(f"event at t={t!r} is before now={self.now!r}")

    def schedule_keyed(self, t: float, seq: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at the ordering key ``(t, seq)``, taken from
        ``_evseq`` when a message was sent; ``t`` is its arrival, after
        ``now``. At most one event may be scheduled per key."""
        heapq.heappush(self._heap, (t, seq, fn, args))

    @property
    def drained(self) -> bool:
        """No event is left, on the heap or in the same-time lane: however
        long the run goes on, nothing more happens in it."""
        return not self._heap and not self._lane

    @property
    def events(self) -> int:
        """Events the loop ran so far, over every call of :meth:`run`. An
        in-place dispatch takes an ordering key but is not one."""
        return self._events

    def next_txn(self) -> int:
        self._txn += 1
        return self._txn

    def run(
        self,
        until: float | None = None,
        max_events: int = 50_000_000,
        *,
        halt_on_apply: Callable[[], bool] | None = None,
    ) -> None:
        """Run the event loop until no event is queued or ``until``.

        Events run in ``(t, scheduling order)``. An event scheduled at
        ``t == now`` is later in scheduling order than every queued event,
        so it runs after every heap event due at ``now`` and before any
        later one. Such events therefore skip the heap: they wait in a FIFO
        lane, which the loop drains once no heap event is due at ``now``,
        before it advances time. ``until`` before ``now`` raises
        ``ValueError``, as scheduling in the past does.

        With ``halt_on_apply``, the predicate is evaluated after each
        configuration apply, which is rare, not after every event; the
        loop returns right after the event in which it first holds; ``now``
        then stays at that event's time. A caller that only wants a
        reconfiguration delay thus simulates nothing past the answer."""
        until = math.inf if until is None else until
        if until < self.now:
            raise ValueError(f"run until={until!r} is before now={self.now!r}")
        heap, lane = self._heap, self._lane
        heappop, popleft = heapq.heappop, lane.popleft
        self._halt_on_apply, self._halted = halt_on_apply, False
        now = self.now
        n = 0
        try:
            while not self._halted:
                if lane and not (heap and heap[0][0] <= now):
                    fn, args = popleft()
                elif heap:
                    t = heap[0][0]
                    if t > until:
                        self.now = until
                        return
                    _, _, fn, args = heappop(heap)
                    self.now = now = t
                else:
                    return
                fn(*args)
                n += 1
                if n >= max_events:
                    raise RuntimeError("simulation exceeded max_events")
        finally:
            self._events += n
            self._halt_on_apply = None  # often a closure, which cannot be pickled

    def start(self) -> None:
        for w in self.workers.values():
            w.start_source()

    # ------------------------------------------------------------------
    # controller-side helpers
    # ------------------------------------------------------------------
    def send_fcm(self, worker: str, fcm: EpochMarker | str, at: float) -> None:
        """Deliver an FCM to ``worker`` at time ``at``; the caller adds the
        control-plane latency (``spec.fcm_latency``)."""
        self.schedule(at, self.workers[worker].on_fcm, fcm)

    def reconfig_workers(self, reconfig_ops: Iterable[str]) -> frozenset[str]:
        """𝓡 → 𝓡*: a function update on o maps to updates on all workers."""
        return frozenset(w.name for op in reconfig_ops for w in self.by_op[op])

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def log_update(self, worker: int, version: int) -> None:
        self.apply_times[self.op_log.names[worker]] = self.now
        if self.record == "all":
            self.op_log.append(self.now, worker, UPDATE_TXN, version)
        if self._halt_on_apply is not None and self._halt_on_apply():
            self._halted = True

    def log_sink(self, msg) -> None:
        if self.record == "all":
            log = self.sink_log
            log.arrival.append(self.now)
            log.created.append(msg.created)
            log.txn.append(msg.txn)

    @property
    def schedule_log(self) -> ColumnSchedule:
        """``op_log`` as a §4.2 schedule for the serializability checker: a
        view over its worker and txn columns, building no operation."""
        log = self.op_log
        return ColumnSchedule(log.names, log.worker, log.txn)

    def log_snapshot(self, ckpt_id: int, worker_name: str, version: int) -> None:
        self.snapshots.setdefault(ckpt_id, {})[worker_name] = version
