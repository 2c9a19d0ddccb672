"""A simulated operator worker.

Each worker processes one data tuple at a time (cost = seconds per tuple of
its current configuration version), emits derived tuples downstream subject
to channel backpressure, and participates in the control protocols. A
single output whose channel has room is sent at once; several outputs, or
one that does not fit, go through the pending list and are sent together
once all of them fit. A source is a worker whose tuples come from a clock
instead of an input: it hands each new tuple to the same send tail as any
operator's outputs, so a source whose outputs do not fit is ``blocked``
like any other worker (§3.2's backpressure reaching the plan heads). Its
tuple counts as processed and is logged only once it is sent. A registered
source tags its tuple with its version when it builds it, and a version
change handled while the tuple waits for room retags it. No send writes a
message and a sent message is never written, so a worker whose output
keeps the key forwards the message it holds.

* **FCMs** are handled between tuples — immediately if the worker is idle,
  otherwise right after the current tuple finishes and its outputs flush
  (Def 4.1's "applies the new configuration immediately after finishing the
  processing of its current tuple"). Handling an FCM never reorders it
  ahead of this worker's *already sent* data, so marker FIFO holds.
* **Epoch markers** ride the data FIFO. A marker's scope is a set of
  logical edges; all worker channels of an edge are in or out together
  (§8.1). On popping a marker from a channel, the worker blocks that
  channel and waits for markers on every in-scope input (epoch alignment,
  §3.1); on full alignment it applies the piggybacked reconfiguration (if
  targeted), forwards the marker on its in-scope output channels, and
  unblocks. A plan head opens the epoch the same way when the controller
  delivers the marker to it as an FCM. A checkpoint is an epoch marker
  over every edge that also snapshots the worker's configuration version
  (§7.3).

Inputs are read in arrival order. A worker keeps a ready heap of the head
arrival keys of its open inputs (see :mod:`.channel`). While it is idle
with no dispatch scheduled, a wake is pending at its earliest future data
arrival on any input. A wake runs at that message's arrival key, where a
delivery event for it would run, and like one it notifies the worker; an
arrival at a busy worker costs no event.

A notify that ends an event (a finish, a flush of pending outputs, a wake,
an FCM, a marker arrival) is ``_resume``: when the same-time lane is empty
and no heap event is due at ``now``, the dispatch it would schedule is
certain to run next, so it runs in place, with the ordering key it would
have had. Every operation keeps its order; only the loop runs fewer events.
"""
from __future__ import annotations

import random
import zlib
from bisect import bisect_right
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.core.parallel import worker_name

from .channel import Channel
from .messages import DataMsg, EpochMarker
from .workload import OpSpec

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator


class Worker:
    """One parallel instance of an operator in the simulated engine."""

    __slots__ = ("sim", "op", "index", "name", "id", "rng", "inputs", "ready", "out",
                 "version", "_cost", "applied", "multiversion", "control", "state",
                 "_pending", "_dispatch_scheduled", "_wakes", "_finish_at", "_aligning",
                 "_sj_state", "processed", "_txn", "_record", "_dispatch_cb",
                 "_finish_cb", "_source_emit_cb", "_on_wake_cb", "_after_send", "_msg")

    def __init__(self, sim: "Simulator", op: OpSpec, index: int, wid: int) -> None:
        self.sim = sim
        self.op = op
        self.index = index
        self.name = worker_name(op.name, index)
        self.id = wid  # fixed by the simulator: this worker's op_log id
        # zlib.crc32 is process-stable (str.__hash__ is salted per process,
        # which would make runs non-reproducible across invocations).
        self.rng = random.Random(
            zlib.crc32(f"{sim.spec.seed}/{op.name}/{index}".encode())
        )
        self.inputs: list[Channel] = []
        # Ready heap of (head arrival time, head seq, input index). It holds
        # an entry for the head of every non-blocked, non-empty input, arrived
        # or not; entries whose channel got blocked, emptied or moved past
        # that head are stale and dropped when they reach the top.
        self.ready: list[tuple[float, int, int]] = []
        # Per logical out-edge: (dst op name, strategy, channels by dst index).
        self.out: list[tuple[str, str, list[Channel]]] = []
        self.version = 1
        self._cost: dict[int, float] = {}  # version -> this worker's cost_at
        self.applied = False
        self.multiversion = False  # registered new config, per-tuple versioning
        self.control: tuple[EpochMarker | str, ...] = ()  # FCMs not handled yet
        self.state = "idle"  # idle | busy | blocked
        self._pending: list[tuple[Channel, DataMsg]] = []
        self._dispatch_scheduled = False
        self._wakes: list[tuple[float, int]] = []  # heap of the arrival keys with a pending wake
        self._finish_at = 0.0  # when the tuple being processed finishes
        self._msg: DataMsg | None = None  # the tuple being processed, or the last one
        # Marker alignment: marker -> (number of in-scope inputs, the input
        # channels it has arrived on, blocked meanwhile).
        self._aligning: dict[EpochMarker, tuple[int, list[Channel]]] = {}
        # Self-join per-transaction arrival counts.
        self._sj_state: dict[int, int] = {}
        self.processed = 0  # a source's: the tuples it sent
        self._txn = 0  # a source's: the txn of the tuple being sent
        self._record = sim.record == "all"  # log every operation in op_log
        # Bound once: each attribute access would build a new bound method.
        self._dispatch_cb = self._dispatch
        self._finish_cb = self._finish
        self._source_emit_cb = self._source_emit
        self._on_wake_cb = self._on_wake
        # What follows a completed send (``_send``, ``_try_emit``).
        self._after_send = self._sent if op.kind == "source" else self._resume

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def on_fcm(self, fcm: EpochMarker | str) -> None:
        self.control += (fcm,)
        if self.op.kind == "source":
            self._handle_control()
        else:
            self._resume()

    def _handle_control(self) -> None:
        """Drain the control queue. Only called between tuples (idle, or a
        source whose tuple is not sent yet), so configuration swaps never
        split the processing of a tuple and markers stay FIFO behind sent
        data. Then a registered source's unsent tuple is retagged with the
        source's version."""
        while self.control:
            fcm = self.control[0]
            self.control = self.control[1:]
            if type(fcm) is EpochMarker:
                # Plan head: open the component's epoch.
                self._open_epoch(fcm)
            elif fcm == "register":
                self.multiversion = True
            elif fcm == "bump_version":
                self.version = 2
            else:  # pragma: no cover
                raise ValueError(f"unknown FCM {fcm!r}")
        if self.multiversion:
            for _, m in self._pending:  # empty unless a source is blocked
                m.version_tag = self.version

    def _apply_reconfig(self) -> None:
        if self.applied:
            raise RuntimeError(f"{self.name} already applied its reconfiguration")
        self.applied = True
        self.version = 2
        self.sim.log_update(self.id, self.version)

    def _open_epoch(self, marker: EpochMarker) -> None:
        """Apply the piggybacked reconfiguration if targeted, snapshot if
        the marker is a checkpoint, then send the marker on every channel
        of the in-scope out-edges."""
        if self.op.name in marker.reconfig_ops:
            self._apply_reconfig()
        if marker.ckpt_id is not None:
            self.sim.log_snapshot(marker.ckpt_id, self.name, self.version)
        for dst_op, _, channels in self.out:
            if (self.op.name, dst_op) in marker.edges:
                for ch in channels:
                    ch.send(marker)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def notify(self) -> None:
        if self.state == "idle" and not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.sim.schedule(self.sim.now, self._dispatch_cb)

    def _resume(self) -> None:
        """``notify`` as the last act of an event. When the same-time lane
        is empty and no heap event is due at ``now``, the dispatch it would
        schedule is certain to run next: it runs in place instead, after
        taking the ordering key it would have had, and is not a loop event.
        A dispatch with no control, ready entry or alignment to look at
        would do nothing, so then only the key is taken."""
        if self.state == "idle" and not self._dispatch_scheduled:
            sim = self.sim
            heap = sim._heap
            if sim._lane or (heap and heap[0][0] <= sim.now):
                self._dispatch_scheduled = True
                sim.schedule(sim.now, self._dispatch_cb)
                return
            sim._evseq += 1
            if self.control or self.ready or self._aligning:
                self._dispatch()

    def _wake_at(self, t: float, seq: int) -> None:
        """Schedule a wake at the arrival key ``(t, seq)`` of a data
        message: it does there what a delivery event of that message would
        do, notify."""
        heappush(self._wakes, (t, seq))
        self.sim.schedule_keyed(t, seq, self._on_wake_cb)

    def _on_wake(self) -> None:
        heappop(self._wakes)  # wakes run in key order: this is the earliest
        self._resume()

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        while self.state == "idle":
            if self.control:
                self._handle_control()
                continue
            ch = self._next_channel()
            if ch is None:
                if not self._dispatch_scheduled:
                    self._arm_wake()
                return
            msg = ch.pop()  # ch's entry is on top of the ready heap
            if type(msg) is not DataMsg:
                self._on_marker(ch, msg)
                continue
            # Process the tuple, at its tag under multi-versioning.
            version = (
                msg.version_tag
                if (self.multiversion and msg.version_tag is not None)
                else self.version
            )
            sim = self.sim
            if self._record:
                log = sim.op_log
                log.t.append(sim.now)
                log.worker.append(self.id)
                log.txn.append(msg.txn)
                log.version.append(version)
            self.state = "busy"
            cost = self._cost.get(version)
            if cost is None:
                cost = self._cost[version] = self.op.cost_at(version, self.index)
            self._finish_at = t = sim.now + cost
            self._msg = msg
            sim.schedule(t, self._finish_cb)
            return

    def _next_channel(self) -> Channel | None:
        """The non-blocked input whose head arrived first, or None if no
        such head has arrived. Arrival keys never tie. The input's entry,
        or the earliest entry not yet arrived, is left on top of the ready
        heap."""
        ready, inputs = self.ready, self.inputs
        while ready:
            t, seq, i = ready[0]
            ch = inputs[i]
            if not ch.blocked and ch.msgs and ch.seqs[ch.head] == seq:
                return ch if t <= self.sim.now else None
            heappop(ready)
        return None

    def _arm_wake(self) -> None:
        """Idle, with nothing arrived on an open input and no dispatch
        scheduled: wake at the earliest future arrival on any input. Blocked
        inputs count too, since a delivery event would notify this worker
        for them as well. A marker arrival notifies by its own event."""
        now, ready = self.sim.now, self.ready
        first = msg = None  # the earliest arrival key and its message
        if ready:  # its top entry is the head key of its channel
            t, seq, i = ready[0]
            first = (t, seq)
            c = self.inputs[i]
            msg = c.msgs[c.head]
        for _, blocked in self._aligning.values():
            for c in blocked:
                ts = c.ts
                j = bisect_right(ts, now, c.head)
                if j < len(ts) and (first is None or (ts[j], c.seqs[j]) < first):
                    first, msg = (ts[j], c.seqs[j]), c.msgs[j]
        # Every pending wake is at a future arrival, so none is before first.
        wakes = self._wakes
        if first is not None and type(msg) is DataMsg and (not wakes or first < wakes[0]):
            self._wake_at(*first)

    def _finish(self) -> None:
        """The tuple ``_msg`` is processed: send its outputs (``_send``). A
        kind that keeps the key sends the tuple itself."""
        msg = self._msg
        self.processed += 1
        op, out, pending = self.op, self.out, self._pending
        kind = op.kind
        edge = None  # the out-edge of the one output, if there is one
        if kind == "map" or kind == "union":
            if out:
                edge = out[0]
        elif kind == "filter":
            if self.rng.random() < op.selectivity and out:
                edge = out[0]
        elif kind == "split":
            if out:
                edge = out[msg.key % len(out)]
        elif kind == "join":
            if out and self.rng.random() < op.selectivity:
                out_key = op.out_key
                if op.fanout == 1:
                    edge = out[0]
                    if out_key:
                        msg = DataMsg(msg.txn, out_key.sample(self.rng), msg.created, msg.version_tag)
                else:
                    for _ in range(op.fanout):
                        child = (DataMsg(msg.txn, out_key.sample(self.rng), msg.created,
                                         msg.version_tag) if out_key else msg)
                        _route(pending, out[0], child)
        elif kind == "replicate":
            for e in out:
                _route(pending, e, msg)
        elif kind == "selfjoin":
            n = self._sj_state.get(msg.txn, 0) + 1
            if n >= op.arity:
                self._sj_state.pop(msg.txn, None)
                if out:
                    edge = out[0]
            else:
                self._sj_state[msg.txn] = n
        elif kind == "sink":
            self.sim.log_sink(msg)
        self._send(edge, msg)

    def _send(self, edge: tuple[str, str, list[Channel]] | None, msg: DataMsg) -> None:
        """Send ``msg`` on out-edge ``edge``, if given, and the outputs
        already routed into ``_pending``, then ``_after_send``. A single
        output whose channel has room is sent right here; several outputs
        go through ``_pending`` and ``_try_emit``, and an output that does
        not fit waits in ``_pending`` for ``on_channel_freed``."""
        pending = self._pending
        if edge is not None:
            channels = edge[2]
            if edge[1] == "broadcast" and len(channels) > 1:
                _route(pending, edge, msg)
            else:
                ch = channels[msg.key % len(channels)]
                if ch.data_load() >= ch.capacity:
                    pending.append((ch, msg))
                    self.state = "blocked"  # until on_channel_freed
                    return
                ch.send(msg)
        if pending:
            self.state = "blocked"
            self._try_emit()
        else:
            self.state = "idle"
            self._after_send()

    def _try_emit(self) -> None:
        """Send the pending outputs if they all fit, each channel counting
        its own entries; otherwise stay blocked until on_channel_freed."""
        pending = self._pending
        if len(pending) == 1:
            ch = pending[0][0]
            if ch.data_load() >= ch.capacity:
                return
        elif pending:
            need: dict[Channel, int] = {}
            for ch, _ in pending:
                need[ch] = need.get(ch, 0) + 1
            for ch, n in need.items():
                if ch.data_load() + n > ch.capacity:
                    return
        for ch, m in pending:
            ch.send(m)
        pending.clear()
        self.state = "idle"
        self._after_send()

    def on_channel_freed(self) -> None:
        if self.state == "blocked":
            self._try_emit()

    # ------------------------------------------------------------------
    # epoch markers
    # ------------------------------------------------------------------
    def _on_marker(self, ch: Channel, marker: EpochMarker) -> None:
        """Block ``ch`` until the marker has arrived on every in-scope
        input; then unblock them all and open the epoch."""
        ch.blocked = True
        aligning = self._aligning.get(marker)
        if aligning is None:
            name = self.op.name
            expected = sum((c.src.op.name, name) in marker.edges for c in self.inputs)
            aligning = self._aligning[marker] = (expected, [])
        expected, arrived = aligning
        arrived.append(ch)
        if len(arrived) < expected:
            return
        del self._aligning[marker]
        for c in arrived:
            c.blocked = False
            if c.msgs:
                head = c.head
                heappush(self.ready, (c.ts[head], c.seqs[head], c.index))
        self._open_epoch(marker)
        self.notify()

    # ------------------------------------------------------------------
    # source behaviour
    # ------------------------------------------------------------------
    def start_source(self) -> None:
        if self.op.kind == "source":
            self.sim.schedule(self.sim.now, self._source_emit_cb)

    def _source_emit(self) -> None:
        """Build the next tuple, tagged with this source's version if it is
        registered for multi-versioning, and send it on every out-edge the
        way an operator sends its outputs (``_send``)."""
        op, sim, out = self.op, self.sim, self.out
        if op.n_tuples is not None and self.processed >= op.n_tuples:
            return
        self._txn = txn = sim.next_txn()
        key = op.key_dist.sample(self.rng) if op.key_dist else self.rng.randrange(1 << 30)
        msg = DataMsg(txn, key, sim.now, self.version if self.multiversion else None)
        if len(out) == 1:
            self._send(out[0], msg)
            return
        for edge in out:
            _route(self._pending, edge, msg)
        self._send(None, msg)

    def _sent(self) -> None:
        """The source's tuple entered the stream: log it and schedule the
        next one."""
        op, sim = self.op, self.sim
        if self._record:
            log = sim.op_log
            log.t.append(sim.now)
            log.worker.append(self.id)
            log.txn.append(self._txn)
            log.version.append(self.version)
        self.processed += 1
        if op.n_tuples is None or self.processed < op.n_tuples:
            sim.schedule(sim.now + 1.0 / op.rate_at(sim.now), self._source_emit_cb)


def _route(emits: list, edge: tuple[str, str, list[Channel]], msg: DataMsg) -> None:
    """Add ``msg`` on out-edge ``edge`` to ``emits``: on every channel of a
    broadcast edge, else on the channel of its key (a forward edge has one
    channel per worker, so the key picks that one)."""
    _, strategy, channels = edge
    if strategy == "broadcast":
        emits.extend((ch, msg) for ch in channels)
    else:
        emits.append((channels[msg.key % len(channels)], msg))
