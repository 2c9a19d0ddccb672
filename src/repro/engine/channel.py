"""A FIFO data channel between two workers, with latency, finite capacity
and backpressure.

A message sent at ``now`` arrives at ``now + latency``; the latency must be
positive. A channel holds every sent, unpopped message in send order, each
with its arrival key ``(t, seq)``: the arrival time and a number taken at
send time from the simulator's one sequence of ordering keys. That is the
key a delivery event scheduled at send time would have had, so arrival keys
order messages exactly as such events would run. A message has arrived once
``t <= now``, and the destination worker pops only arrived messages. Data
and markers are sent by one ``send``. A data message needs no event of its
own: the destination, if idle, wakes at the earliest arrival key among its
inputs (:meth:`Worker._arm_wake`). A marker is rare and keeps an arrival
event at its key, which notifies the destination.

Capacity counts the data messages sent and not yet popped, plus the markers
that have arrived and are not yet popped; a marker in flight does not count.
When a data message does not fit, the sending worker — operator or source
— blocks until a pop frees room (backpressure propagates upstream to the
sources — §3.2's reason small buffers do not fix epoch delay).
A marker is always sent, whatever the load, and is strictly FIFO-ordered
behind previously sent data.

The queue is three columns that share one index, ``head``: ``msgs``, a list
of the messages; ``ts``, an ``array('d')`` of their arrival times; and
``seqs``, an ``array('q')`` of their ordering keys. The unpopped messages
are ``msgs[head:]``, and the head's key is ``(ts[head], seqs[head])``. So a
queued message costs 24 bytes of bookkeeping: a list slot and 16 bytes of
columns, where a ``(t, seq, msg)`` tuple in a ``deque`` costs 128 (the
tuple, a boxed float, a boxed int and a slot). Epoch delay comes from the
tuples queued ahead of a marker (§3.2), so a run holds deep queues, and
its memory grows with them. A pop clears its ``msgs`` slot, so the channel
lets go of a popped message at once. The popped prefix is
deleted once it is ``COMPACT_AT`` entries or more and at least half of the
columns, which keeps a pop O(1) amortised.

While a channel holds nothing, every column is the shared empty tuple and
``head`` is 0. The first send into an empty channel allocates the columns,
and the pop that empties it gives them back. A hash edge has p² channels
(§7.2), nearly all empty at any one time, so a run's memory follows its
messages in flight, not its channel count.

A channel registers itself as the next input of its destination worker and
keeps that input index: the worker's ready heap names channels by it. The
send that fills an empty, unblocked channel pushes its head's entry there,
and a pop, which the worker makes with that entry on top, replaces it by
the new head's entry or drops it.

A channel pickles flat: its state names ``src`` and ``dst`` by
``Worker.id``, holds only the unpopped part of the columns and leaves out
``sim``, which ``Simulator.__setstate__`` rewires. So a pickle of a
simulator does not follow worker → channel → worker links, and its depth
does not grow with the worker graph.
"""
from __future__ import annotations

from array import array
from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING

from .messages import DataMsg, EpochMarker

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator
    from .worker import Worker

COMPACT_AT = 1024  # the fewest popped entries that a compaction deletes

# Copies of a one-entry column, to overwrite: faster than building one.
_ts1 = array("d", [0.0]).__copy__
_seqs1 = array("q", [0]).__copy__


class Channel:
    """Single-producer single-consumer FIFO link ``src -> dst``."""

    __slots__ = ("sim", "src", "dst", "latency", "capacity", "msgs", "ts", "seqs", "head",
                 "markers_in_flight", "blocked", "index")

    def __init__(
        self,
        sim: "Simulator",
        src: "Worker",
        dst: "Worker",
        *,
        latency: float = 0.001,
        capacity: int = 100,
    ) -> None:
        if not latency > 0:
            raise ValueError(f"channel latency must be positive, not {latency!r}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency = latency
        self.capacity = capacity
        # Sent, unpopped from head on, in send order: message, arrival, seq.
        self.msgs: list | tuple = ()
        self.ts: array | tuple = ()
        self.seqs: array | tuple = ()
        self.head = 0
        self.markers_in_flight = 0
        self.blocked = False  # alignment block: dst must not consume
        inputs = dst.inputs
        self.index = len(inputs)
        inputs.append(self)

    def __getstate__(self) -> tuple:
        head = self.head
        return (self.src.id, self.dst.id, self.latency, self.capacity, self.msgs[head:],
                self.ts[head:], self.seqs[head:], self.markers_in_flight, self.blocked,
                self.index)

    def __setstate__(self, state: tuple) -> None:
        (self.src, self.dst, self.latency, self.capacity, self.msgs, self.ts, self.seqs,
         self.markers_in_flight, self.blocked, self.index) = state
        self.head = 0

    # -- producer side ----------------------------------------------------
    def data_load(self) -> int:
        return len(self.msgs) - self.head - self.markers_in_flight

    def send(self, msg: DataMsg | EpochMarker) -> None:
        """Enqueue ``msg``, data or marker. For data the caller must have
        checked that it fits: ``data_load()`` plus the messages it sends
        here at once is at most ``capacity``. ``msg`` is not written after
        this call."""
        sim, dst = self.sim, self.dst
        sim._evseq = seq = sim._evseq + 1
        t = sim.now + self.latency
        msgs = self.msgs
        if msgs:
            msgs.append(msg)
            self.ts.append(t)
            self.seqs.append(seq)
        else:
            self.msgs = [msg]
            self.ts = ts = _ts1()
            ts[0] = t
            self.seqs = seqs = _seqs1()
            seqs[0] = seq
            if not self.blocked:
                heappush(dst.ready, (t, seq, self.index))
        if type(msg) is not DataMsg:
            self.markers_in_flight += 1
            sim.schedule_keyed(t, seq, self._marker_arrived)
        elif dst.state == "idle" and not dst._dispatch_scheduled:
            # An idle worker with no dispatch scheduled wakes at this data
            # arrival, unless an earlier wake is pending.
            wakes = dst._wakes
            if not wakes or (t, seq) < wakes[0]:
                dst._wake_at(t, seq)

    def _marker_arrived(self) -> None:
        self.markers_in_flight -= 1
        self.dst._resume()

    # -- consumer side -----------------------------------------------------
    def pop(self):
        """Pop the head, which has arrived and whose entry is on top of the
        destination's ready heap: replace that entry by the new head's, or
        drop it and give the columns back if the channel is now empty.
        Popping data frees room: the sender gets a notice if it is waiting
        for room (``blocked``, sources included), or may start waiting
        before the notice runs — busy with a finish due now, which the lane
        runs before the notice. A notice to any other sender would find it
        idle or busy and do nothing."""
        msgs, head = self.msgs, self.head
        msg = msgs[head]
        head += 1
        if head == len(msgs):
            self.msgs = self.ts = self.seqs = ()
            self.head = 0
            heappop(self.dst.ready)
        else:
            if head >= COMPACT_AT and head + head >= len(msgs):
                del msgs[:head], self.ts[:head], self.seqs[:head]
                head = 0
            else:
                msgs[head - 1] = None
            self.head = head
            heapreplace(self.dst.ready, (self.ts[head], self.seqs[head], self.index))
        if type(msg) is DataMsg:
            src, now = self.src, self.sim.now
            if src.state == "blocked" or (src.state == "busy" and src._finish_at == now):
                self.sim.schedule(now, src.on_channel_freed)
        return msg
