"""A FIFO data channel between two workers, with latency, finite capacity
and backpressure.

A message sent at ``now`` arrives at ``now + latency``; the latency must be
positive. ``queue`` holds every sent, unpopped message in send order, each
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

While a channel holds nothing, ``queue`` is the shared empty tuple. The
first send into an empty channel allocates a ``deque``, and the pop that
empties it gives the ``deque`` back (:meth:`Worker._dispatch`). A hash edge
has p² channels (§7.2), nearly all empty at any one time, so a run's memory
follows its messages in flight, not its channel count.

A channel registers itself as the next input of its destination worker and
keeps that input index: the worker's ready heap names channels by it.

A channel pickles flat: its state names ``src`` and ``dst`` by
``Worker.id`` and leaves out ``sim``, which ``Simulator.__setstate__``
rewires. So a pickle of a simulator does not follow worker → channel →
worker links, and its depth does not grow with the worker graph.
"""
from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING

from .messages import DataMsg, EpochMarker

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator
    from .worker import Worker


class Channel:
    """Single-producer single-consumer FIFO link ``src -> dst``."""

    __slots__ = ("sim", "src", "dst", "latency", "capacity", "queue",
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
        self.queue: deque | tuple = ()  # (t, seq, msg): sent, unpopped, in send order
        self.markers_in_flight = 0
        self.blocked = False  # alignment block: dst must not consume
        inputs = dst.inputs
        self.index = len(inputs)
        inputs.append(self)

    def __getstate__(self) -> tuple:
        return (self.src.id, self.dst.id, self.latency, self.capacity, self.queue,
                self.markers_in_flight, self.blocked, self.index)

    def __setstate__(self, state: tuple) -> None:
        (self.src, self.dst, self.latency, self.capacity, self.queue,
         self.markers_in_flight, self.blocked, self.index) = state

    # -- producer side ----------------------------------------------------
    def data_load(self) -> int:
        return len(self.queue) - self.markers_in_flight

    def send(self, msg: DataMsg | EpochMarker) -> None:
        """Enqueue ``msg``, data or marker. For data the caller must have
        checked that it fits: ``data_load()`` plus the messages it sends
        here at once is at most ``capacity``. ``msg`` is not written after
        this call."""
        sim, queue, dst = self.sim, self.queue, self.dst
        sim._evseq = seq = sim._evseq + 1
        t = sim.now + self.latency
        if not queue:
            self.queue = queue = deque()
            if not self.blocked:
                heappush(dst.ready, (t, seq, self.index))
        queue.append(entry := (t, seq, msg))
        if type(msg) is not DataMsg:
            self.markers_in_flight += 1
            sim.schedule_keyed(t, seq, self._marker_arrived)
        elif dst.state == "idle" and not dst._dispatch_scheduled:
            # An idle worker with no dispatch scheduled wakes at this data
            # arrival, unless an earlier wake is pending.
            wakes = dst._wakes
            if not wakes or entry < wakes[0]:
                dst._wake_at(entry)

    def _marker_arrived(self) -> None:
        self.markers_in_flight -= 1
        self.dst._resume()

    # -- consumer side -----------------------------------------------------
    def pop(self):
        """Pop the head, which has arrived. Popping data frees room: the
        sender gets a notice if it is waiting for room (``blocked``, sources
        included), or may start waiting before the notice runs — busy with a
        finish due now, which the lane runs before the notice. A notice to
        any other sender would find it idle or busy and do nothing."""
        msg = self.queue.popleft()[2]
        if type(msg) is DataMsg:
            src, now = self.src, self.sim.now
            if src.state == "blocked" or (src.state == "busy" and src._finish_at == now):
                self.sim.schedule(now, src.on_channel_freed)
        return msg
