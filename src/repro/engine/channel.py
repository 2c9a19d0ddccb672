"""A FIFO data channel between two workers, with latency, finite capacity
and backpressure.

Capacity counts both in-transit and delivered-but-unprocessed messages;
when full, the sending worker blocks (backpressure propagates upstream —
§3.2's reason small buffers do not fix epoch delay). Markers do not count
against capacity (they are tiny control records riding the data FIFO), but
they are strictly FIFO-ordered behind previously sent data.

A channel registers itself as the next input of its destination worker and
keeps that input index: the worker's ready heap names channels by it.
"""
from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING

from .messages import DataMsg

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator
    from .worker import Worker


class Channel:
    """Single-producer single-consumer FIFO link ``src -> dst``."""

    def __init__(
        self,
        sim: "Simulator",
        src: "Worker",
        dst: "Worker",
        *,
        latency: float = 0.001,
        capacity: int = 100,
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency = latency
        self.capacity = capacity
        self.queue: deque = deque()  # (global seq, msg): delivered, awaiting processing
        self.in_transit = 0
        self.blocked = False  # alignment block: dst must not consume
        inputs = dst.inputs
        self.index = len(inputs)
        inputs.append(self)

    # -- producer side ----------------------------------------------------
    def data_load(self) -> int:
        return self.in_transit + len(self.queue)

    def send(self, msg) -> None:
        """Enqueue ``msg`` for delivery after ``latency``. Caller must have
        checked that ``data_load() < capacity`` for data messages (markers
        always fit)."""
        if isinstance(msg, DataMsg):
            self.in_transit += 1
        self.sim.schedule(self.sim.now + self.latency, self._deliver, msg)

    # -- delivery ----------------------------------------------------------
    def _deliver(self, msg) -> None:
        if isinstance(msg, DataMsg):
            self.in_transit -= 1
        seq = self.sim.global_seq()
        if not self.queue and not self.blocked:
            heapq.heappush(self.dst.ready, (seq, self.index))
        self.queue.append((seq, msg))
        self.dst.notify()

    # -- consumer side -----------------------------------------------------
    def pop(self):
        seq, msg = self.queue.popleft()
        if isinstance(msg, DataMsg):
            # Space freed: wake a sender blocked on this channel.
            self.sim.schedule(self.sim.now, self.src.on_channel_freed, self)
        return msg
