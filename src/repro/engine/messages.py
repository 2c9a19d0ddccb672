"""Message types exchanged in the simulated engine.

Data messages and epoch markers travel through FIFO data channels
(markers cannot overtake data — the source of epoch-based reconfiguration
delay). FCMs (Def 4.1) travel on the control plane and are delivered to a
worker with a small fixed latency, never queued behind data: a plan head's
FCM is the marker itself, and the multi-version scheduler's are the
commands ``"register"`` and ``"bump_version"``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class DataMsg:
    """A data tuple: transaction id (= source tuple id), routing key, and a
    creation timestamp for end-to-end latency accounting. ``version_tag``
    is used only by the FCM multi-version scheduler (§4.1).

    A message is not written once it is sent: a worker whose output keeps
    the key sends the message it holds, so one message may be queued on
    several channels at once."""

    txn: int
    key: int
    created: float
    version_tag: int | None = None

    def __reduce__(self) -> tuple:
        # Pickled as a tuple of its fields, about 27 bytes where a slots
        # dataclass's state pickles to about 41: a fork holds every
        # queued message.
        return DataMsg, (self.txn, self.key, self.created, self.version_tag)


@dataclass(eq=False)
class EpochMarker:
    """An epoch marker (§3.1); the object itself is the synchronization
    round, so it compares by identity: every head and every channel of a
    round gets the same instance.

    ``edges`` are the *logical* edges (src_op, dst_op) in scope — the
    marker is aligned and forwarded on every worker channel of each (§8.1;
    the whole DAG for EBR and checkpoints, one MCS component for Fries,
    none for NaiveFCM); the workers of ``reconfig_ops`` apply the
    piggybacked reconfiguration when aligned. A checkpoint barrier (§7.3)
    sets ``ckpt_id``: every worker snapshots its configuration version
    when aligned."""

    edges: frozenset[tuple[str, str]]
    reconfig_ops: frozenset[str]
    ckpt_id: int | None = None
