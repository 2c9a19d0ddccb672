"""Message types exchanged in the simulated engine.

Data messages and epoch/checkpoint markers travel through FIFO data
channels (markers cannot overtake data — the source of epoch-based
reconfiguration delay). FCMs (Def 4.1) travel on the control plane and are
delivered to a worker with a small fixed latency, never queued behind data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class DataMsg:
    """A data tuple: transaction id (= source tuple id), routing key, and a
    creation timestamp for end-to-end latency accounting. ``version_tag``
    is used only by the FCM multi-version scheduler (§4.1)."""

    txn: int
    key: int
    created: float
    version_tag: int | None = None


@dataclass
class EpochMarker:
    """An epoch marker (§3.1) with a propagation scope.

    ``scope_id`` identifies the synchronization round; ``edges`` are the
    *logical* edges (src_op, dst_op) in scope — the marker is aligned and
    forwarded on every worker channel of each (§8.1; the whole DAG for EBR,
    one MCS component for Fries); ``reconfig_workers`` apply the
    piggybacked reconfiguration when aligned."""

    scope_id: str
    edges: frozenset[tuple[str, str]]
    reconfig_workers: frozenset[str]


@dataclass
class CheckpointMarker:
    """A checkpoint barrier (§7.3); globally aligned like an EBR marker."""

    ckpt_id: int


@dataclass
class FCM:
    """A fast control message from the controller to one worker."""

    kind: str  # "apply" | "start_markers" | "inject_ckpt" | "register" | "bump_version"
    payload: Any = None
