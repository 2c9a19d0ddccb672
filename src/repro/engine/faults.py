"""§7.3 — fault tolerance under the Fries scheduler.

Checkpoints are taken with globally aligned epoch markers (epoch-based
checkpointing [6,7]): an :class:`EpochMarker` over every edge with its
``ckpt_id`` set, delivered to the sources as an FCM like any plan head's
marker; each worker snapshots its configuration version when aligned. A
snapshot is *consistent* for a reconfiguration iff every reconfiguration
worker recorded the same version — otherwise recovery would resurrect a
half-updated dataflow (the paper's F-old/G-new anomaly).

``CheckpointCoordinator`` implements both policies:

* ``naive`` — checkpoints proceed concurrently with Fries FCMs; an
  in-flight checkpoint can capture a mixed configuration.
* ``fries_safe`` — on a reconfiguration request the controller cancels all
  in-flight checkpoints and blocks new ones until every head worker has
  received its FCM (a short window, since FCMs bypass data); subsequent
  markers are therefore always behind the FCMs.

``recover`` restarts a fresh engine from a snapshot, restoring each
reconfiguration worker's configuration version.
"""
from __future__ import annotations

from dataclasses import dataclass

from .messages import EpochMarker
from .simulator import Simulator
from .workload import WorkflowSpec


@dataclass
class CheckpointRecord:
    ckpt_id: int
    start_time: float
    cancelled: bool = False


class CheckpointCoordinator:
    """Controller-side checkpoint management."""

    def __init__(self, sim: Simulator, *, policy: str = "naive") -> None:
        if policy not in ("naive", "fries_safe"):
            raise ValueError(policy)
        self.sim = sim
        self.policy = policy
        self._next_id = 0
        self.records: dict[int, CheckpointRecord] = {}
        self._blocked_until: float = -1.0

    def start_checkpoint(self, t: float) -> int:
        """Inject a checkpoint marker at every source at time ``t`` (the
        injection is deferred if checkpoints are currently blocked)."""
        self._next_id += 1
        cid = self._next_id
        start = max(t, self._blocked_until)
        self.records[cid] = CheckpointRecord(cid, start)
        dag = self.sim.spec.dag
        marker = EpochMarker(frozenset(dag.edges), frozenset(), ckpt_id=cid)
        for op in dag.sources():
            for w in self.sim.by_op[op]:
                self.sim.send_fcm(w.name, marker, at=start)
        return cid

    def on_reconfig_request(self, t: float, fcm_delivery_time: float) -> None:
        """§7.3 checkpoint-based fault tolerance: cancel in-flight
        checkpoints, block new ones until the FCMs are delivered."""
        if self.policy != "fries_safe":
            return
        for rec in self.records.values():
            if not self._is_complete(rec.ckpt_id):
                rec.cancelled = True
        self._blocked_until = max(self._blocked_until, fcm_delivery_time)

    def _is_complete(self, cid: int) -> bool:
        snap = self.sim.snapshots.get(cid, {})
        return len(snap) == len(self.sim.workers)

    def valid_snapshots(self) -> dict[int, dict[str, int]]:
        """Complete, non-cancelled snapshots usable for recovery."""
        return {
            cid: snap
            for cid, snap in self.sim.snapshots.items()
            if self._is_complete(cid) and not self.records[cid].cancelled
        }


def snapshot_consistent(snapshot: dict[str, int], reconfig_workers: set[str]) -> bool:
    """True iff all reconfiguration workers snapshotted the same version."""
    versions = {snapshot[w] for w in reconfig_workers if w in snapshot}
    return len(versions) <= 1


def recover(spec: WorkflowSpec, snapshot: dict[str, int], **sim_kwargs) -> Simulator:
    """Restart a fresh engine with each worker's configuration version
    restored from ``snapshot`` (state replay is out of scope: the paper's
    concern is configuration consistency of the snapshot)."""
    sim = Simulator(spec, **sim_kwargs)
    for wname, version in snapshot.items():
        if wname in sim.workers:
            w = sim.workers[wname]
            w.version = version
            w.applied = version >= 2
    return sim
