"""Substrate: a deterministic discrete-event simulation of a distributed
pipelined dataflow engine (the paper's Flink testbed stand-in)."""
from .channel import Channel
from .faults import CheckpointCoordinator, recover, snapshot_consistent
from .messages import DataMsg, EpochMarker
from .schedulers import (
    EpochScheduler,
    FriesScheduler,
    MultiVersionScheduler,
    NaiveFCMScheduler,
    ReconfigResult,
    SavepointScheduler,
    run_reconfig_experiment,
)
from .simulator import Simulator
from .worker import Worker
from .workload import EdgeSpec, KeyDist, OpSpec, WorkflowSpec

__all__ = [
    "Channel",
    "CheckpointCoordinator",
    "recover",
    "snapshot_consistent",
    "DataMsg",
    "EpochMarker",
    "EpochScheduler",
    "FriesScheduler",
    "MultiVersionScheduler",
    "NaiveFCMScheduler",
    "ReconfigResult",
    "SavepointScheduler",
    "run_reconfig_experiment",
    "Simulator",
    "Worker",
    "EdgeSpec",
    "KeyDist",
    "OpSpec",
    "WorkflowSpec",
]
