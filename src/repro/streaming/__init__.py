"""Spark-side reconfiguration executors: the mini-batch baseline (Table 2's
Spark Streaming strategy, one pass with a version cut at the first epoch
boundary after the request) and offline swap-schedule replay for
consistency validation on real Catalyst execution."""
from .consistency import count_mixed, mixed_version_txns, versions_per_txn
from .fcm_exec import (
    SwapSchedule,
    epoch_schedule,
    fries_schedule,
    naive_schedule,
    w4_with_swap,
)
from .microbatch import MicrobatchRun, run_w1_microbatch

__all__ = [
    "count_mixed",
    "mixed_version_txns",
    "versions_per_txn",
    "SwapSchedule",
    "epoch_schedule",
    "fries_schedule",
    "naive_schedule",
    "w4_with_swap",
    "MicrobatchRun",
    "run_w1_microbatch",
]
