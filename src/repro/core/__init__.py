"""The paper's primary contribution: the Fries reconfiguration scheduler.

Pure, deterministic graph/transaction algorithms — no engine, no Spark.
"""
from .dag import DAG, Operator, SubDAG
from .fries import ReconfigPlan, plan_epoch, plan_general, plan_naive, plan_one_to_one
from .mcs import brute_force_mcs, components, find_mcs, head_operators
from .parallel import ParallelDataflow, channel_counts, expand
from .pruning import (
    ancestor_one_to_many,
    can_prune_edgewise,
    can_prune_uniqueness,
    earliest_ancestors,
    prune_ancestors,
)
from .serializability import Verdict, check, check_brute_force, mixed_version_transactions
from .transactions import (
    DataOp,
    Schedule,
    UpdateOp,
    conflicting,
    data_transaction,
    function_update_transaction,
    scope,
)

__all__ = [
    "DAG",
    "Operator",
    "SubDAG",
    "ReconfigPlan",
    "plan_epoch",
    "plan_general",
    "plan_naive",
    "plan_one_to_one",
    "brute_force_mcs",
    "components",
    "find_mcs",
    "head_operators",
    "ParallelDataflow",
    "channel_counts",
    "expand",
    "ancestor_one_to_many",
    "can_prune_edgewise",
    "can_prune_uniqueness",
    "earliest_ancestors",
    "prune_ancestors",
    "Verdict",
    "check",
    "check_brute_force",
    "mixed_version_transactions",
    "DataOp",
    "Schedule",
    "UpdateOp",
    "conflicting",
    "data_transaction",
    "function_update_transaction",
    "scope",
]
