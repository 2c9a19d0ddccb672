"""§7.2 — parallel execution: expanding an operator DAG to a worker DAG.

Each operator ``o`` with parallelism ``p`` becomes workers ``o#0..o#p-1``.
Each logical edge carries a partitioning strategy that determines the
worker-level data channels:

``hash``
    every upstream worker connects to every downstream worker (p_a × p_b
    channels); workers keep the operator's one-to-one/one-to-many class.
``forward``
    worker i connects only to worker i (operator chaining / local forward;
    requires equal parallelism; p channels).
``broadcast``
    p_a × p_b channels, and the paper treats the upstream operator as if a
    Replicate operator followed it (see :func:`broadcast_adjusted`).

:func:`worker_pairs` is the one description of how a logical edge becomes
channels: :func:`expand` builds G* from it and the engine wires its
channels from it. ``channel_counts`` reproduces Table 7: total worker-level
data channels vs channels whose endpoints both lie in the MCS.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .dag import DAG
from .fries import ReconfigPlan

PARTITIONINGS = ("hash", "forward", "broadcast")


def worker_name(op: str, i: int) -> str:
    return f"{op}#{i}"


def worker_pairs(
    edge: tuple[str, str], strategy: str, parallelism: dict[str, int]
) -> list[tuple[int, int]]:
    """The ``(i, j)`` worker index pairs joined by a channel of the logical
    ``edge``, upstream index major. Operators missing from ``parallelism``
    have one worker."""
    a, b = edge
    pa, pb = parallelism.get(a, 1), parallelism.get(b, 1)
    if strategy not in PARTITIONINGS:
        raise ValueError(f"unknown partitioning {strategy!r} for edge {edge}")
    for op, p in ((a, pa), (b, pb)):
        if p < 1:
            raise ValueError(f"parallelism of {op!r} must be >= 1")
    if strategy == "forward":
        if pa != pb:
            raise ValueError(
                f"forward edge {a}->{b} requires equal parallelism ({pa} != {pb})"
            )
        return [(i, i) for i in range(pa)]
    return [(i, j) for i in range(pa) for j in range(pb)]


def broadcast_adjusted(dag: DAG, edge_strategy: dict[tuple[str, str], str]) -> DAG:
    """§7.2's broadcast adjustment at the logical level: an operator with a
    broadcast out-edge sends one copy per downstream worker along that one
    logical edge, so it is one-to-many and *not* edge-wise one-to-one.
    (Each worker channel carries one copy, so :func:`expand` adds edge-wise
    one-to-one back on top at the worker level.)"""
    broadcasters = {a for (a, b) in dag.edges if edge_strategy.get((a, b)) == "broadcast"}
    out = DAG()
    for v in dag.topological_order():
        o = dag.op(v)
        if v in broadcasters:
            o = replace(o, one_to_many=True, edgewise_one_to_one=False)
        out.add_operator(o)
    for e in dag.edges:
        out.add_edge(*e)
    return out


@dataclass(frozen=True)
class ParallelDataflow:
    """The worker-level DAG G* plus the mapping back to operators."""

    dag: DAG  # worker-level
    parallelism: dict[str, int]
    edge_strategy: dict[tuple[str, str], str]

    def workers(self, op: str) -> list[str]:
        return [worker_name(op, i) for i in range(self.parallelism[op])]


def expand(
    dag: DAG,
    parallelism: dict[str, int],
    edge_strategy: dict[tuple[str, str], str],
) -> ParallelDataflow:
    """Build G* = (V*, E*) from G, per-operator parallelism and per-edge
    partitioning strategies. Unlisted edges default to ``hash``."""
    strategies = {e: edge_strategy.get(e, "hash") for e in dag.edges}
    pairs = {e: worker_pairs(e, s, parallelism) for e, s in strategies.items()}
    logical = broadcast_adjusted(dag, strategies)
    wdag = DAG()
    for op in dag.topological_order():
        o, lo = dag.op(op), logical.op(op)
        # One copy of a broadcast tuple per worker channel: a broadcasting
        # worker is edge-wise one-to-one unless the operator is one-to-many.
        e11 = o.edgewise_one_to_one or (lo.one_to_many and not o.one_to_many)
        for i in range(parallelism.get(op, 1)):
            wdag.add_operator(replace(lo, name=worker_name(op, i), edgewise_one_to_one=e11))
    for (a, b), ps in pairs.items():
        for i, j in ps:
            wdag.add_edge(worker_name(a, i), worker_name(b, j))
    return ParallelDataflow(wdag, dict(parallelism), strategies)


def n_channels(pdf: ParallelDataflow, edge: tuple[str, str]) -> int:
    """Worker-level channel count of one logical edge."""
    return len(worker_pairs(edge, pdf.edge_strategy[edge], pdf.parallelism))


def channel_counts(pdf: ParallelDataflow, plan: ReconfigPlan) -> tuple[int, int]:
    """(total channels between all workers, channels between MCS workers)
    — the two columns of Table 7. ``plan`` is the operator-level Fries plan;
    MCS channels are the worker-level channels of the MCS's edges."""
    logical = pdf.edge_strategy.keys()
    total = sum(n_channels(pdf, e) for e in logical)
    mcs_edges = set(plan.mcs.edges)
    mcs = sum(n_channels(pdf, e) for e in logical if e in mcs_edges)
    return total, mcs
