"""The Fries scheduler's planning side — Algorithms 2, 3 and 4 — plus the
plans of the epoch-based (EBR) and naive FCM baselines.

Planning is pure graph computation: given the dataflow DAG and the set of
reconfiguration operators, produce a :class:`ReconfigPlan` describing where
FCMs are sent and along which edges epoch markers are propagated. The
runtime side (delivering FCMs, marker alignment, applying configurations)
lives in :mod:`repro.engine.schedulers`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .dag import DAG, SubDAG
from .mcs import components, find_mcs, head_operators
from .pruning import ancestor_one_to_many, earliest_ancestors, prune_ancestors


@dataclass(frozen=True)
class ReconfigPlan:
    """A scheduled reconfiguration.

    ``reconfig_ops``
        the operators whose function is updated (the set in 𝓡).
    ``m``
        the vertex set used to build the MCS (reconfig ops + any earliest
        one-to-many ancestors kept after pruning).
    ``mcs``
        the minimal covering sub-DAG.
    ``component_list``
        weakly-connected components of the MCS, each a synchronization unit.
    ``heads``
        per component, the operators receiving an FCM from the controller.
        Epoch markers travel only on the components' edges.
    ``longest_path``
        max over components of the longest path (in edges) — the metric
        reported in Tables 4–6.
    """

    reconfig_ops: frozenset[str]
    m: frozenset[str]
    mcs: SubDAG
    component_list: tuple[SubDAG, ...]
    heads: tuple[tuple[str, ...], ...]
    longest_path: int


def _plan_from_m(dag: DAG, reconfig_ops: frozenset[str], m: set[str]) -> ReconfigPlan:
    mcs = find_mcs(dag, m)
    comps = tuple(components(dag, mcs))
    heads = tuple(tuple(head_operators(c)) for c in comps)
    return ReconfigPlan(
        reconfig_ops=reconfig_ops,
        m=frozenset(m),
        mcs=mcs,
        component_list=comps,
        heads=heads,
        longest_path=max((dag.longest_path_edges(c.vertices) for c in comps), default=0),
    )


def plan_one_to_one(dag: DAG, reconfig_ops: Iterable[str]) -> ReconfigPlan:
    """Algorithm 2 — valid only for dataflows with one-to-one operators.

    Raises ``ValueError`` if the dataflow contains a one-to-many operator
    upstream of a reconfiguration operator (Algorithm 3 is required then).
    """
    ops = frozenset(reconfig_ops)
    for o in ops:
        bad = ancestor_one_to_many(dag, o)
        if bad:
            raise ValueError(
                f"operator {o!r} has one-to-many ancestors {sorted(bad)}; "
                "use plan_general (Algorithm 3/4)"
            )
    return _plan_from_m(dag, ops, set(ops))


def plan_general(dag: DAG, reconfig_ops: Iterable[str], *, prune: bool = True) -> ReconfigPlan:
    """Algorithm 3 (``prune=False``) / Algorithm 4 (``prune=True``).

    For each reconfiguration operator, its earliest ancestor one-to-many
    operators (after optional §6.3 pruning) are added to M before the MCS
    is computed, so marker propagation starts at the fan-out points.
    """
    ops = frozenset(reconfig_ops)
    m: set[str] = set(ops)
    for o in ops:
        anc = ancestor_one_to_many(dag, o)
        if prune:
            anc = prune_ancestors(dag, anc, o, set(ops))
        m |= earliest_ancestors(dag, anc)
    return _plan_from_m(dag, ops, m)


def plan_epoch(dag: DAG, reconfig_ops: Iterable[str]) -> ReconfigPlan:
    """The EBR baseline expressed in the same plan shape: M is every
    operator, so the MCS is the entire dataflow, markers are aligned over
    all of it and every source is a head."""
    return _plan_from_m(dag, frozenset(reconfig_ops), set(dag.vertices))


def plan_naive(dag: DAG, reconfig_ops: Iterable[str]) -> ReconfigPlan:
    """The §4.1 naive scheduler in the same plan shape: every
    reconfiguration operator is its own singleton component and head, in
    topological order, so FCMs go straight to it and no marker travels."""
    ops = frozenset(reconfig_ops)
    order = [v for v in dag.topological_order() if v in ops]
    return ReconfigPlan(
        reconfig_ops=ops,
        m=ops,
        mcs=SubDAG(ops),
        component_list=tuple(SubDAG(frozenset({v})) for v in order),
        heads=tuple((v,) for v in order),
        longest_path=0,
    )
