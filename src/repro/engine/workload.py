"""Workload specification for the simulated engine.

A :class:`WorkflowSpec` pairs a logical operator DAG (from ``repro.core``)
with per-operator runtime behaviour (cost per tuple per configuration
version, emission semantics, parallelism, straggler factors, output-key
distribution) and per-edge channel parameters (partitioning, latency,
capacity). The calibrated workflows in ``repro.workflows.defs`` draw keys
from fixed Zipf distributions; only their join selectivities and W4's
unnest fan-out are measured on Spark (``repro.workflows.profiles``).
"""
from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.dag import DAG

# Emission kinds, with their operator-class semantics. The kind decides the
# planner's flags: an engine spec's DAG never sets them, and
# ``repro.engine.schedulers.effective_logical_dag`` derives them.
#   source     — emits per rate schedule (one-to-one)
#   map        — 1 tuple in, 1 out, emitted on out-edge 0 only
#   filter     — 0/1 out (selectivity), one-to-one
#   split      — routes to exactly one out-edge by key hash, one-to-one
#   union      — pass-through, one-to-one, emitted on out-edge 0 only
#   join       — k outputs per input (fanout), one-to-many when fanout>1
#   replicate  — 1 output on *each* out-edge (edge-wise one-to-one)
#   selfjoin   — stateful: emits one combined tuple once `arity` copies of a
#                transaction have arrived at one worker (unique per txn
#                where at most `arity` copies can reach it)
#   sink       — consumes
KINDS = (
    "source",
    "map",
    "filter",
    "split",
    "union",
    "join",
    "replicate",
    "selfjoin",
    "sink",
)


@dataclass
class KeyDist:
    """A categorical distribution over integer keys, sampled via inverse CDF."""

    values: Sequence[int]
    cum_weights: Sequence[float]

    @classmethod
    def uniform(cls, n_keys: int) -> "KeyDist":
        return cls(range(n_keys), [i + 1 for i in range(n_keys)])

    @classmethod
    def zipf(cls, n_keys: int, alpha: float = 1.1) -> "KeyDist":
        w, acc = [], 0.0
        for r in range(1, n_keys + 1):
            acc += 1.0 / r**alpha
            w.append(acc)
        return cls(range(n_keys), w)

    def sample(self, rng: random.Random) -> int:
        cum_weights = self.cum_weights
        return self.values[bisect.bisect_left(cum_weights, rng.random() * cum_weights[-1])]


@dataclass
class OpSpec:
    """Runtime behaviour of one operator (all its workers).

    ``cost`` maps configuration version -> seconds per tuple; missing
    versions fall back to the highest defined version <= requested.
    ``straggler`` maps worker index -> cost multiplier.
    ``out_key`` of None keeps the input key; otherwise output keys are
    drawn from the distribution (this is what creates per-stage skew).
    """

    name: str
    kind: str = "map"
    parallelism: int = 1
    cost: dict[int, float] = field(default_factory=lambda: {1: 0.0})
    selectivity: float = 1.0
    fanout: int = 1
    arity: int = 2  # selfjoin: copies per txn to combine
    out_key: KeyDist | None = None
    straggler: dict[int, float] = field(default_factory=dict)
    rate: float | None = None  # source only: tuples/sec
    rate_schedule: list[tuple[float, float]] | None = None  # (t, rate) steps
    n_tuples: int | None = None  # source only: stop after n
    key_dist: KeyDist | None = None  # source only: key distribution

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")

    def cost_at(self, version: int, worker_index: int) -> float:
        vs = [v for v in self.cost if v <= version]
        base = self.cost[max(vs)] if vs else 0.0
        return base * self.straggler.get(worker_index, 1.0)

    def rate_at(self, t: float) -> float:
        if self.rate_schedule:
            r = self.rate_schedule[0][1]
            for start, rate in self.rate_schedule:
                if t >= start:
                    r = rate
            return r
        return self.rate or 1000.0


@dataclass
class EdgeSpec:
    """Channel parameters for one logical edge."""

    strategy: str = "hash"  # hash | forward | broadcast
    latency: float = 0.001
    capacity: int = 100


@dataclass
class WorkflowSpec:
    """A logical DAG plus runtime behaviour, ready to instantiate."""

    dag: DAG
    ops: dict[str, OpSpec]
    edges: dict[tuple[str, str], EdgeSpec] = field(default_factory=dict)
    fcm_latency: float = 0.002  # controller -> worker control-plane latency
    seed: int = 7

    def __post_init__(self) -> None:
        for v in self.dag.vertices:
            if v not in self.ops:
                raise ValueError(f"no OpSpec for operator {v!r}")
            if self.ops[v].name != v:
                raise ValueError(f"OpSpec {self.ops[v].name!r} is keyed as {v!r}")
            o = self.dag.op(v)
            if o.one_to_many or o.edgewise_one_to_one or o.unique_per_txn:
                raise ValueError(
                    f"operator {v!r} carries planner flags; a spec derives them from "
                    "its OpSpec (repro.engine.schedulers.effective_logical_dag)"
                )
        stray = self.edges.keys() - set(self.dag.edges)
        if stray:
            raise ValueError(f"EdgeSpec keyed on {sorted(stray)}, not DAG edges")
        for e in self.dag.edges:
            self.edges.setdefault(e, EdgeSpec())

    def edge_spec(self, e: tuple[str, str]) -> EdgeSpec:
        return self.edges[e]

    def parallelism(self) -> dict[str, int]:
        return {o: s.parallelism for o, s in self.ops.items()}

    def strategies(self) -> dict[tuple[str, str], str]:
        return {e: s.strategy for e, s in self.edges.items()}
