"""Operator DAG model (§2.1).

A dataflow is a DAG of named operators. Each operator is classified as
*one-to-one* (emits at most one (tuple, receiver) pair per input tuple —
Def 5.1) or *one-to-many* (Def 5.2). Operators may additionally carry the
*uniqueness* property (§6.3: emits at most one output tuple per data
transaction, e.g. a self-join on a key).

Construction is incremental via ``add_operator``/``add_edge`` (or
``DAG.from_edges``); the topological order is cached and dropped on each
change.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Operator:
    """A dataflow operator vertex.

    ``one_to_many`` follows Def 5.2; ``edgewise_one_to_one`` is the §6.3
    property of e.g. Replicate/broadcast: one-to-many overall but emitting
    at most one tuple per input tuple *on each output edge*;
    ``unique_per_txn`` is the §6.3 uniqueness property (at most one output
    tuple per data transaction). Engine specs never set the three flags: the
    planner's view of a spec derives them from each operator's kind
    (``repro.engine.schedulers.effective_logical_dag``).
    """

    name: str
    one_to_many: bool = False
    edgewise_one_to_one: bool = False
    unique_per_txn: bool = False


class DAG:
    """A directed acyclic graph of :class:`Operator` vertices.

    Edges are ordered pairs of operator names. Parallel edges between the
    same pair are not allowed (the paper's dataflows never need them).
    """

    def __init__(self) -> None:
        self._ops: dict[str, Operator] = {}
        self._edges: list[tuple[str, str]] = []
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}
        self._topo: list[str] | None = None

    # -- construction -----------------------------------------------------
    def add_operator(self, op: Operator | str, **kwargs) -> Operator:
        """Add a vertex. Accepts an :class:`Operator` or a name + kwargs."""
        if isinstance(op, str):
            op = Operator(op, **kwargs)
        if op.name in self._ops:
            raise ValueError(f"duplicate operator {op.name!r}")
        self._ops[op.name] = op
        self._out[op.name] = []
        self._in[op.name] = []
        self._topo = None
        return op

    def add_edge(self, src: str, dst: str) -> None:
        """Add a directed edge ``src -> dst``; both vertices must exist."""
        for v in (src, dst):
            if v not in self._ops:
                raise KeyError(f"unknown operator {v!r}")
        if dst in self._out[src]:
            raise ValueError(f"duplicate edge {src}->{dst}")
        self._edges.append((src, dst))
        self._out[src].append(dst)
        self._in[dst].append(src)
        self._topo = None

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        *,
        one_to_many: Iterable[str] = (),
        edgewise_one_to_one: Iterable[str] = (),
        unique_per_txn: Iterable[str] = (),
    ) -> "DAG":
        """Convenience constructor from an edge list.

        Vertices are created on first mention.
        """
        edges = list(edges)
        otm, upt = set(one_to_many), set(unique_per_txn)
        e11 = set(edgewise_one_to_one)
        names: list[str] = []
        for a, b in edges:
            for v in (a, b):
                if v not in names:
                    names.append(v)
        dag = cls()
        for n in names:
            dag.add_operator(
                Operator(
                    n,
                    one_to_many=n in otm or n in e11,
                    edgewise_one_to_one=n in e11,
                    unique_per_txn=n in upt,
                )
            )
        for a, b in edges:
            dag.add_edge(a, b)
        dag.validate()
        return dag

    # -- accessors --------------------------------------------------------
    @property
    def vertices(self) -> list[str]:
        return list(self._ops)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return list(self._edges)

    def op(self, name: str) -> Operator:
        return self._ops[name]

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def out_edges(self, v: str) -> list[str]:
        return list(self._out[v])

    def in_edges(self, v: str) -> list[str]:
        return list(self._in[v])

    def sources(self) -> list[str]:
        return [n for n in self._ops if not self._in[n]]

    def sinks(self) -> list[str]:
        return [n for n in self._ops if not self._out[n]]

    # -- graph algorithms -------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle."""
        if self._topo is not None:
            return list(self._topo)
        indeg = {v: len(self._in[v]) for v in self._ops}
        queue = [v for v in self._ops if indeg[v] == 0]
        order: list[str] = []
        while queue:
            v = queue.pop()
            order.append(v)
            for w in self._out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) != len(self._ops):
            raise ValueError("graph has a cycle")
        self._topo = order
        return list(order)

    def validate(self) -> None:
        """Raise on cycles; no other structural constraints are imposed."""
        self.topological_order()

    def ancestors(self, v: str) -> set[str]:
        """All strict ancestors of ``v`` (vertices with a path to ``v``)."""
        seen: set[str] = set()
        stack = list(self._in[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._in[u])
        return seen

    def descendants(self, v: str) -> set[str]:
        """All strict descendants of ``v``."""
        seen: set[str] = set()
        stack = list(self._out[v])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(self._out[u])
        return seen

    def has_path(self, a: str, b: str) -> bool:
        """True iff there is a (possibly empty) directed path a -> b."""
        return a == b or b in self.descendants(a)

    def paths(self, a: str, b: str) -> list[list[str]]:
        """All simple directed paths from ``a`` to ``b`` (small DAGs only)."""
        result: list[list[str]] = []

        def walk(v: str, acc: list[str]) -> None:
            if v == b:
                result.append(acc + [v])
                return
            for w in self._out[v]:
                walk(w, acc + [v])

        walk(a, [])
        return result

    def longest_path_edges(self, vertices: Iterable[str] | None = None) -> int:
        """Length (edge count) of the longest path within ``vertices``.

        ``None`` means the whole DAG. This is the per-component metric the
        paper reports in Tables 4–6.
        """
        vs = set(self._ops) if vertices is None else set(vertices)
        dist = {v: 0 for v in vs}
        for v in self.topological_order():
            if v not in vs:
                continue
            for w in self._out[v]:
                if w in vs:
                    dist[w] = max(dist[w], dist[v] + 1)
        return max(dist.values(), default=0)

    def induced_edges(self, vertices: set[str]) -> list[tuple[str, str]]:
        """Edges of the subgraph induced by ``vertices``."""
        return [(a, b) for a, b in self._edges if a in vertices and b in vertices]


@dataclass(frozen=True)
class SubDAG:
    """An induced sub-DAG — vertex and edge sets over a parent :class:`DAG`."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    @classmethod
    def induced(cls, dag: DAG, vertices: Iterable[str]) -> "SubDAG":
        vs = frozenset(vertices)
        return cls(vs, frozenset(dag.induced_edges(set(vs))))

    def __contains__(self, v: str) -> bool:
        return v in self.vertices
