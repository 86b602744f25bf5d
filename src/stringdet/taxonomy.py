"""Vertex classification and vertex ideals.

Every vertex of a valid algebra on at least two vertices falls into one of
eight classes, determined by its in/out degrees (both at most 2).  Sinks and
branching vertices additionally carry a vertex-ideal status whose vanishing
is what the determiner criteria consume: the ideal is zero precisely when a
fork vertex (two outgoing arrows) upstream reaches the vertex through a
relation-free directed path; at fork-flow and crossing vertices its paths
toward both out-neighbours must also each hit a relation.  The smallest
such fork vertex is the witness.

All statuses come from one pass over the arrows (`vertex_ideals`).  The
reach of an arrow is the longest relation-free directed path ending with
it.  Two facts make it well defined and cheap:

- a relation-free path stays relation-free on every suffix, so the
  relation-free paths ending with an arrow are suffixes of its reach;
- in a valid algebra the branching conditions leave at most one arrow into
  a vertex that continues a given arrow out of it without a length-2
  relation, so each reach extends the reach of that one arrow.

The pass visits arrows source first.  The reach of an arrow extends the
reach before it, unless a generator ending with the arrow cuts it: then the
reach is that generator minus its first arrow.  Each arrow keeps the length
of its reach and the smallest fork vertex on it; each cut arrow keeps the
running minima along its generator, which answer the fork-flow and crossing
condition (only fork vertices upstream of a generator's start qualify).
The cost is O(n + total relation length); nothing is cached between calls.
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

#: Classes that carry a vertex ideal.
IDEAL_BEARING = frozenset({
    VertexClass.SINK_LEAF, VertexClass.MEET_SINK, VertexClass.MEET_FLOW,
    VertexClass.FORK_FLOW, VertexClass.CROSSING,
})


def classify_vertex(algebra: BoundQuiverAlgebra, v: int) -> VertexClass:
    q = algebra.quiver
    if not q.has_vertex(v):
        raise ValueError(f"unknown vertex {v}")
    key = (q.in_degree(v), q.out_degree(v))
    cls = _BY_DEGREES.get(key)
    if cls is None:
        if key == (0, 0):
            raise ValueError(
                f"vertex {v} is isolated; classification needs at least two vertices")
        raise ValueError(f"vertex {v} has degrees {key}, not a valid vertex shape")
    return cls


class IdealKind(Enum):
    ZERO = "zero"
    WHOLE_ALGEBRA = "whole algebra"          # relation-free with this unique sink
    DEFINING_IDEAL = "defining ideal"        # the full relation ideal
    NEIGHBOURHOOD_IDEAL = "neighbourhood ideal"  # restriction to the branching star


@dataclass(frozen=True)
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


class _Reaches:
    """The reach of every arrow of a valid algebra: the longest relation-free
    directed path ending with it.  Depth d on a reach is the arrow d steps
    before its last one; a fork vertex is one with two outgoing arrows."""

    def __init__(self, algebra: BoundQuiverAlgebra):
        q = algebra.quiver
        pairs: set[tuple[str, ...]] = set()
        longer: dict[str, list[tuple[str, ...]]] = {}
        for gen in algebra.relations.generators:
            if len(gen) == 2:
                pairs.add(gen)
            else:
                longer.setdefault(gen[-1], []).append(gen)
        self._pairs, self._longer = pairs, longer
        self._fork = {v: v for v in q.vertices if q.out_degree(v) == 2}
        self._arrows = q.arrow_map
        # arrow name -> (the arrow before it on its reach or None, the
        # reach's length, the smallest fork vertex among its sources, the
        # nearest arrow at or before it whose reach a generator cut or None)
        self.reach: dict[str, tuple[str | None, int, float, str | None]] = {}
        # cut arrow -> running minima of fork vertices along its reach, from
        # the far end
        self._cut_lows: dict[str, list[float]] = {}

        reach, inf = self.reach, math.inf
        waiting = {v: q.in_degree(v) for v in q.vertices}
        ready = [v for v in q.vertices if waiting[v] == 0]
        for v in ready:  # source-first order; the list grows while it is read
            ins = [c.name for c in q.in_arrows(v)]
            fork_here = self._fork.get(v, inf)
            for a in q.out_arrows(v):
                name = a.name
                # the branching conditions leave at most one arrow into v
                # that continues a without a length-2 relation
                prev = None
                for c in ins:
                    if (c, name) not in pairs:
                        prev = c
                if prev is None:
                    reach[name] = (None, 1, fork_here, None)
                else:
                    _, span, low, cut = reach[prev]
                    reach[name] = (prev, span + 1, fork_here if fork_here < low else low, cut)
                if name in longer:
                    self._cut_by(name, longer[name])
                waiting[a.target] -= 1
                if waiting[a.target] == 0:
                    ready.append(a.target)

    def _cut_by(self, name: str, gens: list[tuple[str, ...]]) -> None:
        """Shorten the reach of name to the shortest generator ending with it
        whose other arrows lie on the reach, minus that generator's first
        arrow."""
        prev, span, _, _ = self.reach[name]
        cut_by = None
        for gen in gens:
            if len(gen) - 1 < span and self._on_reach(gen[:-1], prev):
                span, cut_by = len(gen) - 1, gen
        if cut_by is None:
            return
        running, low = [], math.inf
        for arrow in cut_by[1:]:
            low = min(low, self._fork.get(self._arrows[arrow].source, math.inf))
            running.append(low)
        self._cut_lows[name] = running
        self.reach[name] = (prev, span, low, name)

    def _on_reach(self, path: tuple[str, ...], arrow: str | None) -> bool:
        """True iff path is a suffix of the reach of arrow."""
        if arrow is None or len(path) > self.reach[arrow][1]:
            return False
        for name in reversed(path):
            if name != arrow:
                return False
            arrow = self.reach[arrow][0]
        return True

    def blocked_low(self, arrow: str, outs: tuple[Arrow, ...]) -> float:
        """Smallest fork vertex j on the reach of arrow such that, for every
        b in outs, the path from j through arrow and b contains a relation:
        j lies at or upstream of the start of a generator ending with
        (arrow, b)."""
        depth, first = 0, arrow  # the deepest such start, and its arrow
        for b in outs:
            if (arrow, b.name) in self._pairs:
                continue
            found = [gen for gen in self._longer.get(b.name, ())
                     if self._on_reach(gen[:-1], arrow)]
            if not found:
                return math.inf
            gen = min(found, key=len)
            if len(gen) - 2 > depth:
                depth, first = len(gen) - 2, gen[0]
        _, span, _, cut = self.reach[arrow]
        _, first_span, first_low, _ = self.reach[first]
        if first_span == span - depth:
            return first_low
        # a generator cut the reach between first and arrow, so the far end
        # of the reach, first included, lies on that generator
        return self._cut_lows[cut][span - depth - 1]


def vertex_ideals(algebra: BoundQuiverAlgebra) -> dict[int, VertexIdealStatus]:
    """Vertex-ideal status of every sink, meet-flow, fork-flow and crossing
    vertex of a valid algebra, from one pass over its arrows."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    q = algebra.quiver
    reaches = _Reaches(algebra)
    sinks = q.sinks()
    statuses: dict[int, VertexIdealStatus] = {}
    for v in q.vertices:
        cls = classify_vertex(algebra, v)
        if cls not in IDEAL_BEARING:
            continue
        if cls is VertexClass.MEET_FLOW:
            statuses[v] = VertexIdealStatus(v, IdealKind.ZERO)
            continue
        if cls in (VertexClass.SINK_LEAF, VertexClass.MEET_SINK):
            low = min(reaches.reach[a.name][2] for a in q.in_arrows(v))
            if not algebra.relations.is_empty:
                otherwise = IdealKind.DEFINING_IDEAL
            else:
                # the whole algebra when v is the only sink, otherwise the
                # (empty) relation ideal
                otherwise = IdealKind.WHOLE_ALGEBRA if sinks == (v,) else IdealKind.ZERO
        else:
            # fork flow / crossing: the witness must also see relations
            # toward both forward branches
            outs = q.out_arrows(v)
            low = min(reaches.blocked_low(a.name, outs) for a in q.in_arrows(v))
            otherwise = IdealKind.NEIGHBOURHOOD_IDEAL
        statuses[v] = (VertexIdealStatus(v, IdealKind.ZERO, witness=low) if low != math.inf
                       else VertexIdealStatus(v, otherwise))
    return statuses


def vertex_ideal(algebra: BoundQuiverAlgebra, v: int) -> VertexIdealStatus:
    """Vertex-ideal status of one vertex (see vertex_ideals).  Raises for
    classes that carry no ideal."""
    cls = classify_vertex(algebra, v)
    if cls not in IDEAL_BEARING:
        raise ValueError(f"vertex {v} ({cls.value}) carries no vertex ideal")
    return vertex_ideals(algebra)[v]


def fork_source_count(algebra: BoundQuiverAlgebra) -> int:
    """Number of sources with two neighbours (the p of the counting formula)."""
    return sum(1 for v in algebra.quiver.vertices
               if classify_vertex(algebra, v) is VertexClass.FORK_SOURCE)


def nonzero_ideal_count(algebra: BoundQuiverAlgebra) -> int:
    """Number of vertices with a non-zero vertex ideal (the q of the counting
    formula).  Counted per vertex, not per distinct ideal."""
    return sum(1 for s in vertex_ideals(algebra).values() if s.is_nonzero)
