"""Walks and induced subquivers on the underlying tree.

On a tree there is exactly one simple undirected path between any two
vertices; these helpers expose it with per-step orientation flags, decide
linearity (all steps along the arrows), and restrict the relation ideal to
induced subquivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Arrow, BoundQuiverAlgebra


@dataclass(frozen=True)
class Step:
    arrow: Arrow
    forward: bool  # True when traversed source -> target


@dataclass(frozen=True)
class TreeWalk:
    start: int
    end: int
    steps: tuple[Step, ...]

    def vertices(self) -> tuple[int, ...]:
        out = [self.start]
        for s in self.steps:
            out.append(s.arrow.target if s.forward else s.arrow.source)
        return tuple(out)

    def arrow_names(self) -> frozenset[str]:
        return frozenset(s.arrow.name for s in self.steps)

    def reversed(self) -> "TreeWalk":
        steps = tuple(Step(s.arrow, not s.forward) for s in reversed(self.steps))
        return TreeWalk(self.end, self.start, steps)


@dataclass(frozen=True)
class NeighbourhoodSubquiver:
    center: int
    members: frozenset[int]
    arrows: tuple[Arrow, ...]

    def arrow_names(self) -> frozenset[str]:
        return frozenset(a.name for a in self.arrows)


def walk_between(algebra: BoundQuiverAlgebra, start: int, end: int) -> TreeWalk:
    """The unique simple undirected path from start to end, with orientation
    flags per step.  start == end yields the empty walk."""
    q = algebra.quiver
    for v in (start, end):
        if not q.has_vertex(v):
            raise ValueError(f"unknown vertex {v}")
    parents = q.rooted_parents

    def chain(v: int) -> list[int]:
        out = [v]
        while parents[out[-1]] is not None:
            out.append(parents[out[-1]][0])
        return out

    up_start = chain(start)
    up_end = chain(end)
    on_end = set(up_end)
    meet = next(v for v in up_start if v in on_end)

    steps: list[Step] = []
    v = start
    while v != meet:
        parent, arrow = parents[v]
        steps.append(Step(arrow, forward=(arrow.source == v)))
        v = parent
    down: list[Step] = []
    v = end
    while v != meet:
        parent, arrow = parents[v]
        down.append(Step(arrow, forward=(arrow.target == v)))
        v = parent
    steps.extend(reversed(down))
    return TreeWalk(start, end, tuple(steps))


def is_linear(walk: TreeWalk) -> bool:
    """True iff every step follows its arrow, i.e. the walk is a directed
    path from start to end.  The empty walk is linear."""
    return all(s.forward for s in walk.steps)


def restricted_ideal_nonzero(algebra: BoundQuiverAlgebra,
                             region: TreeWalk | NeighbourhoodSubquiver) -> bool:
    """True iff some relation generator lies entirely inside the induced
    subquiver (all of its arrows induced by the region's vertices)."""
    names = region.arrow_names()
    return any(all(a in names for a in gen) for gen in algebra.relations.generators)


def neighbourhood(algebra: BoundQuiverAlgebra, center: int) -> NeighbourhoodSubquiver:
    """Induced subquiver on a branching vertex and its neighbours."""
    q = algebra.quiver
    if not q.has_vertex(center):
        raise ValueError(f"unknown vertex {center}")
    ns = q.neighbours(center)
    if len(ns) < 3:
        raise ValueError(f"vertex {center} has {len(ns)} neighbours, need at least 3")
    members = frozenset(ns) | {center}
    arrows = tuple(a for a in q.arrows if a.source in members and a.target in members)
    return NeighbourhoodSubquiver(center, members, arrows)
