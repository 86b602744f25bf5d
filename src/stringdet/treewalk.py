"""Walks on the underlying tree.

On a tree there is exactly one simple undirected path between any two
vertices; `walk_between` exposes it with per-step orientation flags.
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
