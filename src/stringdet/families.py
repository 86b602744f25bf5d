"""Generators for the worked examples and the parameterized families that
`stringdet gen-example` names.  The sweep's enumerator and sampler of small
tree algebras live with the tests, in tests/tree_algebras.py."""

from __future__ import annotations

import inspect

from .algebra import (Arrow, BoundQuiverAlgebra, Quiver, _reduce_generators, serialize,
                      validate)

#: Most vertices an example may have; a larger one is refused before it is built.
MAX_VERTICES = 10**6


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices are more than the limit of {MAX_VERTICES}")


def _algebra(vertices: list[int], arrows: list[tuple[str, int, int]],
             relations: list[tuple[str, ...]]) -> BoundQuiverAlgebra:
    quiver = Quiver(tuple(sorted(vertices)), tuple(Arrow(*a) for a in arrows))
    alg = BoundQuiverAlgebra(quiver, _reduce_generators([tuple(g) for g in relations]))
    return validate(alg)


def linear_algebra(n: int, orientation: str | None = None,
                   relations: list[tuple[str, ...]] | None = None) -> BoundQuiverAlgebra:
    """Line on n vertices.  orientation is a string of '>'/'<' per edge
    (default all '>'), edge i joining vertices i and i+1 via arrow a<i>."""
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_size(n)
    orientation = orientation or ">" * (n - 1)
    if len(orientation) != n - 1 or any(c not in "><" for c in orientation):
        raise ValueError("orientation must be '>'/'<' per edge")
    arrows = []
    for i, c in enumerate(orientation, start=1):
        src, tgt = (i, i + 1) if c == ">" else (i + 1, i)
        arrows.append((f"a{i}", src, tgt))
    return _algebra(list(range(1, n + 1)), arrows, relations or [])


def fork_algebra(n: int, orientation: str | None = None) -> BoundQuiverAlgebra:
    """Fork-ended line on n >= 4 vertices: prongs 1 and 2 joined to 3, then a
    line 3..n.  Arrows a1: 1-3, a2: 2-3, a<i>: i-(i+1) for i >= 3; orientation
    one '>'/'<' per arrow in that order ('>' points toward the larger-numbered
    end).  Vertex 3 gets the zero relations its degrees force: with two
    arrows in and one out, the first arrow in followed by the arrow out; with
    one in and two out, the arrow in followed by the first arrow out."""
    if n < 4:
        raise ValueError("fork shape needs at least 4 vertices")
    _check_size(n)
    orientation = orientation or ">" * (n - 1)
    if len(orientation) != n - 1 or any(c not in "><" for c in orientation):
        raise ValueError("orientation must be '>'/'<' per arrow")
    arrows = []
    for k, (lo, hi) in enumerate([(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]):
        src, tgt = (lo, hi) if orientation[k] == ">" else (hi, lo)
        arrows.append((f"a{k + 1}", src, tgt))
    return _algebra(list(range(1, n + 1)), arrows, _auto_branch_relations(arrows))


def _auto_branch_relations(arrows: list[tuple[str, int, int]]) -> list[tuple[str, ...]]:
    """One zero relation per forced branching condition, first arrow names
    winning ties."""
    rels: list[tuple[str, ...]] = []
    by_target: dict[int, list[str]] = {}
    by_source: dict[int, list[str]] = {}
    for name, s, t in arrows:
        by_source.setdefault(s, []).append(name)
        by_target.setdefault(t, []).append(name)
    verts = {s for _, s, _ in arrows} | {t for _, _, t in arrows}
    for v in sorted(verts):
        ins = sorted(by_target.get(v, []))
        outs = sorted(by_source.get(v, []))
        if len(ins) == 2 and outs:
            for g in outs:
                rels.append((ins[0], g))
        if len(outs) == 2 and ins:
            for g in ins:
                rels.append((g, outs[0]))
    return sorted(set(rels))


def crossing6_algebra() -> BoundQuiverAlgebra:
    """Six vertices around one crossing: 1 -> 3 <- 2, 3 -> 4, 3 -> 5 <- 6,
    with the straight-through compositions killed."""
    return _algebra(
        [1, 2, 3, 4, 5, 6],
        [("a1", 1, 3), ("a2", 2, 3), ("a3", 3, 4), ("a4", 3, 5), ("a5", 6, 5)],
        [("a1", "a3"), ("a2", "a4")])


def zigzag4_algebra() -> BoundQuiverAlgebra:
    """1 -> 2 <- 3 -> 4, no relations."""
    return _algebra([1, 2, 3, 4],
                    [("a1", 1, 2), ("a2", 3, 2), ("a3", 3, 4)], [])


def fan5_algebra(variant: str = "both") -> BoundQuiverAlgebra:
    """Five vertices: 3 fans out to 1 and 2, fed by 4, which also feeds 5.
    variant 'both' kills both compositions through 3, 'one' only the first."""
    rels = {"both": [("a3", "a1"), ("a3", "a2")], "one": [("a3", "a1")]}
    if variant not in rels:
        raise ValueError("variant must be 'both' or 'one'")
    return _algebra(
        [1, 2, 3, 4, 5],
        [("a1", 3, 1), ("a2", 3, 2), ("a3", 4, 3), ("a4", 4, 5)],
        rels[variant])


def crossing_tree_algebra(levels: int) -> BoundQuiverAlgebra:
    """Tree of crossings: level 0 is a single vertex; each level completes
    every current leaf to a two-in two-out crossing by attaching three fresh
    leaves (four at the first level).  All length-two paths are relations.
    The vertex count at level k is 2 * 3^k - 1."""
    if levels < 0:
        raise ValueError("levels must be non-negative")
    if levels > 11:  # 354,293 vertices; level 12 has 1,062,881 (never compute 3**levels)
        raise ValueError(f"level {levels} has more than the limit of {MAX_VERTICES} vertices")
    vertices = [1]
    arrows: list[tuple[str, int, int]] = []
    in_deg = {1: 0}
    out_deg = {1: 0}
    frontier = [1]
    next_vertex = 2
    next_arrow = 1

    def attach(child_src: int | None, child_tgt: int | None) -> None:
        nonlocal next_vertex, next_arrow
        v = next_vertex
        next_vertex += 1
        vertices.append(v)
        in_deg[v] = 0
        out_deg[v] = 0
        if child_src is not None:
            arrows.append((f"a{next_arrow}", v, child_src))
            out_deg[v] += 1
            in_deg[child_src] += 1
        else:
            arrows.append((f"a{next_arrow}", child_tgt, v))
            in_deg[v] += 1
            out_deg[child_tgt] += 1
        next_arrow += 1

    for _ in range(levels):
        new_frontier_start = next_vertex
        for leaf in frontier:
            while in_deg[leaf] < 2:
                attach(leaf, None)
            while out_deg[leaf] < 2:
                attach(None, leaf)
        frontier = list(range(new_frontier_start, next_vertex))

    rels = _all_length_two_paths(arrows)
    return _algebra(vertices, arrows, rels)


def _all_length_two_paths(arrows: list[tuple[str, int, int]]) -> list[tuple[str, ...]]:
    by_source: dict[int, list[str]] = {}
    for name, s, _ in arrows:
        by_source.setdefault(s, []).append(name)
    out = []
    for name, _, t in arrows:
        for nxt in by_source.get(t, []):
            out.append((name, nxt))
    return sorted(out)


GENERATORS = {
    "crossing6": crossing6_algebra,
    "zigzag4": zigzag4_algebra,
    "fan5": fan5_algebra,
    "crossing-tree": lambda levels=1: crossing_tree_algebra(int(levels)),
    "line": lambda n=4, orientation=None: linear_algebra(int(n), orientation),
    "fork": lambda n=5, orientation=None: fork_algebra(int(n), orientation),
}


def generate_example(name: str, **params) -> str:
    """The serialized example; a parameter its generator does not take is
    refused, not ignored."""
    if name not in GENERATORS:
        raise ValueError(f"unknown example {name!r}; choose from {sorted(GENERATORS)}")
    generator = GENERATORS[name]
    taken = inspect.signature(generator).parameters
    for key in params:
        if key not in taken:
            raise ValueError(f"example {name!r} takes no parameter {key!r}")
    return serialize(generator(**params))
