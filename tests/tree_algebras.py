"""The sweep's generators: every valid algebra on a small labeled tree, and a
seeded sampler of valid tree algebras of any size.  Tests and conftest.py
import them; the package never does."""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Sequence

from stringdet.algebra import BoundQuiverAlgebra, RelationSet
from stringdet.families import _algebra


def _prufer_trees(n: int):
    """All labeled trees on vertices 1..n as edge lists (undirected)."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(1, 2)]
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield _tree_from_prufer(list(seq), n)


def _tree_from_prufer(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _directed_paths(arrows: list[tuple[str, int, int]]) -> list[tuple[str, ...]]:
    """All composable directed paths of length >= 2."""
    by_source: dict[int, list[tuple[str, int]]] = {}
    for name, s, t in arrows:
        by_source.setdefault(s, []).append((name, t))
    paths: list[tuple[str, ...]] = []
    stack = [((name,), t) for name, _, t in arrows]
    while stack:
        path, end = stack.pop()
        if len(path) >= 2:
            paths.append(path)
        stack.extend((path + (name,), t) for name, t in by_source.get(end, []))
    return sorted(paths, key=lambda p: (len(p), p))


def _antichains(paths: list[tuple[str, ...]]):
    """All subsets in which no path contains another as a consecutive run."""
    for r in range(len(paths) + 1):
        for combo in itertools.combinations(paths, r):
            if not _violates_antichain(combo):
                yield list(combo)


def iter_tree_algebras(n: int):
    """Every validated string algebra on a labeled tree with n vertices: all
    trees, all orientations, all reduced monomial relation sets."""
    return (alg for alg in iter_tree_candidates(n) if alg.is_valid)


def iter_tree_candidates(n: int):
    """Every validated algebra on a labeled tree with n vertices, valid or
    not: all trees, all orientations, all reduced monomial relation sets."""
    for edges in _prufer_trees(n):
        for mask in itertools.product((0, 1), repeat=len(edges)):
            arrows = []
            for k, ((u, w), flip) in enumerate(zip(edges, mask), start=1):
                s, t = (u, w) if not flip else (w, u)
                arrows.append((f"a{k}", s, t))
            paths = _directed_paths(arrows)
            for rels in _antichains(paths):
                yield _algebra(list(range(1, n + 1)), arrows, rels)


def _violates_antichain(paths: Sequence[tuple[str, ...]]) -> bool:
    """True iff some path contains a shorter one as a consecutive run."""
    return any(RelationSet(tuple(b for b in paths if len(b) < len(a))).contains_path(a)
               for a in paths)


def random_tree_algebra(rng: random.Random, n: int) -> BoundQuiverAlgebra:
    """One valid algebra on n >= 1 vertices, built directly: grow a tree
    through free in/out slots (every in- and out-degree at most 2) on
    shuffled vertex ids, meet each unmet branching condition with one of its
    two length-2 paths, then add random directed paths of length >= 2 that
    keep the relations an antichain.  Every valid algebra on n vertices can
    be drawn."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    ins, outs = {ids[0]: []}, {ids[0]: []}
    arrows = []
    for k in range(1, n):
        v = rng.choice([u for u in ins if len(ins[u]) < 2 or len(outs[u]) < 2])
        new, name = ids[k], f"a{k}"
        ins[new], outs[new] = [], []
        into = len(outs[v]) == 2 or (len(ins[v]) < 2 and rng.random() < 0.5)
        src, tgt = (new, v) if into else (v, new)
        arrows.append((name, src, tgt))
        outs[src].append(name)
        ins[tgt].append(name)
    # each branching condition asks for one of two length-2 paths
    conditions = []
    for v in ins:
        if len(ins[v]) == 2:
            conditions += [[(c, g) for c in ins[v]] for g in outs[v]]
        if len(outs[v]) == 2:
            conditions += [[(g, b) for b in outs[v]] for g in ins[v]]
    rels: list[tuple[str, ...]] = []
    for options in conditions:
        if not any(p in rels for p in options):
            rels.append(rng.choice(options))
    paths = _directed_paths(arrows)
    rng.shuffle(paths)
    for p in paths:
        if (rng.random() < 0.5 and not RelationSet(tuple(rels)).contains_path(p)
                and not any(RelationSet((p,)).contains_path(r) for r in rels)):
            rels.append(p)
    return _algebra(sorted(ids), arrows, sorted(rels))
