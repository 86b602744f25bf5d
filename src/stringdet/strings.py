"""Reduced walks on the quiver and their canonical forms.

A walk alternates arrows traversed forwards (direct letters) and backwards
(inverse letters).  On a tree quiver a walk without immediate backtracking is
a simple path, so the walks here are exactly the simple paths whose maximal
same-direction runs avoid the relation ideal.  A walk and its reverse present
the same module; the lexicographically smaller rendering is the canonical
representative.  Each string keeps its vertex path; on a tree its letters are
exactly the arrows with both ends in that path.  Enumeration walks only the
vertex pairs that are strings: a depth-first search from each vertex stops a
branch at the first run holding a relation, and builds each string it
reaches with no second test.  make_string validates walks from outside the
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import BoundQuiverAlgebra
from .treewalk import walk_between


@dataclass(frozen=True)
class Letter:
    arrow: str
    direct: bool


@dataclass(frozen=True)
class StringWalk:
    """letters[i] joins vertices[i] to vertices[i + 1]; on a tree the letters
    are the arrows with both ends in the support, set(vertices)."""
    vertices: tuple[int, ...]
    letters: tuple[Letter, ...]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def rendering(self) -> tuple:
        return tuple((l.arrow, 0 if l.direct else 1) for l in self.letters)

    def render_text(self) -> str:
        if self.is_trivial:
            return f"({self.start})"
        return " ".join(l.arrow if l.direct else l.arrow + "^-" for l in self.letters)


class InvalidStringError(ValueError):
    pass


def _inverse(walk: StringWalk) -> StringWalk:
    inv = tuple(Letter(l.arrow, not l.direct) for l in reversed(walk.letters))
    return StringWalk(walk.vertices[::-1], inv)


def _canonical(vertices: tuple[int, ...], letters: tuple[Letter, ...]) -> StringWalk:
    """The walk along vertices by letters, or its inverse, whichever renders
    smaller."""
    walk = StringWalk(vertices, letters)
    return min(walk, _inverse(walk), key=StringWalk.rendering)


def make_string(algebra: BoundQuiverAlgebra, start: int,
                letters: tuple[Letter, ...] | list[Letter]) -> StringWalk:
    """Validate and canonicalize a walk, building its vertex path.  Raises
    InvalidStringError when the letters do not compose, backtrack, revisit a
    vertex, or contain a same-direction run lying in the relation ideal."""
    letters = tuple(letters)
    if not algebra.quiver.has_vertex(start):
        raise InvalidStringError(f"unknown vertex {start}")
    arrows = algebra.quiver.arrow_map
    verts = [start]
    for letter in letters:
        a = arrows[letter.arrow]
        frm, to = (a.source, a.target) if letter.direct else (a.target, a.source)
        if frm != verts[-1]:
            raise InvalidStringError(f"letter {letter} does not compose at {verts[-1]}")
        verts.append(to)
    # a backtrack revisits a vertex, and the loop above has checked that runs compose
    if len(set(verts)) != len(verts):
        raise InvalidStringError("walk revisits a vertex")
    for run in _direction_runs(letters):
        if algebra.relations.contains_path(run):
            raise InvalidStringError(f"run {run} lies in the relation ideal")
    return _canonical(tuple(verts), letters)


def _direction_runs(letters: tuple[Letter, ...]) -> list[tuple[str, ...]]:
    """Maximal same-direction runs, each returned as a composable directed
    path in traversal order (inverse runs are read against the walk)."""
    runs: list[tuple[str, ...]] = []
    i = 0
    while i < len(letters):
        j = i
        while j + 1 < len(letters) and letters[j + 1].direct == letters[i].direct:
            j += 1
        chunk = [l.arrow for l in letters[i:j + 1]]
        runs.append(tuple(chunk) if letters[i].direct else tuple(reversed(chunk)))
        i = j + 1
    return runs


def enumerate_strings(algebra: BoundQuiverAlgebra) -> tuple[StringWalk, ...]:
    """All strings up to inversion: one trivial string per vertex plus every
    surviving simple path.  Finite because the quiver is a tree."""
    return _sorted_strings(_iter_strings(algebra))


def _iter_strings(algebra: BoundQuiverAlgebra) -> Iterator[StringWalk]:
    """The strings of enumerate_strings, unsorted and built one at a time:
    the trivial strings, then for each vertex a in vertex order the string
    to every later vertex b that the search from a reaches.  Any walk longer
    than a pruned branch keeps its relation, so the pairs never reached are
    exactly those whose walk is not a string, and a reached pair's walk
    needs no second test.  A step that reaches a vertex before a meets a
    string already built: O(N + n) steps for N strings."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    q, rels = algebra.quiver, algebra.relations
    for v in q.vertices:
        yield StringWalk((v,), ())
    order = {v: i for i, v in enumerate(q.vertices)}
    # a relation a new arrow completes lies in the last `keep` + 1 arrows of its run
    keep = max(map(len, rels.generators), default=1) - 1
    for a in q.vertices:
        # (vertex, vertex before it, tail of its last run as a directed path,
        # that run's direction: True when traversed source -> target)
        stack = [(a, None, (), None)]
        while stack:
            v, before, run, forward = stack.pop()
            if order[v] > order[a]:
                walk = walk_between(algebra, a, v)
                yield _canonical(walk.vertices(),
                                 tuple(Letter(s.arrow.name, s.forward) for s in walk.steps))
            for x in q.outgoing[v] + q.incoming[v]:
                fwd = x.source == v
                w = x.target if fwd else x.source
                if w == before:
                    continue
                if fwd is not forward:
                    grown = (x.name,)
                elif fwd:
                    grown = (run + (x.name,))[-keep - 1:]
                else:
                    grown = ((x.name,) + run)[:keep + 1]
                if not rels.contains_path(grown):
                    stack.append((w, v, grown, fwd))


def _sorted_strings(found: Iterable[StringWalk]) -> tuple[StringWalk, ...]:
    return tuple(sorted(found, key=lambda s: (len(s), s.rendering(), s.start)))


# --------------------------------------------------------------------------
# distinguished supports: projectives, injectives and radical summands are thin
# and fixed by their supports, read off the vertex sets of the arms at a vertex

def _arm(algebra: BoundQuiverAlgebra, first: str, outgoing: bool) -> frozenset[int]:
    """Vertices of the maximal surviving directed path starting (outgoing) or
    ending (incoming) with the given arrow, both ends included.  Raises
    InvalidStringError when two continuations survive."""
    q, rels = algebra.quiver, algebra.relations
    step = q.outgoing if outgoing else q.incoming
    a = q.arrow_map[first]
    run, tip = (first,), a.target if outgoing else a.source
    found = [a.source, a.target]
    while True:
        ext = []
        for x in step[tip]:
            grown = run + (x.name,) if outgoing else (x.name,) + run
            if not rels.contains_path(grown):
                ext.append((grown, x.target if outgoing else x.source))
        if not ext:
            return frozenset(found)
        if len(ext) != 1:
            raise InvalidStringError("branching continuation survived both relations")
        (run, tip), = ext
        found.append(tip)


def projective_support(algebra: BoundQuiverAlgebra, v: int) -> frozenset[int]:
    """Support of the indecomposable projective at v: v and the (at most two)
    arms out of it, every vertex a surviving path from v reaches."""
    return frozenset({v}).union(*(_arm(algebra, a.name, True)
                                  for a in algebra.quiver.outgoing[v]))


def injective_support(algebra: BoundQuiverAlgebra, v: int) -> frozenset[int]:
    """Support of the indecomposable injective at v: v and the (at most two)
    arms into it, every vertex with a surviving path to v."""
    return frozenset({v}).union(*(_arm(algebra, a.name, False)
                                  for a in algebra.quiver.incoming[v]))


def radical_supports(algebra: BoundQuiverAlgebra, v: int) -> list[frozenset[int]]:
    """Supports of the radical summands of the projective at v: one arm per
    outgoing arrow, in the quiver's order, with v itself removed."""
    return [_arm(algebra, a.name, True) - {v} for a in algebra.quiver.outgoing[v]]
