"""Bound quiver algebras presented by tree quivers with monomial zero relations.

The data model mirrors the input format: a quiver (vertices + named arrows)
and a set of relation generators, each generator a composable arrow path
written in traversal order (first-traversed arrow first).  Validation is
certificate based: structural violations are collected, never thrown.
"""

from __future__ import annotations

import dataclasses
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple


class ParseError(ValueError):
    """Syntax or reference error in a quiver description document."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message + ("" if line is None else f" (line {line})"))
        self.line = line


class RelationReductionWarning(UserWarning):
    """A relation generator was dropped because another generator is a
    consecutive subpath of it (the stored set is always reduced)."""


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    @cached_property
    def arrow_map(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def outgoing(self) -> dict[int, tuple[Arrow, ...]]:
        """Vertex -> the arrows out of it: the out-degree table.  One pass over
        the arrows fills it and `incoming`; the arrows at a shared end are in
        natural name order."""
        outs, ins = dict.fromkeys(self.vertices, ()), dict.fromkeys(self.vertices, ())
        # vertex -> arrows, at an end met twice: no tuple grows
        shared_out: dict[int, list[Arrow]] = {}
        shared_in: dict[int, list[Arrow]] = {}
        for a in self.arrows:
            _, source, target = a
            if outs[source]:
                shared_out.setdefault(source, [*outs[source]]).append(a)
            else:
                outs[source] = (a,)
            if ins[target]:
                shared_in.setdefault(target, [*ins[target]]).append(a)
            else:
                ins[target] = (a,)
        for table, shared in ((outs, shared_out), (ins, shared_in)):
            for v, group in shared.items():
                table[v] = tuple(sorted(group, key=lambda a: _natural_key(a.name)))
        self.__dict__["incoming"] = ins
        return outs

    @cached_property
    def incoming(self) -> dict[int, tuple[Arrow, ...]]:
        """Vertex -> the arrows into it: the in-degree table.  `outgoing` fills
        it in the same pass as its own table, so this reads it from there."""
        self.outgoing
        return self.__dict__["incoming"]

    @cached_property
    def rooted_parents(self) -> dict[int, tuple[int, Arrow] | None]:
        """Spanning structure rooted at the smallest vertex: child -> (parent,
        connecting arrow).  It covers the root's component only; walks along
        it require a tree.  Built on first use, by the tree walks alone."""
        root = self.vertices[0]
        parents: dict[int, tuple[int, Arrow] | None] = {root: None}
        stack = [root]
        outs_of, ins_of = self.outgoing, self.incoming
        while stack:
            v = stack.pop()
            for a in outs_of[v]:
                if a.target not in parents:
                    parents[a.target] = (v, a)
                    stack.append(a.target)
            for a in ins_of[v]:
                if a.source not in parents:
                    parents[a.source] = (v, a)
                    stack.append(a.source)
        return parents

    def has_vertex(self, v: int) -> bool:
        return v in self.outgoing

    def neighbours(self, v: int) -> tuple[int, ...]:
        ns = {a.target for a in self.outgoing[v]} | {a.source for a in self.incoming[v]}
        return tuple(sorted(ns))

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v, outs in self.outgoing.items() if not outs)

    def vertex_count(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class RelationSet:
    """Monomial relation generators, stored reduced: no generator contains
    another as a consecutive subpath."""

    generators: tuple[tuple[str, ...], ...]

    @property
    def is_empty(self) -> bool:
        return not self.generators

    @cached_property
    def _by_first(self) -> dict[str, list[tuple[str, ...]]]:
        index: dict[str, list[tuple[str, ...]]] = {}
        for gen in self.generators:
            index.setdefault(gen[0], []).append(gen)
        return index

    def contains_path(self, path: tuple[str, ...] | list[str]) -> bool:
        """True iff some generator occurs as a consecutive run inside path."""
        return _contains(self._by_first, tuple(path))


def _contains(by_first: dict[str, list[tuple[str, ...]]], path: tuple[str, ...]) -> bool:
    """True iff a generator of the first-arrow index runs inside path: only
    the generators starting with each arrow of path are compared, so a
    two-arrow path costs two dict lookups."""
    for i, name in enumerate(path):
        for gen in by_first.get(name, ()):
            if path[i:i + len(gen)] == gen:
                return True
    return False


@dataclass(frozen=True)
class Certificate:
    violations: tuple[str, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BoundQuiverAlgebra:
    quiver: Quiver
    relations: RelationSet
    certificate: Certificate | None = None

    @property
    def is_valid(self) -> bool:
        return self.certificate is not None and self.certificate.is_valid

    def path_composable(self, path: tuple[str, ...] | list[str]) -> bool:
        amap = self.quiver.arrow_map
        arrows = [amap.get(name) for name in path]
        if any(a is None for a in arrows):
            return False
        return all(a.target == b.source for a, b in zip(arrows, arrows[1:]))


# --------------------------------------------------------------------------
# parsing

_VERTICES_RE = re.compile(r"^vertices\s*:\s*(.+)$")
_ARROW_RE = re.compile(r"^arrow\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)\s*$")
_RELATION_RE = re.compile(r"^relation\s*:\s*(.+)$")
_ID_RE = re.compile(r"^\w+$")
#: Longest vertex id or count, as text: int() refuses longer digit strings
#: by default from Python 3.11 on, and 3.10 accepts them.
_MAX_ID_CHARS = 4300


def _long_id(text: str, lineno: int) -> ParseError:
    return ParseError(f"vertex id or count of {len(text)} characters is longer than the limit "
                      f"of {_MAX_ID_CHARS}", lineno)


def parse_algebra(text: str) -> BoundQuiverAlgebra:
    """Parse a quiver description document.

    Format (UTF-8, one declaration per line, '#' starts a comment):

        vertices: 4            # shorthand for 1..4
        vertices: 1, 2, 7      # or an explicit id list
        arrow a1: 1 -> 2
        relation: a1 a2        # arrows in traversal order, length >= 2

    Returns an algebra with an unvalidated certificate; run validate() to
    fill it.  Arrow ids are kept verbatim, relation paths in traversal order.
    """
    vertices: set[int] | None = None
    lines = text.splitlines()
    arrows: list[Arrow] = []
    arrow_names: set[str] = set()
    pending_relations: list[tuple[int, list[str]]] = []
    match_arrow = _ARROW_RE.match
    # makes an Arrow from a tuple without NamedTuple's Python-level __new__
    new = tuple.__new__

    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.partition("#")[0]
        line = line.strip()
        if not line:
            continue

        m = match_arrow(line)
        if m:
            name, src, tgt = m.groups()
            # an id can outrun the limit only on a line that does
            if len(line) > _MAX_ID_CHARS and len(max(src, tgt, key=len)) > _MAX_ID_CHARS:
                raise _long_id(max(src, tgt, key=len), lineno)
            src, tgt = int(src), int(tgt)
            if vertices is None:
                raise ParseError("arrow declared before vertices", lineno)
            if name in arrow_names:
                raise ParseError(f"duplicate arrow id {name!r}", lineno)
            if src not in vertices or tgt not in vertices:
                v = src if src not in vertices else tgt
                raise ParseError(f"arrow {name!r} references unknown vertex {v}", lineno)
            arrow_names.add(name)
            arrows.append(new(Arrow, (name, src, tgt)))
            continue

        m = _VERTICES_RE.match(line)
        if m:
            if vertices is not None:
                raise ParseError("duplicate vertices declaration", lineno)
            body = m.group(1).strip()
            vertices = _parse_vertices(body, lineno, len(lines))
            continue

        m = _RELATION_RE.match(line)
        if m:
            names = m.group(1).split()
            if len(names) < 2:
                raise ParseError("relation needs at least two arrows", lineno)
            if not all(_ID_RE.match(n) for n in names):
                raise ParseError("malformed relation arrow id", lineno)
            pending_relations.append((lineno, names))
            continue

        raise ParseError(f"unrecognized line: {line!r}", lineno)

    if vertices is None:
        raise ParseError("document has no vertices declaration")

    quiver = Quiver(tuple(sorted(vertices)), tuple(arrows))
    generators: list[tuple[str, ...]] = []
    for lineno, names in pending_relations:
        for n in names:
            if n not in arrow_names:
                raise ParseError(f"relation references unknown arrow {n!r}", lineno)
        amap = quiver.arrow_map
        for a, b in zip(names, names[1:]):
            if amap[a].target != amap[b].source:
                raise ParseError(
                    f"relation path not composable: {a!r} ends at {amap[a].target}, "
                    f"{b!r} starts at {amap[b].source}", lineno)
        generators.append(tuple(names))

    return BoundQuiverAlgebra(quiver, _reduce_generators(generators), certificate=None)


def _parse_vertices(body: str, lineno: int, doc_lines: int) -> set[int]:
    """Vertex ids of a declaration; doc_lines bounds the count shorthand."""
    if "," not in body:
        if len(body) > _MAX_ID_CHARS:
            raise _long_id(body, lineno)
        if not body.isdecimal():
            raise ParseError(f"bad vertex count {body!r}", lineno)
        k = int(body)
        if k < 1:
            raise ParseError("vertex count must be positive", lineno)
        # a tree on k vertices needs k - 1 arrow lines besides this one
        if k > doc_lines:
            raise ParseError(f"vertex count {k} is more than the document's line count "
                             f"{doc_lines}: a tree on {k} vertices needs {k - 1} arrow "
                             "lines", lineno)
        return set(range(1, k + 1))
    parts = body.split(",")
    # whole-list passes first; the per-id loop runs only when they fail, to
    # name the first bad id
    ids = (list(map(int, map(str.strip, parts))) if max(map(len, parts)) <= _MAX_ID_CHARS
           and all(map(str.isdecimal, map(str.strip, parts))) else [0])
    if min(ids) < 1:
        ids = []
        for part in map(str.strip, parts):
            if len(part) > _MAX_ID_CHARS:
                raise _long_id(part, lineno)
            v = int(part) if part.isdecimal() else 0
            if v < 1:
                raise ParseError(f"bad vertex id {part!r}", lineno)
            ids.append(v)
    unique = set(ids)
    if len(unique) != len(ids):
        raise ParseError("duplicate vertex id", lineno)
    return unique


def _reduce_generators(generators: list[tuple[str, ...]]) -> RelationSet:
    uniq = sorted(set(generators), key=lambda g: (len(g), g))
    kept: list[tuple[str, ...]] = []
    dropped: list[tuple[str, ...]] = []
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for gen in uniq:
        if _contains(by_first, gen):
            dropped.append(gen)
        else:
            kept.append(gen)
            by_first.setdefault(gen[0], []).append(gen)
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} redundant relation generator(s): "
            + ", ".join(" ".join(g) for g in dropped),
            RelationReductionWarning, stacklevel=3)
    kept.sort(key=lambda g: tuple(_natural_key(n) for n in g))
    return RelationSet(tuple(kept))


def _natural_key(s: str):
    return tuple(int(t) if t.isdigit() else t for t in re.split(r"(\d+)", s) if t)


# --------------------------------------------------------------------------
# validation

def _component_size(q: Quiver) -> int:
    """Number of vertices the first vertex reaches along arrows taken either
    way: a search that keeps only the set of vertices seen."""
    root = q.vertices[0]
    seen = {root}
    stack = [root]
    outs_of, ins_of = q.outgoing, q.incoming
    while stack:
        v = stack.pop()
        for a in outs_of[v]:
            w = a.target
            if w not in seen:
                seen.add(w)
                stack.append(w)
        for a in ins_of[v]:
            w = a.source
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def validate(algebra: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Fill the certificate.  Checks, in order: tree shape of the underlying
    graph; in/out degree at most 2; the two zero-relation branching
    conditions at every meeting/forking vertex of degrees in range;
    generators admissible and reduced.
    Violations are reported, never raised."""
    q = algebra.quiver
    rels = algebra.relations
    violations: list[str] = []

    for a in q.arrows:
        if a.source == a.target:
            violations.append(f"arrow {a.name!r} is a loop at vertex {a.source}")

    if not (q.vertices and _component_size(q) == len(q.vertices)):
        violations.append("underlying graph is not connected")
    if len(q.arrows) != len(q.vertices) - 1:
        violations.append(
            f"underlying graph is not a tree: {len(q.arrows)} arrows for "
            f"{len(q.vertices)} vertices")

    # One walk over the vertices with a degree of 2 or more, the only ones
    # either check can flag; the degree violations go first, then the
    # branching ones.  Branching conditions are checked only where both
    # degrees are in range: a vertex over degree 2 already carries its
    # violation, and its pairs would grow as d(d-1)/2.  Paths are written in
    # traversal order, so the composite "first a, then g" is the tuple (a, g).
    outs_of, ins_of = q.outgoing, q.incoming
    branching: list[str] = []
    for v in q.vertices:
        outs, ins = outs_of[v], ins_of[v]
        if len(outs) < 2 and len(ins) < 2:
            continue
        if len(outs) > 2:
            violations.append(f"vertex {v}: out-degree {len(outs)} exceeds 2")
        if len(ins) > 2:
            violations.append(f"vertex {v}: in-degree {len(ins)} exceeds 2")
        if len(ins) > 2 or len(outs) > 2:
            continue
        for side, other, pair, others in (("incoming", "outgoing", ins, outs),
                                          ("outgoing", "incoming", outs, ins)):
            if len(pair) < 2:
                continue
            a, b = pair
            for g in others:
                ag, bg = (((a.name, g.name), (b.name, g.name)) if side == "incoming"
                          else ((g.name, a.name), (g.name, b.name)))
                if not (rels.contains_path(ag) or rels.contains_path(bg)):
                    branching.append(f"vertex {v}: {side} pair ({a.name}, {b.name}) with "
                                     f"{other} {g.name} needs a zero relation")
    violations += branching

    by_first = rels._by_first
    for gen in rels.generators:
        if len(gen) < 2:
            violations.append(f"relation {' '.join(gen)} shorter than two arrows")
        elif not algebra.path_composable(gen):
            violations.append(f"relation {' '.join(gen)} is not a composable path")
        # a parsed set is reduced; a hand-built one may not be
        inner = dict.fromkeys(g for i, name in enumerate(gen) for g in by_first.get(name, ())
                              if g != gen and gen[i:i + len(g)] == g)
        violations.extend(f"relation {' '.join(gen)} contains relation {' '.join(g)}"
                          for g in inner)

    return dataclasses.replace(algebra, certificate=Certificate(tuple(violations)))


# --------------------------------------------------------------------------
# serialization

def serialize(algebra: BoundQuiverAlgebra) -> str:
    """Canonical document: explicit sorted vertex list, arrows and relations
    in natural name order.  Byte-stable, and parse(serialize(a)) == a up to
    the certificate."""
    q = algebra.quiver
    lines = ["vertices: " + ", ".join(str(v) for v in sorted(q.vertices))]
    for a in sorted(q.arrows, key=lambda a: _natural_key(a.name)):
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}")
    for gen in sorted(algebra.relations.generators,
                      key=lambda g: tuple(_natural_key(n) for n in g)):
        lines.append("relation: " + " ".join(gen))
    return "\n".join(lines) + "\n"
