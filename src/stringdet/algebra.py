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
from operator import attrgetter


class ParseError(ValueError):
    """Syntax or reference error in a quiver description document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class RelationReductionWarning(UserWarning):
    """A relation generator was dropped because another generator is a
    consecutive subpath of it (the stored set is always reduced)."""


@dataclass(frozen=True)
class Arrow:
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
    def _out(self) -> dict[int, tuple[Arrow, ...]]:
        return _by_end(self.vertices, self.arrows, attrgetter("source"))

    @cached_property
    def _in(self) -> dict[int, tuple[Arrow, ...]]:
        return _by_end(self.vertices, self.arrows, attrgetter("target"))

    @cached_property
    def rooted_parents(self) -> dict[int, tuple[int, Arrow] | None]:
        """Spanning structure rooted at the smallest vertex: child -> (parent,
        connecting arrow).  Requires a tree."""
        root = self.vertices[0]
        parents: dict[int, tuple[int, Arrow] | None] = {root: None}
        stack = [root]
        while stack:
            v = stack.pop()
            for a in self._out[v]:
                if a.target not in parents:
                    parents[a.target] = (v, a)
                    stack.append(a.target)
            for a in self._in[v]:
                if a.source not in parents:
                    parents[a.source] = (v, a)
                    stack.append(a.source)
        return parents

    def has_vertex(self, v: int) -> bool:
        return v in self._out

    def out_arrows(self, v: int) -> tuple[Arrow, ...]:
        return self._out[v]

    def in_arrows(self, v: int) -> tuple[Arrow, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        return len(self._in[v])

    def neighbours(self, v: int) -> tuple[int, ...]:
        ns = {a.target for a in self._out[v]} | {a.source for a in self._in[v]}
        return tuple(sorted(ns))

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.out_degree(v) == 0)

    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices if self.in_degree(v) == 0)

    def vertex_count(self) -> int:
        return len(self.vertices)


def _by_end(vertices, arrows, end) -> dict[int, tuple[Arrow, ...]]:
    """Arrows grouped by one end, each group in natural name order."""
    groups: dict[int, list[Arrow]] = {v: [] for v in vertices}
    for a in arrows:
        groups[end(a)].append(a)
    # only a shared end needs the (regex) name key
    return {v: tuple(lst if len(lst) < 2 else sorted(lst, key=lambda a: _natural_key(a.name)))
            for v, lst in groups.items()}


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


def path_in_ideal(algebra: BoundQuiverAlgebra, path: tuple[str, ...] | list[str]) -> bool:
    """True iff the composable path lies in the relation ideal, i.e. contains
    some generator as a consecutive subpath.  Correct for monomial ideals on
    tree quivers, where no linear combination of distinct paths shares
    endpoints."""
    if not algebra.path_composable(path):
        raise ValueError(f"path {list(path)} is not composable in the quiver")
    return algebra.relations.contains_path(tuple(path))


# --------------------------------------------------------------------------
# parsing

_VERTICES_RE = re.compile(r"^vertices\s*:\s*(.+)$")
_ARROW_RE = re.compile(r"^arrow\s+(\w+)\s*:\s*(\d+)\s*->\s*(\d+)\s*$")
_RELATION_RE = re.compile(r"^relation\s*:\s*(.+)$")
_ID_RE = re.compile(r"^\w+$")


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

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        m = _ARROW_RE.match(line)
        if m:
            name, src, tgt = m.groups()
            src, tgt = int(src), int(tgt)
            if vertices is None:
                raise ParseError("arrow declared before vertices", lineno)
            if name in arrow_names:
                raise ParseError(f"duplicate arrow id {name!r}", lineno)
            if src not in vertices or tgt not in vertices:
                v = src if src not in vertices else tgt
                raise ParseError(f"arrow {name!r} references unknown vertex {v}", lineno)
            arrow_names.add(name)
            arrows.append(Arrow(name, src, tgt))
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
        if not body.isdigit():
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
    out = []
    for part in body.split(","):
        part = part.strip()
        v = int(part) if part.isdigit() else 0
        if v < 1:
            raise ParseError(f"bad vertex id {part!r}", lineno)
        out.append(v)
    if len(set(out)) != len(out):
        raise ParseError("duplicate vertex id", lineno)
    return set(out)


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

def validate(algebra: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """Fill the certificate.  Checks, in order: tree shape of the underlying
    graph; in/out degree at most 2; the two zero-relation branching
    conditions at every meeting/forking vertex; generators admissible.
    Violations are reported, never raised."""
    q = algebra.quiver
    rels = algebra.relations
    violations: list[str] = []

    for a in q.arrows:
        if a.source == a.target:
            violations.append(f"arrow {a.name!r} is a loop at vertex {a.source}")

    if not _connected(q):
        violations.append("underlying graph is not connected")
    if len(q.arrows) != len(q.vertices) - 1:
        violations.append(
            f"underlying graph is not a tree: {len(q.arrows)} arrows for "
            f"{len(q.vertices)} vertices")

    outs_of, ins_of = q._out, q._in
    for v in q.vertices:
        if len(outs_of[v]) > 2:
            violations.append(f"vertex {v}: out-degree {len(outs_of[v])} exceeds 2")
        if len(ins_of[v]) > 2:
            violations.append(f"vertex {v}: in-degree {len(ins_of[v])} exceeds 2")

    # Branching conditions.  Paths are written in traversal order, so the
    # composite "first a, then g" is the tuple (a, g).
    for v in q.vertices:
        ins, outs = ins_of[v], outs_of[v]
        if len(ins) < 2 and len(outs) < 2:
            continue
        for i in range(len(ins)):
            for j in range(i + 1, len(ins)):
                a, b = ins[i], ins[j]
                for g in outs:
                    if not (rels.contains_path((a.name, g.name))
                            or rels.contains_path((b.name, g.name))):
                        violations.append(
                            f"vertex {v}: incoming pair ({a.name}, {b.name}) with outgoing "
                            f"{g.name} needs a zero relation")
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                a, b = outs[i], outs[j]
                for g in ins:
                    if not (rels.contains_path((g.name, a.name))
                            or rels.contains_path((g.name, b.name))):
                        violations.append(
                            f"vertex {v}: outgoing pair ({a.name}, {b.name}) with incoming "
                            f"{g.name} needs a zero relation")

    for gen in rels.generators:
        if len(gen) < 2:
            violations.append(f"relation {' '.join(gen)} shorter than two arrows")
        elif not algebra.path_composable(gen):
            violations.append(f"relation {' '.join(gen)} is not a composable path")

    return dataclasses.replace(algebra, certificate=Certificate(tuple(violations)))


def _connected(q: Quiver) -> bool:
    if not q.vertices:
        return False
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        v = stack.pop()
        for w in [a.target for a in q._out[v]] + [a.source for a in q._in[v]]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


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
