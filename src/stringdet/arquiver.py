"""Auslander-Reiten quiver of a valid algebra, built from first principles.

Nodes are the string modules (all indecomposables, since tree quivers carry
no band modules).  Arrow multiplicities come from exact hom-space linear
algebra: the irreducible maps from M to N form the quotient of the radical
of Hom(M, N) by its square, and on a tree every endomorphism ring is trivial,
so the radical is the whole hom space between non-isomorphic nodes.  For each
non-projective node the chosen irreducible representatives assemble into a
surjection whose kernel is the translate; the construction verifies
surjectivity, kernel indecomposability, mesh sizes and the translate
bijection, and raises OracleError on any breach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .algebra import BoundQuiverAlgebra
from .linalg import Mat, SpanBuilder
from .modules import (ModuleMap, Representation, compose, direct_sum, hom_space,
                      is_epimorphism, kernel, module_map, representation, string_module)
from .strings import StringWalk, enumerate_strings, injective_walk, projective_walk, radical_walks


class OracleError(RuntimeError):
    """A structural invariant of the construction failed; the message carries
    the diagnostic."""


class GuardExceeded(RuntimeError):
    """The algebra has more indecomposables than the configured bound."""


class MiddleKind(Enum):
    SINGLE = "single-middle"
    DOUBLE = "two-middle"


@dataclass
class ArNode:
    index: int
    walk: StringWalk
    rep: Representation
    projective_vertex: int | None = None
    injective_vertex: int | None = None

    @property
    def is_projective(self) -> bool:
        return self.projective_vertex is not None

    @property
    def is_injective(self) -> bool:
        return self.injective_vertex is not None

    def label(self) -> str:
        tags = []
        if self.is_projective:
            tags.append(f"P({self.projective_vertex})")
        if self.is_injective:
            tags.append(f"I({self.injective_vertex})")
        base = self.walk.render_text()
        return base + (" = " + " = ".join(tags) if tags else "")


@dataclass
class ArArrow:
    index: int
    source: int
    target: int
    map: ModuleMap


@dataclass
class Mesh:
    """Almost split sequence 0 -> left -> middles -> right -> 0."""
    left: int
    middles: tuple[int, ...]
    right: int
    kind: MiddleKind
    arrow_indices: tuple[int, ...]


@dataclass
class ARQuiver:
    algebra: BoundQuiverAlgebra
    nodes: list[ArNode]
    arrows: list[ArArrow]
    meshes: list[Mesh]
    tau: dict[int, int]       # right end -> left end (non-projective -> node)
    tau_inv: dict[int, int]
    _hom: dict[tuple[int, int], list[ModuleMap]] = field(default_factory=dict)
    _node_by_walk: dict[StringWalk, int] = field(default_factory=dict)
    _node_by_support: dict[frozenset[int], int] = field(default_factory=dict)
    _radical: dict[int, ModuleMap] = field(default_factory=dict)

    def hom(self, a: int, b: int) -> list[ModuleMap]:
        key = (a, b)
        if key not in self._hom:
            self._hom[key] = hom_space(self.nodes[a].rep, self.nodes[b].rep)
        return self._hom[key]

    def node_of_walk(self, walk: StringWalk) -> int:
        return self._node_by_walk[walk]

    def projective_node(self, v: int) -> int:
        return self.node_of_walk(projective_walk(self.algebra, v))

    def identify(self, rep: Representation) -> int | None:
        """Index of the node isomorphic to rep, or None.  Over a tree every
        indecomposable is a string module, thin and fixed by its support, so
        rep is a node exactly when it is thin, carries a non-zero scalar on
        every arrow inside its support, and has a node's support."""
        if any(d > 1 for d in rep.dims.values()):
            return None
        support = frozenset(v for v, d in rep.dims.items() if d)
        for a in self.algebra.quiver.arrows:
            if a.source in support and a.target in support and rep.maps[a.name].is_zero():
                return None
        return self._node_by_support.get(support)

    def radical_inclusion(self, v: int) -> ModuleMap:
        """Inclusion of rad P(v) into the node P(v), built once per vertex.
        P(v) is thin with top v, so its radical is P(v) with v dropped and the
        inclusion is the identity on that support."""
        if v not in self._radical:
            proj = self.nodes[self.projective_node(v)].rep
            support = [u for u in proj.support() if u != v]
            maps = {a.name: proj.maps[a.name] for a in self.algebra.quiver.arrows
                    if v not in (a.source, a.target)}
            rad = representation(self.algebra, {u: 1 for u in support}, maps)
            self._radical[v] = module_map(rad, proj, {u: Mat([[1]]) for u in support})
        return self._radical[v]


def ar_quiver(algebra: BoundQuiverAlgebra, max_nodes: int | None = None) -> ARQuiver:
    """Complete Auslander-Reiten quiver with explicit irreducible maps,
    translate pairing and almost split sequences."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    strings = enumerate_strings(algebra)
    if max_nodes is not None and len(strings) > max_nodes:
        raise GuardExceeded(
            f"algebra has {len(strings)} indecomposables, guard allows {max_nodes}")

    nodes = [ArNode(i, w, string_module(algebra, w)) for i, w in enumerate(strings)]
    ar = ARQuiver(algebra, nodes, [], [], {}, {})
    ar._node_by_walk = {n.walk: n.index for n in nodes}
    ar._node_by_support = {frozenset(n.rep.support()): n.index for n in nodes}
    if len(ar._node_by_support) != len(nodes):
        raise OracleError("two strings share a support")

    for v in algebra.quiver.vertices:
        pw = projective_walk(algebra, v)
        iw = injective_walk(algebra, v)
        nodes[ar._node_by_walk[pw]].projective_vertex = v
        nodes[ar._node_by_walk[iw]].injective_vertex = v
    n_proj = sum(1 for nd in nodes if nd.is_projective)
    n_inj = sum(1 for nd in nodes if nd.is_injective)
    nvert = algebra.quiver.vertex_count()
    if n_proj != nvert or n_inj != nvert:
        raise OracleError(f"expected {nvert} projective and injective nodes, "
                          f"found {n_proj} and {n_inj}")

    for nd in nodes:
        if len(ar.hom(nd.index, nd.index)) != 1:
            raise OracleError(f"endomorphism ring at node {nd.index} is not trivial")

    _build_arrows(ar)
    _build_meshes(ar)
    _check_translate(ar)
    _check_radicals(ar)
    return ar


def _build_arrows(ar: ARQuiver) -> None:
    """Pick irreducible representatives: hom basis elements that extend the
    square of the radical to the whole radical."""
    count = len(ar.nodes)
    for b in range(count):
        dim_b = ar.nodes[b].rep.total_dim
        for a in range(count):
            if a == b:
                continue
            hom_ab = ar.hom(a, b)
            if not hom_ab:
                continue
            veclen = len(hom_ab[0].vec())
            square = SpanBuilder(veclen)
            for c in range(count):
                if c == a or c == b:
                    continue
                through = ar.hom(a, c)
                if not through:
                    continue
                out = ar.hom(c, b)
                for f in through:
                    for g in out:
                        square.add(compose(g, f).vec())
                if square.dim == len(hom_ab):
                    break  # the square already spans Hom(a, b): nothing is irreducible
            for h in hom_ab:
                if square.add(h.vec()):
                    if ar.nodes[a].rep.total_dim == dim_b:
                        raise OracleError(
                            f"irreducible map between equal-dimension nodes {a} -> {b}")
                    ar.arrows.append(ArArrow(len(ar.arrows), a, b, h))


def _build_meshes(ar: ARQuiver) -> None:
    for node in ar.nodes:
        if node.is_projective:
            continue
        comps = [arr for arr in ar.arrows if arr.target == node.index]
        if not comps:
            raise OracleError(f"non-projective node {node.index} has no incoming arrows")
        if len(comps) > 2:
            raise OracleError(
                f"node {node.index} has {len(comps)} middle summands, expected 1 or 2")
        total = direct_sum([ar.nodes[c.source].rep for c in comps])
        blocks = {}
        for v in sorted(total.dims):
            acc = None
            for arr in comps:
                # concatenation order matches the direct-sum offsets
                piece = arr.map.blocks[v]
                acc = piece if acc is None else acc.hstack(piece)
            blocks[v] = acc
        g = ModuleMap(total, node.rep, blocks)
        if not is_epimorphism(g):
            raise OracleError(f"sink map candidate into node {node.index} is not onto")
        ker, _ = kernel(g)
        left = ar.identify(ker)
        if left is None:
            raise OracleError(
                f"kernel of the sink map into node {node.index} is not indecomposable")
        kind = MiddleKind.SINGLE if len(comps) == 1 else MiddleKind.DOUBLE
        if ker.total_dim + node.rep.total_dim != total.total_dim:
            raise OracleError(f"mesh at node {node.index} violates dimension additivity")
        ar.meshes.append(Mesh(left, tuple(c.source for c in comps), node.index, kind,
                              tuple(c.index for c in comps)))
        ar.tau[node.index] = left


def _check_translate(ar: ARQuiver) -> None:
    seen: dict[int, int] = {}
    for right, left in ar.tau.items():
        if left in seen:
            raise OracleError(f"translate hits node {left} twice")
        seen[left] = right
    ar.tau_inv.update(seen)
    non_inj = {n.index for n in ar.nodes if not n.is_injective}
    if set(seen) != non_inj:
        raise OracleError("translate image does not match the non-injective nodes")


def _check_radicals(ar: ARQuiver) -> None:
    """Arrows into each projective must come exactly from its radical
    summands, one each."""
    for node in ar.nodes:
        if not node.is_projective:
            continue
        expected = sorted(
            ar._node_by_walk[w]
            for w in radical_walks(ar.algebra, node.projective_vertex))
        actual = sorted(arr.source for arr in ar.arrows if arr.target == node.index)
        if expected != actual:
            raise OracleError(
                f"arrows into projective node {node.index} do not match its radical")


def single_middle_count(ar: ARQuiver) -> int:
    return sum(1 for m in ar.meshes if m.kind is MiddleKind.SINGLE)
