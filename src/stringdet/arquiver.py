"""Auslander-Reiten quiver of a valid algebra, built from first principles.

Nodes are the string modules (all indecomposables, since tree quivers carry
no band modules).  Maps come from supports, which are paths in the tree: by
Crawley-Boevey's graph maps (1989), Hom(M, N) has at most one basis map, the
identity on C = supp M & supp N, and it exists exactly when no arrow of M
enters C and no arrow of N leaves C.  C is a run of both walks, so only the
letters just before and just after it can cross it: Hom is read from the two
walks on each call, and the quiver keeps nothing per pair of nodes.  The
irreducible maps out of a node come from hooks and cohooks (Butler-Ringel,
1987): at each end of its walk, add a hook if the walk extends there, or else
delete a cohook.  Each target is looked up by support, and its map is built
once, so the arrows cost O(N * l) lookups, l the longest string; the
definitional rule (a non-zero map M -> N that no third node X reaches through
maps M -> X -> N with overlapping images) is kept as a test reference.  Exact
linear algebra verifies: every basis map intertwines, and the irreducible
maps into each non-projective node form a surjection whose exact kernel is
its translate.  End = k is `identify`, the one node test: a thin module's
endomorphisms are one scalar per support vertex, tied along each arrow with
a non-zero scalar, so End = k exactly when those arrows connect the support.
The sink kernel is taken from the arrow's own map at one middle
(Butler-Ringel: at most two), at two with f2 mono from f1 followed by the
projection onto the cokernel of f2, the pullback along a mono, and at two
epis from the two maps' scalars, with no direct sum built: their supports
must overlap on the node's alone, each block there being a non-zero scalar,
and two middles that are neither one mono nor two epis are refused.  Every
module and map here joins thin modules, so every intertwining check,
kernel, cokernel and socle is scalar (see `modules`), and no elimination
runs.  Each node is the thin module on its
string's vertices, and each vertex's projective, injective and
radical-summand nodes are found once by support.  Mesh sizes, the translate
bijection and the arrows into each projective (exactly its radical summands)
are checked too; any breach, a hook, cohook or distinguished support that is
not a node included, raises OracleError naming the modules by their walks or
supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .algebra import BoundQuiverAlgebra
from .linalg import Mat
from .modules import (ModuleMap, Representation, cokernel, compose, is_epimorphism,
                      is_monomorphism, kernel, kernel_of_sum, module_map, string_module)
from .strings import (StringWalk, _arm, _iter_strings, _sorted_strings, injective_support,
                      radical_supports)


class OracleError(RuntimeError):
    """A structural invariant of the construction failed; the message carries
    the diagnostic."""


class GuardExceeded(RuntimeError):
    """The algebra has more indecomposables than the configured bound."""


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
    arrow_indices: tuple[int, ...]


@dataclass
class ARQuiver:
    algebra: BoundQuiverAlgebra
    nodes: list[ArNode]
    arrows: list[ArArrow]
    meshes: list[Mesh]
    tau: dict[int, int]       # right end -> left end (non-projective -> node)
    tau_inv: dict[int, int]
    _node_by_support: dict[frozenset[int], int] = field(default_factory=dict)
    _projective: dict[int, int] = field(default_factory=dict)
    _radical: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def image(self, a: int, b: int) -> frozenset[int]:
        """Support of the basis map of Hom(a, b), empty when Hom(a, b) = 0: the
        overlap C of the supports, unless an arrow enters C from supp a - C or
        leaves C for supp b - C.  On a tree such an arrow is a letter of the
        node's walk, and C is a run of both walks, so only the letters just
        before and just after that run decide.  Nothing is kept per pair."""
        na, nb = self.nodes[a], self.nodes[b]
        c = na.rep.support & nb.rep.support
        if c and (_crossed(na.walk, c, True) or _crossed(nb.walk, c, False)):
            return frozenset()
        return c

    def hom(self, a: int, b: int) -> list[ModuleMap]:
        """Basis of Hom(a, b): none, or the identity on C = image(a, b).  The
        map carries C as its support, the vertices of its non-zero blocks,
        so no block is scanned for it."""
        c = self.image(a, b)
        if not c:
            return []
        f = module_map(self.nodes[a].rep, self.nodes[b].rep, dict.fromkeys(c, Mat.identity(1)))
        f.__dict__["support"] = c  # the cached_property's slot
        return [f]

    def node_of(self, rep: Representation) -> int:
        """Index of the node whose module equals rep; ValueError otherwise."""
        index = self._node_by_support.get(rep.support)
        own = None if index is None else self.nodes[index].rep
        # a node's own module needs no entry-by-entry comparison
        if own is None or (own is not rep and own != rep):
            raise ValueError("module is not a node of the Auslander-Reiten quiver")
        return index

    def projective_node(self, v: int) -> int:
        return self._projective[v]

    def radical_nodes(self, v: int) -> tuple[int, ...]:
        """Nodes of the indecomposable summands of rad P(v), sorted: none at a
        sink, one per arrow out of v otherwise."""
        return self._radical[v]

    def identify(self, rep: Representation) -> int | None:
        """Index of the node isomorphic to rep, or None.  Over a tree every
        indecomposable is a string module, thin and fixed by its support, so
        rep is a node exactly when it is thin, carries a non-zero scalar on
        every arrow inside its support, and has a node's support."""
        support = rep.support
        if any(d > 1 for d in rep.dims.values()):
            return None
        quiver = self.algebra.quiver
        for v in support:
            for a in quiver.outgoing[v]:
                # stored, as both ends lie in the support: a 1 x 1 scalar
                if a.target in support and not rep.maps[a.name].rows[0][0]:
                    return None
        return self._node_by_support.get(support)


def _crossed(walk: StringWalk, c: frozenset[int], inward: bool) -> bool:
    """Does the letter just before or just after C's run in the walk point
    into C (inward) or out of it?  A direct letters[k] is vertices[k] -> [k + 1]."""
    path = walk.vertices
    if len(c) == len(path):
        return False
    for i, v in enumerate(path):
        if v in c:
            break
    j = i + len(c) - 1  # the run is path[i..j]
    letters = walk.letters
    return (i > 0 and letters[i - 1].direct == inward
            or j < len(letters) and letters[j].direct != inward)


def ar_quiver(algebra: BoundQuiverAlgebra, max_nodes: int | None = None) -> ARQuiver:
    """Complete Auslander-Reiten quiver with explicit irreducible maps,
    translate pairing and almost split sequences."""
    if not algebra.is_valid:
        raise ValueError("algebra must be validated and valid")
    found = _iter_strings(algebra)
    if max_nodes is not None:
        found = list(islice(found, max_nodes + 1))
        if len(found) > max_nodes:
            raise GuardExceeded(f"algebra has more than {max_nodes} indecomposables")

    nodes = [ArNode(i, w, string_module(algebra, w.vertices))
             for i, w in enumerate(_sorted_strings(found))]
    ar = ARQuiver(algebra, nodes, [], [], {}, {})
    ar._node_by_support = {n.rep.support: n.index for n in nodes}
    if len(ar._node_by_support) != len(nodes):
        raise OracleError("two strings share a support")

    for v in algebra.quiver.vertices:
        # P(v) is v on top of its radical summands, so each out-arm is walked once
        radical = radical_supports(algebra, v)
        ar._projective[v] = _node_at(ar, "projective", v, frozenset({v}).union(*radical))
        ar._radical[v] = tuple(sorted(_node_at(ar, "radical summand", v, s) for s in radical))
        nodes[ar._projective[v]].projective_vertex = v
        nodes[_node_at(ar, "injective", v, injective_support(algebra, v))].injective_vertex = v
    n_proj = sum(1 for nd in nodes if nd.is_projective)
    n_inj = sum(1 for nd in nodes if nd.is_injective)
    nvert = algebra.quiver.vertex_count()
    if n_proj != nvert or n_inj != nvert:
        raise OracleError(f"expected {nvert} projective and injective nodes, "
                          f"found {n_proj} and {n_inj}")

    for nd in nodes:
        if ar.identify(nd.rep) != nd.index:
            raise OracleError(f"endomorphism ring of {nd.label()} is not trivial")

    _build_arrows(ar)
    _build_meshes(ar)
    _check_translate(ar)
    return ar


def _node_at(ar: ARQuiver, kind: str, v: int, support: frozenset[int]) -> int:
    """The node with the support of a distinguished module at vertex v."""
    index = ar._node_by_support.get(support)
    if index is None:
        raise OracleError(f"support {sorted(support)} of the {kind} at vertex {v} "
                          "is not a node")
    return index


def _build_arrows(ar: ARQuiver) -> None:
    """Irreducible maps by Butler-Ringel: at each end e of a node's vertex
    path, add a hook (an arrow y -> e from outside, then the maximal surviving
    path out of y through its other out-arrow) when the walk extends by
    y -> e, or else delete a cohook (the maximal run of arrows pointing inward
    from e, up to the first arrow pointing back at it).  A trivial string has
    its one vertex as its end.  Each target is looked up by support, and each
    arrow is the basis map of Hom(a, b), so the arrows come from O(N * l)
    lookups, l the longest string."""
    found = []
    for a, node in enumerate(ar.nodes):
        path = node.walk.vertices
        # the arrow between x_i and x_(i+1) points away from x_0: x_i -> x_(i+1)
        away = [letter.direct for letter in node.walk.letters]
        sides = [(path, away)]
        if len(path) > 1:
            sides.append((path[::-1], [not d for d in reversed(away)]))
        for side, inward in sides:
            targets = _hooks(ar, node.rep.support, side[0])
            if not targets:
                j = next((i for i, d in enumerate(inward) if not d), None)
                # a run that reaches the far end leaves this side without an arrow
                targets = [] if j is None else [frozenset(side[j + 1:])]
            for target in targets:
                b = ar._node_by_support.get(target)
                homs = [] if b is None else ar.hom(a, b)
                if not homs:
                    raise OracleError(f"no irreducible map out of {node.walk.render_text()} "
                                      f"at its end ({side[0]}): support {sorted(target)} "
                                      f"{'is not a node' if b is None else 'gets no map'}")
                found.append((b, a, homs[0]))
    for b, a, h in sorted(found, key=lambda t: t[:2]):
        if ar.nodes[a].rep.total_dim == ar.nodes[b].rep.total_dim:
            raise OracleError(f"irreducible map between equal-dimension nodes "
                              f"{ar.nodes[a].label()} -> {ar.nodes[b].label()}")
        ar.arrows.append(ArArrow(len(ar.arrows), a, b, h))


def _hooks(ar: ARQuiver, support: frozenset[int], e: int) -> list[frozenset[int]]:
    """Supports of the modules made by adding a hook at end e of a node with
    the given support: for each arrow beta: y -> e with y outside the support
    that extends the walk, the support plus y plus the maximal surviving path
    out of y through its other out-arrow."""
    quiver = ar.algebra.quiver
    out = []
    for beta in quiver.incoming[e]:
        y = beta.source
        grown = support | {y}
        if y in support or grown not in ar._node_by_support:
            continue
        for gamma in quiver.outgoing[y]:
            if gamma.name != beta.name:
                grown |= _arm(ar.algebra, gamma.name, outgoing=True)
        out.append(grown)
    return out


def _build_meshes(ar: ARQuiver) -> None:
    """Read the arrows into each node from one index.  A projective's must
    come exactly from its radical summands, one each; any other node's are
    the sink map of the mesh ending there."""
    into: dict[int, list[ArArrow]] = {}
    for arr in ar.arrows:
        into.setdefault(arr.target, []).append(arr)
    for node in ar.nodes:
        comps = into.get(node.index, [])
        if node.is_projective:
            expected = list(ar.radical_nodes(node.projective_vertex))
            actual = sorted(arr.source for arr in comps)
            if expected != actual:
                raise OracleError(f"arrows into projective {node.label()} come from "
                                  f"{[ar.nodes[i].label() for i in actual]}, not from its "
                                  f"radical summands {[ar.nodes[i].label() for i in expected]}")
            continue
        if not comps:
            raise OracleError(f"non-projective node {node.label()} has no incoming arrows")
        if len(comps) > 2:
            raise OracleError(
                f"node {node.label()} has {len(comps)} middle summands, expected 1 or 2")
        ker = _sink_kernel(node, [arr.map for arr in comps])
        left = ar.identify(ker)
        if left is None:
            raise OracleError(
                f"kernel of the sink map into node {node.label()} is not indecomposable")
        middle_dim = sum(ar.nodes[c.source].rep.total_dim for c in comps)
        if ker.total_dim + node.rep.total_dim != middle_dim:
            raise OracleError(f"mesh at node {node.label()} violates dimension additivity")
        ar.meshes.append(Mesh(left, tuple(c.source for c in comps), node.index,
                              tuple(c.index for c in comps)))
        ar.tau[node.index] = left


def _sink_kernel(node: ArNode, maps: list[ModuleMap]) -> Representation:
    """The kernel of the sink map [f1 f2] into node, up to isomorphism.  One
    middle: the kernel of the arrow's own map, checked onto.  Two, f2 mono:
    the kernel of pi f1, pi the projection onto the cokernel of f2, checked
    onto, since (x1, x2) -> x1 maps ker [f1 f2] onto ker(pi f1) (the
    pullback along a mono).  Two epis, which make the sink map onto: the
    kernel of [f1 f2] read off the scalars of f1 and f2 (`kernel_of_sum`),
    which is thin exactly when the middles overlap on the support of node
    alone.  Any other pair of middles is refused."""
    if len(maps) == 1:
        g = maps[0]
    else:
        mono = next((i for i in (1, 0) if is_monomorphism(maps[i])), None)
        if mono is None:
            if not all(map(is_epimorphism, maps)):
                raise OracleError(f"middle maps into node {node.label()} are neither "
                                  "one mono nor two epis")
            if maps[0].source.support & maps[1].source.support != node.rep.support:
                raise OracleError(
                    f"kernel of the sink map into node {node.label()} is not indecomposable")
            return kernel_of_sum(*maps)[0]
        g = compose(cokernel(maps[mono])[1], maps[1 - mono])
    if not is_epimorphism(g):
        raise OracleError(f"sink map candidate into node {node.label()} is not onto")
    return kernel(g)[0]


def _check_translate(ar: ARQuiver) -> None:
    seen: dict[int, int] = {}
    for right, left in ar.tau.items():
        if left in seen:
            raise OracleError(f"translate hits node {ar.nodes[left].label()} twice")
        seen[left] = right
    ar.tau_inv.update(seen)
    non_inj = {n.index for n in ar.nodes if not n.is_injective}
    if set(seen) != non_inj:
        raise OracleError("translate image does not match the non-injective nodes")
