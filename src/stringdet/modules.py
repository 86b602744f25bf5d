"""Representations of the bound quiver and exact operations on them.

A representation assigns a rational vector space to every vertex and a matrix
to every arrow (source space -> target space) such that the composite along
every relation generator vanishes.  String modules are the special case with
0/1 dimensions and identity linking maps, each built by `string_module` from
its support alone.

A module is thin when every space on its support is a line, which
`total_dim == len(dims)` tells in O(1).  Over a tree every indecomposable is
a thin string module, and so is every kernel and cokernel the oracle takes.
Between thin modules every block and arrow map is 1 x 1, so `kernel`,
`cokernel`, `socle`, `is_monomorphism` and `is_epimorphism` read scalars and
take no elimination: the kernel (cokernel) is k exactly where the block is
missing or zero, each induced map is the module's own, and the inclusion
(projection) blocks are the shared 1 x 1 identity.  The socle of a thin
module is the vertices where every arrow out of it into the support acts by
zero.  Each of them refuses a module that is not thin with a ValueError
naming the operation; none computes a general answer.  `kernel_of_sum`
takes the kernel of a sink map [f1 f2] on two thin middles without building
their direct sum: a line of k^2 at each vertex, read off the two blocks
there, or a plane, which it refuses.  The general linear algebra
(hom spaces, direct sums, echelon kernels and cokernels) lives in the tests,
as the reference these paths are checked against.

A module stores only its support: the vertices with a non-zero space and
the arrows with both ends there (whose matrix may still be zero); a map
stores only its blocks on both supports.  `dim`, `map` and `block` read 0 or
the shared empty zero matrix elsewhere.  Every operation visits only support
vertices, the arrows out of them and the relations starting there, so its
cost follows the supports, not the quiver.  Checked: the shape of every
given block (an unknown vertex is refused), every relation inside the
support, every intertwining square with a non-empty side, and every induced
kernel and cokernel map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .algebra import BoundQuiverAlgebra
from .linalg import Mat
from .strings import injective_support, projective_support

#: The shared 1 x 1 identity: every arrow map of a string module, and every
#: block of a thin kernel's inclusion or a thin cokernel's projection.
_ONE = Mat.identity(1)


@dataclass(frozen=True)
class Representation:
    algebra: BoundQuiverAlgebra
    dims: dict[int, int]       # the support only: every value is non-zero
    maps: dict[str, Mat]       # arrows with both ends in the support, dim(target) x dim(source)
    # set once, when the record is built
    support: frozenset[int] = field(init=False, compare=False, repr=False)
    total_dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", frozenset(self.dims))
        object.__setattr__(self, "total_dim", sum(self.dims.values()))

    def dim(self, v: int) -> int:
        """Dimension of the space at v, 0 off the support."""
        return self.dims.get(v, 0)

    def map(self, name: str) -> Mat:
        """Matrix of the arrow name, empty unless both ends are in the support."""
        m = self.maps.get(name)
        if m is None:
            a = self.algebra.quiver.arrow_map[name]
            m = Mat.zeros(self.dim(a.target), self.dim(a.source))
        return m


def _check_relations(rep: Representation) -> None:
    """Only a generator inside the support can fail: any other composite
    factors through a zero space.  Its arrows are then all stored, the
    arrows with both ends in the support."""
    by_first = rep.algebra.relations._by_first
    if not by_first:
        return
    maps = rep.maps
    for first in maps:
        for gen in by_first.get(first, ()):
            if all(name in maps for name in gen):
                acc = maps[first]
                for name in gen[1:]:
                    acc = maps[name] @ acc
                if not acc.is_zero():
                    raise ValueError(f"relation {' '.join(gen)} does not vanish")


def string_module(algebra: BoundQuiverAlgebra, support: Iterable[int]) -> Representation:
    """Thin module on a support: one basis vector at each of its vertices and
    the identity on every arrow with both ends there.  Over a tree the
    support of a string is a path, and those arrows are exactly its letters."""
    outgoing = algebra.quiver.outgoing
    dims = dict.fromkeys(support, 1)
    for v in dims:
        if v not in outgoing:
            raise ValueError(f"unknown vertex {v}")
    # its own identity maps have the right shape: only the relations are checked
    rep = Representation(algebra, dims, {a.name: _ONE for v in dims for a in outgoing[v]
                                         if a.target in dims})
    _check_relations(rep)
    return rep


def simple(algebra: BoundQuiverAlgebra, v: int) -> Representation:
    return string_module(algebra, (v,))


def projective(algebra: BoundQuiverAlgebra, v: int) -> Representation:
    """Indecomposable projective at v.  The basis is indexed by the surviving
    paths out of v, one per vertex they reach, paths in a tree being unique."""
    return string_module(algebra, projective_support(algebra, v))


def injective(algebra: BoundQuiverAlgebra, v: int) -> Representation:
    return string_module(algebra, injective_support(algebra, v))


# --------------------------------------------------------------------------
# maps

@dataclass(frozen=True)
class ModuleMap:
    source: Representation
    target: Representation
    blocks: dict[int, Mat]     # vertices of both supports only, target.dim(v) x source.dim(v)

    def block(self, v: int) -> Mat:
        """Block at v: the shared empty zero matrix off one of the supports."""
        b = self.blocks.get(v)
        return Mat.zeros(self.target.dim(v), self.source.dim(v)) if b is None else b

    @cached_property
    def support(self) -> frozenset[int]:
        """Vertices with a non-zero block, computed once per map."""
        return frozenset(v for v, b in self.blocks.items() if not b.is_zero())


def module_map(source: Representation, target: Representation,
               blocks: dict[int, Mat]) -> ModuleMap:
    """The map with the given blocks, missing ones zero; (shape-checked)
    blocks off the supports are not stored."""
    sdims, tdims = source.dims, target.dims
    outgoing = source.algebra.quiver.outgoing
    for v, b in blocks.items():
        if v not in outgoing:
            raise ValueError(f"unknown vertex {v}")
        expected = (tdims.get(v, 0), sdims.get(v, 0))
        if b.shape != expected:
            raise ValueError(f"block at {v} has shape {b.shape}, expected {expected}")
    full = {}
    for v, d in sdims.items():
        e = tdims.get(v)
        if e:
            b = blocks.get(v)
            full[v] = Mat.zeros(e, d) if b is None else b
    f = ModuleMap(source, target, full)
    _check_intertwining(f)
    return f


def _thin(f: ModuleMap) -> bool:
    """Are both modules of f thin, every space a line?  Read in O(1) from
    the stored fields; then every block and arrow map on the supports is
    1 x 1."""
    s, t = f.source, f.target
    return s.total_dim == len(s.dims) and t.total_dim == len(t.dims)


def _check_intertwining(f: ModuleMap) -> None:
    """Each arrow from the source's support into the target's: the squares
    with a non-empty side, a side through an empty space being zero."""
    outgoing = f.source.algebra.quiver.outgoing
    sdims, tdims, blocks = f.source.dims, f.target.dims, f.blocks
    if _thin(f):
        # every side is a 1 x 1 product: compare the scalars
        smaps, tmaps = f.source.maps, f.target.maps
        for v in sdims:
            for a in outgoing[v]:
                e = a.target
                if e in tdims:
                    lhs = blocks[e].rows[0][0] * smaps[a.name].rows[0][0] if e in sdims else 0
                    rhs = tmaps[a.name].rows[0][0] * blocks[v].rows[0][0] if v in tdims else 0
                    if lhs != rhs:
                        raise ValueError(f"map does not intertwine along arrow {a.name}")
        return
    for v, d in sdims.items():
        for a in outgoing[v]:
            e = tdims.get(a.target)
            if e:
                lhs = (blocks[a.target] @ f.source.maps[a.name] if a.target in sdims
                       else Mat.zeros(e, d))
                rhs = f.target.maps[a.name] @ blocks[v] if v in tdims else Mat.zeros(e, d)
                if lhs != rhs:
                    raise ValueError(f"map does not intertwine along arrow {a.name}")


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("maps do not compose")
    blocks = {v: g.block(v) @ f.block(v) for v in f.source.dims if v in g.target.dims}
    return ModuleMap(f.source, g.target, blocks)


def _require_thin(f: ModuleMap, op: str) -> None:
    if not _thin(f):
        raise ValueError(f"{op} takes maps between thin modules only")


def is_monomorphism(f: ModuleMap) -> bool:
    """Is every block on the source's support there and non-zero?"""
    _require_thin(f, "is_monomorphism")
    blocks = f.blocks
    return all(v in blocks and blocks[v].rank() for v in f.source.dims)


def is_epimorphism(f: ModuleMap) -> bool:
    """Is every block on the target's support there and non-zero?"""
    _require_thin(f, "is_epimorphism")
    blocks = f.blocks
    return all(v in blocks and blocks[v].rank() for v in f.target.dims)


# --------------------------------------------------------------------------
# kernels, cokernels and socles of thin modules

def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise kernel with induced arrow maps and its inclusion: k at v
    exactly when the block there, 1 x 1 when stored, is missing or zero;
    each induced map is the source's own, and no arrow may carry the kernel
    into the rest of the source's support."""
    _require_thin(f, "kernel")
    source, blocks = f.source, f.blocks
    outgoing = source.algebra.quiver.outgoing
    dims = {v: 1 for v in source.dims if v not in blocks or not blocks[v].rows[0][0]}
    maps = {}
    for v in dims:
        for a in outgoing[v]:
            e = a.target
            if e in dims:
                maps[a.name] = source.maps[a.name]
            elif e in source.dims and source.maps[a.name].rows[0][0]:
                raise ValueError("kernel maps are not well defined")
    ker = Representation(source.algebra, dims, maps)
    _check_relations(ker)
    return ker, ModuleMap(ker, source, dict.fromkeys(dims, _ONE))


def kernel_of_sum(f1: ModuleMap, f2: ModuleMap) -> tuple[Representation, ModuleMap, ModuleMap]:
    """Kernel K of [f1 f2]: M1 + M2 -> N for thin maps into one target, read
    off their blocks without building the direct sum, with the two
    components K -> M1 and K -> M2 of its inclusion.  At each vertex v of
    supp M1 | supp M2 it is the (x1, x2) with a x1 + b x2 = 0, a and b the
    blocks of f1 and f2 at v (0 where missing) and x_i = 0 off supp M_i: the
    line of e1 - (a / b) e2 where both live and b is not zero, of e2 where
    both live and only a is not, of e_i where only M_i lives and its block is
    zero, and nothing where it is not.  Where both live and a = b = 0 the
    kernel is a plane, which is refused.  Each arrow carries the line at its
    source onto a multiple of the line at its target, that multiple being
    the induced scalar, or to zero where the kernel vanishes."""
    if f1.target is not f2.target and f1.target != f2.target:
        raise ValueError("kernel_of_sum takes two maps into one target")
    _require_thin(f1, "kernel_of_sum")
    _require_thin(f2, "kernel_of_sum")
    m1, m2 = f1.source, f2.source
    lines = {}
    for v in {**m1.dims, **m2.dims}:
        a, b = _scalar(f1, v), _scalar(f2, v)
        if v in m1.dims and v in m2.dims:
            if not (a or b):
                raise ValueError(f"kernel_of_sum has a plane at vertex {v}, not a line")
            lines[v] = (1, _over(-a, b)) if b else (0, 1)
        elif not (a or b):
            lines[v] = (1, 0) if v in m1.dims else (0, 1)
    outgoing = m1.algebra.quiver.outgoing
    maps = {}
    for v, (x1, x2) in lines.items():
        for arrow in outgoing[v]:
            s1, s2 = m1.maps.get(arrow.name), m2.maps.get(arrow.name)
            carried = (0 if s1 is None else s1.rows[0][0] * x1,
                       0 if s2 is None else s2.rows[0][0] * x2)
            line = lines.get(arrow.target)
            if line is None:
                if any(carried):
                    raise ValueError("kernel maps are not well defined")
                continue
            i = 0 if line[0] else 1
            scalar = _over(carried[i], line[i])
            if carried != (scalar * line[0], scalar * line[1]):
                raise ValueError("kernel maps are not well defined")
            maps[arrow.name] = Mat(((scalar,),))
    ker = Representation(m1.algebra, dict.fromkeys(lines, 1), maps)
    _check_relations(ker)
    return ker, *(ModuleMap(ker, m, {v: Mat(((line[i],),)) for v, line in lines.items()
                                     if v in m.dims})
                  for i, m in enumerate((m1, m2)))


def _scalar(f: ModuleMap, v: int):
    """The entry of a thin map's block at v, 0 where none is stored."""
    b = f.blocks.get(v)
    return 0 if b is None else b.rows[0][0]


def _over(x, y):
    """x / y, exact; an int stays an int when y is 1 or -1."""
    return x * y if y == 1 or y == -1 else Fraction(x) / y


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise cokernel with induced arrow maps and its projection: k at
    v exactly when the block there, 1 x 1 when stored, is missing or zero;
    each induced map is the target's own, and no arrow may come into the
    cokernel from the rest of the target's support."""
    _require_thin(f, "cokernel")
    target, blocks = f.target, f.blocks
    outgoing = target.algebra.quiver.outgoing
    dims = {v: 1 for v in target.dims if v not in blocks or not blocks[v].rows[0][0]}
    maps = {}
    for v in target.dims if dims else ():
        for a in outgoing[v]:
            if a.target in dims:
                if v in dims:
                    maps[a.name] = target.maps[a.name]
                elif target.maps[a.name].rows[0][0]:
                    raise ValueError("cokernel maps are not well defined")
    cok = Representation(target.algebra, dims, maps)
    _check_relations(cok)
    return cok, ModuleMap(target, cok, dict.fromkeys(dims, _ONE))


def socle(rep: Representation) -> Counter:
    """Multiset of simples in the socle of a thin module: the vertices where
    no arrow out of it into the support acts, once each."""
    if rep.total_dim != len(rep.dims):
        raise ValueError("socle takes thin modules only")
    dims, maps = rep.dims, rep.maps
    outgoing = rep.algebra.quiver.outgoing
    return Counter(v for v in sorted(dims)
                   if not any(maps[a.name].rows[0][0] for a in outgoing[v] if a.target in dims))
