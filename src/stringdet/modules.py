"""Representations of the bound quiver and exact operations on them.

A representation assigns a rational vector space to every vertex and a matrix
to every arrow (source space -> target space) such that the composite along
every relation generator vanishes.  String modules are the special case with
0/1 dimensions and identity linking maps, each built by `string_module` from
its support alone.

A module is thin when every space on its support is a line, which
`total_dim == len(dims)` tells in O(1).  Between thin modules every block and
arrow map is 1 x 1, so `kernel`, `cokernel` and the intertwining check take a
scalar path there: the kernel (cokernel) is k exactly where the block is
missing or zero, each induced map is the module's own, the inclusion
(projection) blocks are the shared 1 x 1 identity, and the same checks raise
the same errors.  The socle of a thin module is the vertices where every
arrow out of it into the support acts by zero.  Any other module or map,
such as a sink map on the direct sum of two epi middles, takes the general
path: the echelon routines of `linalg` at every vertex, with arbitrary
rational matrices.

A module stores only its support: the vertices with a non-zero space and
the arrows with both ends there (whose matrix may still be zero); a map
stores only its blocks on both supports.  `dim`, `map` and `block` read 0 or
the shared empty zero matrix elsewhere.  Every operation visits only support
vertices, the arrows out of them and the relations starting there, so its
cost follows the supports, not the quiver.  Checked: the shape of every
given map and block (an unknown vertex or arrow is refused), every relation
inside the support, every intertwining square with a non-empty side, and
every induced kernel and cokernel map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .algebra import BoundQuiverAlgebra
from .linalg import Mat, kernel_inclusion, nullspace, quotient_projection
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


def representation(algebra: BoundQuiverAlgebra, dims: dict[int, int],
                   maps: dict[str, Mat]) -> Representation:
    """The module with the given spaces and maps, missing ones zero; zero
    spaces and (shape-checked) maps off the support are not stored."""
    quiver = algebra.quiver
    outgoing, arrow_map = quiver.outgoing, quiver.arrow_map
    for v in dims:
        if v not in outgoing:
            raise ValueError(f"unknown vertex {v}")
    support = {v: d for v, d in dims.items() if d}
    for name, m in maps.items():
        a = arrow_map.get(name)
        if a is None:
            raise ValueError(f"unknown arrow {name}")
        expected = (support.get(a.target, 0), support.get(a.source, 0))
        if m.shape != expected:
            raise ValueError(f"map for {name} has shape {m.shape}, expected {expected}")
    inside = {}
    for v, d in support.items():
        for a in outgoing[v]:
            if a.target in support:
                m = maps.get(a.name)
                inside[a.name] = Mat.zeros(support[a.target], d) if m is None else m
    rep = Representation(algebra, support, inside)
    _check_relations(rep)
    return rep


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

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())

    @cached_property
    def support(self) -> frozenset[int]:
        """Vertices with a non-zero block, computed once per map."""
        return frozenset(v for v, b in self.blocks.items() if not b.is_zero())

    def vec(self) -> tuple:
        """Flatten block entries in fixed (sorted vertex, row-major) order."""
        out = []
        for v in sorted(self.blocks):
            for row in self.blocks[v].rows:
                out.extend(row)
        return tuple(out)


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


def is_monomorphism(f: ModuleMap) -> bool:
    blocks = f.blocks
    return all(v in blocks and blocks[v].rank() == d for v, d in f.source.dims.items())


def is_epimorphism(f: ModuleMap) -> bool:
    blocks = f.blocks
    return all(v in blocks and blocks[v].rank() == d for v, d in f.target.dims.items())


# --------------------------------------------------------------------------
# hom spaces

def intertwining_rows(x_at: int | None, m: Mat, n: Mat, y_at: int | None,
                      nvars: int) -> list[list]:
    """Rows, over nvars unknowns, of the linear system X @ m - n @ Y = 0.  The
    unknown blocks X (n.nrows x m.nrows) and Y (n.ncols x m.ncols) are stored
    row-major from columns x_at and y_at; identically zero rows are skipped.
    The start of an empty block is never read and may be None."""
    rows = []
    for i in range(n.nrows):
        for j in range(m.ncols):
            row = [0] * nvars
            hit = False
            for k in range(m.nrows):
                if m.rows[k][j]:
                    row[x_at + i * m.nrows + k] += m.rows[k][j]
                    hit = True
            for k in range(n.ncols):
                if n.rows[i][k]:
                    row[y_at + k * m.ncols + j] -= n.rows[i][k]
                    hit = True
            if hit:
                rows.append(row)
    return rows


def block_columns(rows: dict[int, int], cols: dict[int, int],
                  start: int) -> tuple[dict[int, int], int]:
    """First column of each vertex's unknown rows[v] x cols[v] block, with the
    blocks stored row-major in sorted vertex order from column start, and the
    column after the last block.  A vertex missing from either dict has an
    empty block and gets no column."""
    at = {}
    for v in sorted(rows.keys() & cols.keys()):
        at[v] = start
        start += rows[v] * cols[v]
    return at, start


def _hom_system(source: Representation, target: Representation) -> tuple[dict, list]:
    """First column of each vertex's unknown block (see block_columns) and the
    exact nullspace of the intertwining constraints on those unknowns."""
    if source.algebra is not target.algebra and source.algebra != target.algebra:
        raise ValueError("representations live over different algebras")
    at, nvars = block_columns(target.dims, source.dims, 0)
    if nvars == 0:
        return at, []

    quiver = source.algebra.quiver
    rows = []
    for v in source.dims:
        for a in quiver.outgoing[v]:
            if a.target in target.dims:
                # block[target] @ source map == target map @ block[source]
                rows += intertwining_rows(at.get(a.target), source.map(a.name),
                                          target.map(a.name), at.get(v), nvars)
    return at, nullspace(Mat(rows, ncols=nvars))


def hom_space(source: Representation, target: Representation) -> list[ModuleMap]:
    """Basis of the space of module maps source -> target, from the exact
    nullspace of the intertwining constraints."""
    at, basis = _hom_system(source, target)
    return [ModuleMap(source, target,
                      {v: Mat.row_major(vec, at[v], target.dims[v], source.dims[v])
                       for v in at})
            for vec in basis]


def hom_dim(source: Representation, target: Representation) -> int:
    """Dimension of the space of module maps source -> target: the same exact
    solve as hom_space, without building the basis maps."""
    return len(_hom_system(source, target)[1])


# --------------------------------------------------------------------------
# kernels, cokernels, socle, direct sums

def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise kernel with induced arrow maps and its inclusion."""
    source, blocks = f.source, f.blocks
    quiver = source.algebra.quiver
    if _thin(f):
        # k at v exactly when the block there, 1 x 1 when stored, is missing
        # or zero; each induced map is the source's own, and no arrow may
        # carry the kernel into the rest of the source's support
        dims = {v: 1 for v in source.dims if v not in blocks or not blocks[v].rows[0][0]}
        maps = {}
        for v in dims:
            for a in quiver.outgoing[v]:
                e = a.target
                if e in dims:
                    maps[a.name] = source.maps[a.name]
                elif e in source.dims and source.maps[a.name].rows[0][0]:
                    raise ValueError("kernel maps are not well defined")
        ker = Representation(source.algebra, dims, maps)
        _check_relations(ker)
        return ker, ModuleMap(ker, source, dict.fromkeys(dims, _ONE))
    incl: dict[int, Mat] = {}
    retractions: dict[int, Mat] = {}
    for v, d in source.dims.items():
        incl[v], retractions[v] = kernel_inclusion(blocks.get(v) or Mat.zeros(0, d))
    dims = {v: b.ncols for v, b in incl.items() if b.ncols}
    maps = {}
    for v in dims:
        for a in quiver.outgoing[v]:
            e = a.target
            if e not in source.dims:
                continue  # nothing is carried: the induced map is zero
            # induced map: carry the kernel along the arrow, read it back
            # through the target's retraction
            carried = source.maps[a.name] @ incl[v]
            induced = retractions[e] @ carried
            if incl[e] @ induced != carried:
                raise ValueError("kernel maps are not well defined")
            if e in dims:
                maps[a.name] = induced
    ker = representation(source.algebra, dims, maps)
    return ker, ModuleMap(ker, source, {v: incl[v] for v in dims})


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise cokernel with induced arrow maps and its projection."""
    target, blocks = f.target, f.blocks
    quiver = target.algebra.quiver
    if _thin(f):
        # k at v exactly when the block there, 1 x 1 when stored, is missing
        # or zero; each induced map is the target's own, and no arrow may
        # come into the cokernel from the rest of the target's support
        dims = {v: 1 for v in target.dims if v not in blocks or not blocks[v].rows[0][0]}
        maps = {}
        for v in target.dims if dims else ():
            for a in quiver.outgoing[v]:
                if a.target in dims:
                    if v in dims:
                        maps[a.name] = target.maps[a.name]
                    elif target.maps[a.name].rows[0][0]:
                        raise ValueError("cokernel maps are not well defined")
        cok = Representation(target.algebra, dims, maps)
        _check_relations(cok)
        return cok, ModuleMap(target, cok, dict.fromkeys(dims, _ONE))
    proj: dict[int, Mat] = {}
    sections: dict[int, Mat] = {}
    for v, d in target.dims.items():
        proj[v], sections[v] = quotient_projection(blocks.get(v) or Mat.zeros(d, 0))
    dims = {v: p.nrows for v, p in proj.items() if p.nrows}
    maps = {}
    # a zero quotient carries nothing along any arrow
    for v in target.dims if dims else ():
        for a in quiver.outgoing[v]:
            e = a.target
            if e not in dims:
                continue  # nothing is carried: the induced map is zero
            # induced map: factor proj_e @ target_map through proj_v via its
            # section
            carried = proj[e] @ target.maps[a.name]
            induced = carried @ sections[v]
            if induced @ proj[v] != carried:
                raise ValueError("cokernel maps are not well defined")
            if v in dims:
                maps[a.name] = induced
    cok = representation(target.algebra, dims, maps)
    return cok, ModuleMap(target, cok, {v: proj[v] for v in dims})


def socle(rep: Representation) -> Counter:
    """Multiset of simples in the socle: at each vertex, the joint kernel of
    the maps of the arrows into the support (the whole space when there are
    none), counted as its dimension less the rank of the stacked maps."""
    quiver = rep.algebra.quiver
    out: Counter = Counter()
    if rep.total_dim == len(rep.dims):
        # a line at each vertex: in the socle unless an arrow out of it acts
        dims, maps = rep.dims, rep.maps
        for v in sorted(dims):
            if not any(maps[a.name].rows[0][0] for a in quiver.outgoing[v] if a.target in dims):
                out[v] = 1
        return out
    for v in sorted(rep.dims):
        stacked = [row for a in quiver.outgoing[v] if a.target in rep.dims
                   for row in rep.maps[a.name].rows]
        dim = rep.dims[v] - Mat(stacked, ncols=rep.dims[v]).rank()
        if dim:
            out[v] = dim
    return out


def direct_sum(reps: list[Representation]) -> Representation:
    """Direct sum, the summands' bases concatenated in order: each arrow map
    is block diagonal in the summands' maps (some of them empty)."""
    if not reps:
        raise ValueError("empty direct sum")
    algebra = reps[0].algebra
    dims: dict[int, int] = {}
    for r in reps:
        for v, d in r.dims.items():
            dims[v] = dims.get(v, 0) + d
    maps = {}
    for s, width in dims.items():
        for a in algebra.quiver.outgoing[s]:
            if a.target in dims:
                rows, left = [], 0
                for r in reps:
                    block = (r.maps.get(a.name)
                             or Mat.zeros(r.dims.get(a.target, 0), r.dims.get(s, 0)))
                    right = width - left - block.ncols
                    rows += [[0] * left + list(row) + [0] * right for row in block.rows]
                    left += block.ncols
                maps[a.name] = Mat(rows, ncols=width)
    return representation(algebra, dims, maps)
