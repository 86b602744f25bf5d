"""Representations of the bound quiver and exact operations on them.

A representation assigns a rational vector space to every vertex and a matrix
to every arrow (source space -> target space) such that the composite along
every relation generator vanishes.  String modules are the special case with
0/1 dimensions and identity linking maps; kernels and cokernels of maps
between them can have arbitrary rational matrices, so everything downstream
stays fully general.

Every vertex and arrow is present, but the work is local to the supports: a
block or arrow map with an empty shape is the shared zero matrix of that
shape, produced without arithmetic.  Kernels and cokernels solve only at
vertices where the map's source (kernel) or target (cokernel) is non-zero,
and induce only the arrow maps that carry a non-empty matrix; each of those
still has its well-definedness check, and every arrow whose intertwining
square has a non-empty side is still checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .algebra import BoundQuiverAlgebra
from .linalg import Mat, kernel_inclusion, nullspace, quotient_projection
from .strings import (StringWalk, injective_walk, projective_walk, radical_walks,
                      walk_vertices)


@dataclass(frozen=True)
class Representation:
    algebra: BoundQuiverAlgebra
    dims: dict[int, int]       # every vertex present, zeros included
    maps: dict[str, Mat]       # every arrow present, shape dims[target] x dims[source]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @cached_property
    def support(self) -> frozenset[int]:
        """Vertices with a non-zero space, computed once per module."""
        return frozenset(v for v, d in self.dims.items() if d)


def _check_relations(rep: Representation) -> None:
    amap = rep.algebra.quiver.arrow_map
    dims = rep.dims
    for gen in rep.algebra.relations.generators:
        first = amap[gen[0]]
        if not dims[first.source] or not all(dims[amap[name].target] for name in gen):
            continue  # the composite factors through a zero space
        acc = Mat.identity(dims[first.source])
        for name in gen:
            acc = rep.maps[name] @ acc
        if not acc.is_zero():
            raise ValueError(f"relation {' '.join(gen)} does not vanish")


def representation(algebra: BoundQuiverAlgebra, dims: dict[int, int],
                   maps: dict[str, Mat]) -> Representation:
    full_dims = {v: dims.get(v, 0) for v in algebra.quiver.vertices}
    full_maps = {}
    for a in algebra.quiver.arrows:
        m = maps.get(a.name)
        if m is None:
            m = Mat.zeros(full_dims[a.target], full_dims[a.source])
        if m.shape != (full_dims[a.target], full_dims[a.source]):
            raise ValueError(f"map for {a.name} has shape {m.shape}, "
                             f"expected {(full_dims[a.target], full_dims[a.source])}")
        full_maps[a.name] = m
    rep = Representation(algebra, full_dims, full_maps)
    _check_relations(rep)
    return rep


def string_module(algebra: BoundQuiverAlgebra, s: StringWalk) -> Representation:
    """Module of a walk: one basis vector per visited vertex, identity along
    every letter's arrow."""
    verts = set(walk_vertices(algebra, s))
    used = {l.arrow for l in s.letters}
    dims = {v: 1 for v in verts}
    maps = {name: Mat([[1]]) for name in used}
    return representation(algebra, dims, maps)


def simple(algebra: BoundQuiverAlgebra, v: int) -> Representation:
    return string_module(algebra, StringWalk(v, ()))


def projective(algebra: BoundQuiverAlgebra, v: int) -> Representation:
    """Indecomposable projective at v.  The basis is indexed by the surviving
    paths out of v (one basis vector per reachable vertex, paths in a tree
    being unique), which is exactly the string module of the glued arms."""
    return string_module(algebra, projective_walk(algebra, v))


def injective(algebra: BoundQuiverAlgebra, v: int) -> Representation:
    return string_module(algebra, injective_walk(algebra, v))


def radical_summands(algebra: BoundQuiverAlgebra, v: int) -> list[Representation]:
    """Indecomposable summands of the radical of the projective at v: none at
    a sink, one per outgoing arrow otherwise."""
    return [string_module(algebra, w) for w in radical_walks(algebra, v)]


# --------------------------------------------------------------------------
# maps

@dataclass(frozen=True)
class ModuleMap:
    source: Representation
    target: Representation
    blocks: dict[int, Mat]     # vertex -> dims_target[v] x dims_source[v]

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
    full = {}
    for v in source.algebra.quiver.vertices:
        b = blocks.get(v)
        if b is None:
            b = Mat.zeros(target.dims[v], source.dims[v])
        if b.shape != (target.dims[v], source.dims[v]):
            raise ValueError(f"block at {v} has shape {b.shape}, "
                             f"expected {(target.dims[v], source.dims[v])}")
        full[v] = b
    f = ModuleMap(source, target, full)
    _check_intertwining(f)
    return f


def _check_intertwining(f: ModuleMap) -> None:
    for a in f.source.algebra.quiver.arrows:
        if not (f.target.dims[a.target] and f.source.dims[a.source]):
            continue  # both sides are the empty zero matrix
        lhs = f.blocks[a.target] @ f.source.maps[a.name]
        rhs = f.target.maps[a.name] @ f.blocks[a.source]
        if lhs != rhs:
            raise ValueError(f"map does not intertwine along arrow {a.name}")


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    return module_map(source, target, {})


def identity_map(rep: Representation) -> ModuleMap:
    blocks = {v: Mat.identity(d) for v, d in rep.dims.items()}
    return ModuleMap(rep, rep, blocks)


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("maps do not compose")
    blocks = {v: g.blocks[v] @ f.blocks[v] for v in f.blocks}
    return ModuleMap(f.source, g.target, blocks)


def is_monomorphism(f: ModuleMap) -> bool:
    return all(f.blocks[v].rank() == f.source.dims[v] for v in f.blocks)


def is_epimorphism(f: ModuleMap) -> bool:
    return all(f.blocks[v].rank() == f.target.dims[v] for v in f.blocks)


# --------------------------------------------------------------------------
# hom spaces

def intertwining_rows(x_at: int, m: Mat, n: Mat, y_at: int, nvars: int) -> list[list]:
    """Rows, over nvars unknowns, of the linear system X @ m - n @ Y = 0.  The
    unknown blocks X (n.nrows x m.nrows) and Y (n.ncols x m.ncols) are stored
    row-major from columns x_at and y_at; identically zero rows are skipped."""
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
    column after the last block."""
    at = {}
    for v in sorted(rows):
        at[v] = start
        start += rows[v] * cols[v]
    return at, start


def hom_space(source: Representation, target: Representation) -> list[ModuleMap]:
    """Basis of the space of module maps source -> target, from the exact
    nullspace of the intertwining constraints."""
    if source.algebra is not target.algebra and source.algebra != target.algebra:
        raise ValueError("representations live over different algebras")
    at, nvars = block_columns(target.dims, source.dims, 0)
    if nvars == 0:
        return []

    rows = []
    for a in source.algebra.quiver.arrows:
        # block[target] @ source map == target map @ block[source]
        rows += intertwining_rows(at[a.target], source.maps[a.name], target.maps[a.name],
                                  at[a.source], nvars)
    return [ModuleMap(source, target,
                      {v: Mat.row_major(vec, at[v], target.dims[v], source.dims[v])
                       for v in at})
            for vec in nullspace(Mat(rows, ncols=nvars))]


# --------------------------------------------------------------------------
# kernels, cokernels, socle, direct sums

def kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise kernel with induced arrow maps and its inclusion."""
    algebra = f.source.algebra
    incl_blocks: dict[int, Mat] = {}
    retractions: dict[int, Mat] = {}
    dims: dict[int, int] = {}
    for v, b in f.blocks.items():
        if f.source.dims[v]:
            incl_blocks[v], retractions[v] = kernel_inclusion(b)
        else:
            incl_blocks[v] = retractions[v] = Mat.zeros(0, 0)
        dims[v] = incl_blocks[v].ncols
    maps = {}
    for a in algebra.quiver.arrows:
        if not (f.source.dims[a.target] and dims[a.source]):
            continue  # nothing is carried: the induced map is zero
        # induced map: carry the kernel along the arrow, read it back through
        # the target's retraction
        carried = f.source.maps[a.name] @ incl_blocks[a.source]
        induced = retractions[a.target] @ carried
        if incl_blocks[a.target] @ induced != carried:
            raise ValueError("kernel maps are not well defined")
        maps[a.name] = induced
    ker = representation(algebra, dims, maps)
    incl = ModuleMap(ker, f.source, incl_blocks)
    return ker, incl


def cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise cokernel with induced arrow maps and its projection."""
    algebra = f.target.algebra
    proj_blocks: dict[int, Mat] = {}
    sections: dict[int, Mat] = {}
    dims: dict[int, int] = {}
    for v, b in f.blocks.items():
        if f.target.dims[v]:
            proj_blocks[v], sections[v] = quotient_projection(b.columns(),
                                                              ambient_dim=f.target.dims[v])
        else:
            proj_blocks[v] = sections[v] = Mat.zeros(0, 0)
        dims[v] = proj_blocks[v].nrows
    maps = {}
    for a in algebra.quiver.arrows:
        if not (dims[a.target] and f.target.dims[a.source]):
            continue  # nothing is carried: the induced map is zero
        # induced map: factor proj_e @ target_map through proj_s via its section
        carried = proj_blocks[a.target] @ f.target.maps[a.name]
        induced = carried @ sections[a.source]
        if induced @ proj_blocks[a.source] != carried:
            raise ValueError("cokernel maps are not well defined")
        maps[a.name] = induced
    cok = representation(algebra, dims, maps)
    proj = ModuleMap(f.target, cok, proj_blocks)
    return cok, proj


def socle(rep: Representation) -> Counter:
    """Multiset of simples in the socle: at each vertex, the joint kernel of
    the outgoing maps (the whole space at a sink)."""
    out: Counter = Counter()
    for v in sorted(rep.dims):
        d = rep.dims[v]
        if d == 0:
            continue
        outgoing = rep.algebra.quiver.out_arrows(v)
        if not outgoing:
            out[v] = d
            continue
        stacked = [list(row) for a in outgoing for row in rep.maps[a.name].rows]
        dim = len(nullspace(Mat(stacked, ncols=d)))
        if dim:
            out[v] = dim
    return out


def direct_sum(reps: list[Representation]) -> Representation:
    """Direct sum, the summands' bases concatenated in order."""
    if not reps:
        raise ValueError("empty direct sum")
    algebra = reps[0].algebra
    verts = sorted(reps[0].dims)
    dims = {v: sum(r.dims[v] for r in reps) for v in verts}
    offsets: list[dict[int, int]] = []
    run = {v: 0 for v in verts}
    for r in reps:
        offsets.append(dict(run))
        for v in verts:
            run[v] += r.dims[v]

    maps = {}
    for a in algebra.quiver.arrows:
        s, e = a.source, a.target
        if not (dims[e] and dims[s]):
            continue  # representation fills in the empty zero map
        rows = [[0] * dims[s] for _ in range(dims[e])]
        for r, off in zip(reps, offsets):
            block = r.maps[a.name]
            for i in range(r.dims[e]):
                for j in range(r.dims[s]):
                    rows[off[e] + i][off[s] + j] = block.rows[i][j]
        maps[a.name] = Mat(rows, ncols=dims[s])
    return representation(algebra, dims, maps)
