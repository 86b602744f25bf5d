"""Routines only the tests call: a relation-ideal test that first checks the
path composes, a row space that also reduces vectors and tests membership,
the zero and identity module maps, the radical summands of a projective,
the general kernel and cokernel that thin modules no longer take, and a
reference grouping of arrows by one end."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from stringdet import linalg
from stringdet.algebra import Arrow, BoundQuiverAlgebra, _natural_key
from stringdet.linalg import Mat, kernel_inclusion, quotient_projection
from stringdet.modules import ModuleMap, Representation, module_map, representation, string_module
from stringdet.strings import radical_supports


def path_in_ideal(algebra: BoundQuiverAlgebra, path: tuple[str, ...] | list[str]) -> bool:
    """True iff the composable path lies in the relation ideal, i.e. contains
    some generator as a consecutive subpath.  Correct for monomial ideals on
    tree quivers, where no linear combination of distinct paths shares
    endpoints."""
    if not algebra.path_composable(path):
        raise ValueError(f"path {list(path)} is not composable in the quiver")
    return algebra.relations.contains_path(tuple(path))


class SpanBuilder(linalg.SpanBuilder):
    """The package's row space, plus reduction and membership queries."""

    def reduce(self, vec: Sequence) -> list[int | Fraction]:
        v = self._reduce(vec)
        return [v.get(i, 0) for i in range(self.length)]

    def contains(self, vec: Sequence) -> bool:
        return not self._reduce(vec)


def zero_map(source: Representation, target: Representation) -> ModuleMap:
    return module_map(source, target, {})


def identity_map(rep: Representation) -> ModuleMap:
    blocks = {v: Mat.identity(d) for v, d in rep.dims.items()}
    return ModuleMap(rep, rep, blocks)


def radical_summands(algebra: BoundQuiverAlgebra, v: int) -> list[Representation]:
    """Indecomposable summands of the radical of the projective at v: none at
    a sink, one per outgoing arrow otherwise."""
    return [string_module(algebra, s) for s in radical_supports(algebra, v)]


def general_kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise kernel with induced arrow maps and its inclusion, by the
    echelon routines at every vertex whatever the dimensions: the path
    `modules.kernel` keeps for modules that are not thin, run on any map."""
    source, blocks = f.source, f.blocks
    quiver = source.algebra.quiver
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
                continue
            carried = source.maps[a.name] @ incl[v]
            induced = retractions[e] @ carried
            if incl[e] @ induced != carried:
                raise ValueError("kernel maps are not well defined")
            if e in dims:
                maps[a.name] = induced
    ker = representation(source.algebra, dims, maps)
    return ker, ModuleMap(ker, source, {v: incl[v] for v in dims})


def general_cokernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise cokernel with induced arrow maps and its projection, by
    the echelon routines: the general path of `modules.cokernel`."""
    target, blocks = f.target, f.blocks
    quiver = target.algebra.quiver
    proj: dict[int, Mat] = {}
    sections: dict[int, Mat] = {}
    for v, d in target.dims.items():
        proj[v], sections[v] = quotient_projection(blocks.get(v) or Mat.zeros(d, 0))
    dims = {v: p.nrows for v, p in proj.items() if p.nrows}
    maps = {}
    for v in target.dims if dims else ():
        for a in quiver.outgoing[v]:
            e = a.target
            if e not in dims:
                continue
            carried = proj[e] @ target.maps[a.name]
            induced = carried @ sections[v]
            if induced @ proj[v] != carried:
                raise ValueError("cokernel maps are not well defined")
            if v in dims:
                maps[a.name] = induced
    cok = representation(target.algebra, dims, maps)
    return cok, ModuleMap(target, cok, {v: proj[v] for v in dims})


def by_end(vertices, arrows, end) -> dict[int, tuple[Arrow, ...]]:
    """Arrows grouped by one end, each group in natural name order, in one
    pass per table: the reference for `Quiver.outgoing` and `incoming`."""
    groups: dict[int, list[Arrow]] = {v: [] for v in vertices}
    for a in arrows:
        groups[end(a)].append(a)
    return {v: tuple(sorted(lst, key=lambda a: _natural_key(a.name)))
            for v, lst in groups.items()}
