"""Routines only the tests call: a relation-ideal test that first checks the
path composes, a row space that also reduces vectors and tests membership,
the zero and identity module maps, and a reference grouping of arrows by
one end."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from stringdet import linalg
from stringdet.algebra import Arrow, BoundQuiverAlgebra, _natural_key
from stringdet.linalg import Mat
from stringdet.modules import ModuleMap, Representation, module_map


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


def by_end(vertices, arrows, end) -> dict[int, tuple[Arrow, ...]]:
    """Arrows grouped by one end, each group in natural name order, in one
    pass per table: the reference for `Quiver.outgoing` and `incoming`."""
    groups: dict[int, list[Arrow]] = {v: [] for v in vertices}
    for a in arrows:
        groups[end(a)].append(a)
    return {v: tuple(sorted(lst, key=lambda a: _natural_key(a.name)))
            for v, lst in groups.items()}
