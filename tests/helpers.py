"""Routines only the tests call.

The package reads every kernel, cokernel, socle and Hom over a tree off
scalars, since every module it meets is thin.  The general linear algebra
those scalar paths replaced lives here, as the reference they are checked
against:

- exact elimination: `SpanBuilder`, a sparse reduced-row-echelon row space
  that also reduces vectors and tests membership, and from it `nullspace`,
  `kernel_inclusion`, `quotient_projection` and `rank`, the kernel and the
  quotient memoised by the matrix's value in bounded `lru_cache`s of
  `_MEMO_SIZE` entries;
- the `Mat` builders `from_columns`, `row_major`, `transpose` and `hstack`;
- modules of any dimension: `representation` (given spaces and maps),
  `direct_sum`, the general `general_kernel`, `general_cokernel` and
  `general_socle`, the exact Hom solve (`hom_space`, `hom_dim`, built from
  `block_columns` and `intertwining_rows`) and a map's flattened entries,
  `vec`;
- a relation-ideal test that first checks the path composes, the zero and
  identity module maps, the radical summands of a projective, and a
  reference grouping of arrows by one end.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from stringdet.algebra import Arrow, BoundQuiverAlgebra, _natural_key
from stringdet.linalg import Mat
from stringdet.modules import (ModuleMap, Representation, _check_relations, module_map,
                               string_module)
from stringdet.strings import radical_supports

Vector = tuple[int | Fraction, ...]

#: Entries kept by each value-keyed memo below.
_MEMO_SIZE = 1024


def path_in_ideal(algebra: BoundQuiverAlgebra, path: tuple[str, ...] | list[str]) -> bool:
    """True iff the composable path lies in the relation ideal, i.e. contains
    some generator as a consecutive subpath.  Correct for monomial ideals on
    tree quivers, where no linear combination of distinct paths shares
    endpoints."""
    if not algebra.path_composable(path):
        raise ValueError(f"path {list(path)} is not composable in the quiver")
    return algebra.relations.contains_path(tuple(path))


# --------------------------------------------------------------------------
# exact elimination

class SpanBuilder:
    """Incremental row space: add vectors, read the dimension and the free
    columns, reduce a vector and test membership.  Rows are kept in reduced
    echelon form, each as a sparse {column: non-zero value} dict, so that
    reducing a vector touches only the pivots it meets.  Entries stay exact:
    the only division (`Fraction(1) / pivot`, for a pivot other than 1 or
    -1) yields a Fraction."""

    def __init__(self, length: int):
        self.length = length
        self._rows: dict[int, dict[int, int | Fraction]] = {}  # pivot column -> normalized row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def free_columns(self) -> list[int]:
        """Columns without a pivot, in increasing order."""
        return [c for c in range(self.length) if c not in self._rows]

    def _reduce(self, vec: Sequence) -> dict[int, int | Fraction]:
        """vec reduced against the span, as a sparse dict.  Clearing one pivot
        never fills another, since each row is zero at the other pivots."""
        if len(vec) != self.length:
            raise ValueError("length mismatch")
        v = {i: x for i, x in enumerate(vec) if x}
        for piv in [p for p in v if p in self._rows]:
            _eliminate(v, piv, self._rows[piv])
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert vec into the span; True if the dimension grew."""
        v = self._reduce(vec)
        if not v:
            return False
        piv = min(v)
        lead = v[piv]
        if lead == -1:
            v = {col: -x for col, x in v.items()}
        elif lead != 1:
            inv = Fraction(1) / lead
            v = {col: x * inv for col, x in v.items()}
        for row in self._rows.values():
            if piv in row:
                _eliminate(row, piv, v)
        self._rows[piv] = v
        return True

    def reduce(self, vec: Sequence) -> list[int | Fraction]:
        v = self._reduce(vec)
        return [v.get(i, 0) for i in range(self.length)]

    def contains(self, vec: Sequence) -> bool:
        return not self._reduce(vec)


def _eliminate(v: dict, piv: int, row: dict) -> None:
    """Clear column piv of the sparse vector v in place by subtracting a
    multiple of row, whose entry there is 1; zeros are dropped."""
    c = v.pop(piv)
    for col, y in row.items():
        if col != piv:
            x = v.get(col, 0) - c * y
            if x:
                v[col] = x
            else:
                del v[col]


def _unit_rows(cols: Iterable[int], n: int) -> list[list[int]]:
    """The unit vectors e_c of length n, one per c in cols."""
    return [[int(i == c) for i in range(n)] for c in cols]


@lru_cache(maxsize=_MEMO_SIZE)
def _kernel(m: Mat) -> tuple[tuple[Vector, ...], Mat, Mat]:
    """Basis of {x : m @ x = 0}, its inclusion (the basis as columns) and its
    retraction onto the free columns: the vector of free column c is 1 at c
    and 0 at the other free columns, so retraction @ inclusion is the
    identity.  The key is the immutable matrix alone; an int matrix and an
    equal Fraction one share an entry, and their results are equal and
    exact."""
    span = SpanBuilder(m.ncols)
    for row in m.rows:
        if span.dim == m.ncols:
            break
        span.add(row)
    free = span.free_columns()
    basis = []
    for c in free:
        vec = [0] * m.ncols
        vec[c] = 1
        for p, row in span._rows.items():
            vec[p] = -row.get(c, 0)
        basis.append(tuple(vec))
    return (tuple(basis), from_columns(basis, nrows=m.ncols),
            Mat(_unit_rows(free, m.ncols), ncols=m.ncols))


def nullspace(m: Mat) -> list[Vector]:
    """Basis of {x : m @ x = 0}, one vector per free column, in a fresh list."""
    return list(_kernel(m)[0])


def kernel_inclusion(m: Mat) -> tuple[Mat, Mat]:
    """Inclusion of {x : m @ x = 0}, the nullspace basis as its columns, and
    its retraction onto the free coordinates, so that retraction @ inclusion
    is the identity."""
    return _kernel(m)[1:]


def quotient_projection(m: Mat) -> tuple[Mat, Mat]:
    """Projection K^n -> K^(n-r) whose kernel is exactly the column space of
    m (n = m.nrows), and its section through the free coordinates: the
    embedding of the free-coordinate unit vectors, so that projection @
    section is the identity."""
    return _quotient(m)


@lru_cache(maxsize=_MEMO_SIZE)
def _quotient(m: Mat) -> tuple[Mat, Mat]:
    # the projection's rows span the left kernel {y : y @ m = 0}
    _, inclusion, retraction = _kernel(transpose(m))
    return transpose(inclusion), transpose(retraction)


def rank(m: Mat) -> int:
    """Rank of any matrix, from the same elimination as its kernel."""
    return m.ncols - len(_kernel(m)[0]) if m.nrows and m.ncols else 0


# --------------------------------------------------------------------------
# matrix builders

def from_columns(cols: Sequence[Sequence], nrows: int) -> Mat:
    if not (nrows and cols):
        return Mat.zeros(nrows, len(cols))
    return Mat([[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))


def row_major(values: Sequence, start: int, nrows: int, ncols: int) -> Mat:
    """The nrows x ncols matrix stored row-major in values from index start."""
    if not (nrows and ncols):
        return Mat.zeros(nrows, ncols)
    if start + nrows * ncols > len(values):
        raise ValueError("values too short for the block")
    return Mat([values[start + r * ncols:start + (r + 1) * ncols] for r in range(nrows)],
               ncols=ncols)


def transpose(m: Mat) -> Mat:
    if not (m.nrows and m.ncols):
        return Mat.zeros(m.ncols, m.nrows)
    return Mat(zip(*m.rows), ncols=m.nrows)


def hstack(a: Mat, b: Mat) -> Mat:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch")
    if not (a.nrows and (a.ncols or b.ncols)):
        return Mat.zeros(a.nrows, a.ncols + b.ncols)
    return Mat([ra + rb for ra, rb in zip(a.rows, b.rows)], ncols=a.ncols + b.ncols)


# --------------------------------------------------------------------------
# modules of any dimension

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


def vec(f: ModuleMap) -> tuple:
    """Flatten f's block entries in fixed (sorted vertex, row-major) order."""
    return tuple(x for v in sorted(f.blocks) for row in f.blocks[v].rows for x in row)


def general_kernel(f: ModuleMap) -> tuple[Representation, ModuleMap]:
    """Vertex-wise kernel with induced arrow maps and its inclusion, by the
    echelon routines at every vertex whatever the dimensions: each induced
    map carries the kernel along the arrow and reads it back through the
    target's retraction."""
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
    the echelon routines: each induced map factors the projection after the
    target's map through the projection at the arrow's source, via its
    section."""
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


def general_socle(rep: Representation) -> Counter:
    """Multiset of simples in the socle: at each vertex, the joint kernel of
    the maps of the arrows into the support (the whole space when there are
    none), counted as its dimension less the rank of the stacked maps."""
    quiver = rep.algebra.quiver
    out: Counter = Counter()
    for v in sorted(rep.dims):
        stacked = [row for a in quiver.outgoing[v] if a.target in rep.dims
                   for row in rep.maps[a.name].rows]
        dim = rep.dims[v] - rank(Mat(stacked, ncols=rep.dims[v]))
        if dim:
            out[v] = dim
    return out


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
                      {v: row_major(sol, at[v], target.dims[v], source.dims[v]) for v in at})
            for sol in basis]


def hom_dim(source: Representation, target: Representation) -> int:
    """Dimension of the space of module maps source -> target: the same exact
    solve as hom_space, without building the basis maps."""
    return len(_hom_system(source, target)[1])


# --------------------------------------------------------------------------
# small module maps and modules

def zero_map(source: Representation, target: Representation) -> ModuleMap:
    return module_map(source, target, {})


def identity_map(rep: Representation) -> ModuleMap:
    blocks = {v: Mat.identity(d) for v, d in rep.dims.items()}
    return ModuleMap(rep, rep, blocks)


def radical_summands(algebra: BoundQuiverAlgebra, v: int) -> list[Representation]:
    """Indecomposable summands of the radical of the projective at v: none at
    a sink, one per outgoing arrow otherwise."""
    return [string_module(algebra, s) for s in radical_supports(algebra, v)]


def by_end(vertices, arrows, end) -> dict[int, tuple[Arrow, ...]]:
    """Arrows grouped by one end, each group in natural name order, in one
    pass per table: the reference for `Quiver.outgoing` and `incoming`."""
    groups: dict[int, list[Arrow]] = {v: [] for v in vertices}
    for a in arrows:
        groups[end(a)].append(a)
    return {v: tuple(sorted(lst, key=lambda a: _natural_key(a.name)))
            for v, lst in groups.items()}
