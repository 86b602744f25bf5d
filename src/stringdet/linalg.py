"""Exact linear algebra over the rationals for small, sparse systems.

Entries are stored as given and must be exact: Python ints and
`fractions.Fraction`s, which mix exactly.  Zero and unit entries are the
ints 0 and 1, so integer systems stay in int arithmetic; the only division
(`Fraction(1) / pivot`, which normalises a pivot other than 1 or -1) yields
a Fraction.  No floating point anywhere.  There is one elimination routine:
`SpanBuilder` keeps a row space in reduced row echelon form, each row a
sparse {column: value} dict, so that reducing a vector touches only the
pivots it meets and costs O(fill), not O(length), per row.  `nullspace`,
`Mat.rank`, `kernel_inclusion` and `quotient_projection` (a left kernel)
all read its pivot rows.  The systems that come up (intertwining
constraints, kernels, quotients) have a few non-zeros per row.

Each distinct block is eliminated once.  On the oracle's path the memo
serves the sink maps of meshes with two epi middles, on their direct sum, and
their ranks (the onto check): thin maps take scalar kernels and cokernels,
and End = k needs no solve.  Those blocks are few and come back again and
again (a 1 x 2 [1 1]), so the kernel of a matrix (which also gives its rank)
and the quotient by its column space are memoised by the matrix's value, in
a bounded `functools.lru_cache` of `_MEMO_SIZE` entries each.  The key is
the immutable `Mat` alone; an int matrix and an equal `Fraction` one share
an entry, and their results are equal and exact.  Only immutable values are
cached, and `nullspace` returns a fresh list each call.

Most blocks of a module map over a tree are empty (0 x k or k x 0): a string
module lives on a path, its support.  Empty blocks cost no arithmetic:
`Mat.zeros` hands out one shared instance per empty shape, a product with an
empty result or an empty inner dimension is that zero matrix, and an empty
shape has rank 0.  Shapes are still checked first.  The other blocks of thin
modules are 1 x 1: `Mat.identity(1)` is one shared [1], a 1 x 1 product is one
multiplication (the shared [1] when it is the int 1), a 1 x 1 rank reads the
entry, and a matrix keeps its hash once taken.  The public `Mat(rows, ncols)`
checks that the rows have one width, equal to ncols if given; every caller
outside this module uses it.  `Mat._trusted` takes a tuple of row tuples as
they are; only this module calls it, on rows it built to one width.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[int | Fraction, ...]

#: Entries kept by each value-keyed memo below.
_MEMO_SIZE = 1024


class Mat:
    """Immutable dense matrix.  Zero-row and zero-column shapes are legal."""

    __slots__ = ("rows", "nrows", "ncols", "shape", "_hash")

    def __new__(cls, rows: Iterable[Iterable], ncols: int | None = None):
        rs = tuple(tuple(row) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        return cls._trusted(rs, ncols)

    @classmethod
    def _trusted(cls, rows: tuple[tuple, ...], ncols: int) -> "Mat":
        """Unchecked: rows is a tuple of row tuples, each ncols long."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "shape", (len(rows), ncols))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        if nrows and ncols:
            return Mat._trusted(((0,) * ncols,) * nrows, ncols)
        m = _EMPTY.get((nrows, ncols))
        if m is None:
            m = _EMPTY[nrows, ncols] = Mat._trusted(((),) * nrows, ncols)
        return m

    @staticmethod
    def identity(n: int) -> "Mat":
        return _ONE if n == 1 else Mat._trusted(_unit_rows(range(n), n), n)

    @staticmethod
    def from_columns(cols: Sequence[Sequence], nrows: int) -> "Mat":
        if not (nrows and cols):
            return Mat.zeros(nrows, len(cols))
        return Mat._trusted(tuple(tuple(col[i] for col in cols) for i in range(nrows)), len(cols))

    @staticmethod
    def row_major(values: Sequence, start: int, nrows: int, ncols: int) -> "Mat":
        """The nrows x ncols matrix stored row-major in values from index start."""
        if not (nrows and ncols):
            return Mat.zeros(nrows, ncols)
        if start + nrows * ncols > len(values):
            raise ValueError("values too short for the block")
        return Mat._trusted(tuple(tuple(values[start + r * ncols:start + (r + 1) * ncols])
                                  for r in range(nrows)), ncols)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Mat) and self.shape == other.shape
                                 and self.rows == other.rows)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.shape, self.rows)))
            return self._hash

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {[[str(x) for x in r] for r in self.rows]})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if not (self.nrows and self.ncols and other.ncols):
            return Mat.zeros(self.nrows, other.ncols)
        if self.nrows == self.ncols == other.ncols == 1:
            x = self.rows[0][0] * other.rows[0][0]
            return _ONE if x == 1 and type(x) is int else Mat._trusted(((x,),), 1)
        cols = list(zip(*other.rows))
        return Mat._trusted(tuple(tuple(sum(map(mul, row, col)) for col in cols)
                                  for row in self.rows), other.ncols)

    def transpose(self) -> "Mat":
        if not (self.nrows and self.ncols):
            return Mat.zeros(self.ncols, self.nrows)
        return Mat._trusted(tuple(zip(*self.rows)), self.nrows)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def rank(self) -> int:
        if self.shape == (1, 1):
            return 1 if self.rows[0][0] else 0
        return self.ncols - len(_kernel(self)[0]) if self.nrows and self.ncols else 0

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        if not (self.nrows and (self.ncols or other.ncols)):
            return Mat.zeros(self.nrows, self.ncols + other.ncols)
        return Mat._trusted(tuple(a + b for a, b in zip(self.rows, other.rows)),
                            self.ncols + other.ncols)


#: The shared instance of each empty shape, handed out by Mat.zeros.
_EMPTY: dict[tuple[int, int], Mat] = {}


def _unit_rows(cols: Iterable[int], n: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors e_c of length n, one per c in cols."""
    return tuple(tuple(1 if i == c else 0 for i in range(n)) for c in cols)


#: The shared [1], handed out by Mat.identity(1) and by 1 x 1 products equal to the int 1.
_ONE = Mat._trusted(((1,),), 1)


class SpanBuilder:
    """Incremental row space: add vectors, read the dimension and the free
    columns.  Rows are kept in reduced echelon form, each as a sparse
    {column: non-zero value} dict."""

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


@lru_cache(maxsize=_MEMO_SIZE)
def _kernel(m: Mat) -> tuple[tuple[Vector, ...], Mat, Mat]:
    """Basis of {x : m @ x = 0}, its inclusion (the basis as columns) and its
    retraction onto the free columns: the vector of free column c is 1 at c
    and 0 at the other free columns, so retraction @ inclusion is the
    identity."""
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
    return (tuple(basis), Mat.from_columns(basis, nrows=m.ncols),
            Mat._trusted(_unit_rows(free, m.ncols), m.ncols))


def nullspace(m: Mat) -> list[Vector]:
    """Basis of {x : m @ x = 0}, one vector per free column."""
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
    _, inclusion, retraction = _kernel(m.transpose())
    return inclusion.transpose(), retraction.transpose()
